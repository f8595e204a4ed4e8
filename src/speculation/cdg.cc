#include "speculation/cdg.h"

namespace ocsp::spec {

bool Cdg::has_node(const GuessId& g) const { return out_.count(g) > 0; }

void Cdg::add_node(const GuessId& g) { out_[g]; }

void Cdg::remove_node(const GuessId& g) {
  auto out = out_.find(g);
  if (out == out_.end()) return;  // edges only ever join existing nodes
  for (const auto& succ : out->second) {
    auto in = in_.find(succ);
    in->second.erase(g);
    if (in->second.empty()) in_.erase(in);
  }
  out_.erase(out);
  auto in = in_.find(g);
  if (in == in_.end()) return;
  for (const auto& pred : in->second) out_.find(pred)->second.erase(g);
  in_.erase(in);
}

bool Cdg::has_edge(const GuessId& from, const GuessId& to) const {
  auto it = out_.find(from);
  return it != out_.end() && it->second.contains(to);
}

std::vector<GuessId> Cdg::add_edge(const GuessId& from, const GuessId& to) {
  add_node(to);
  if (out_[from].insert(to)) in_[to].insert(from);
  if (from == to) return {from};
  // A new cycle through (from -> to) exists iff `from` is reachable from
  // `to`.
  std::vector<GuessId> path;
  util::FlatSet<GuessId> visited;
  if (find_path(to, from, path, visited)) {
    // path = to ... from; the cycle is exactly these nodes.
    return path;
  }
  return {};
}

bool Cdg::find_path(const GuessId& from, const GuessId& target,
                    std::vector<GuessId>& path,
                    util::FlatSet<GuessId>& visited) const {
  if (!visited.insert(from)) return false;
  path.push_back(from);
  if (from == target) return true;
  auto it = out_.find(from);
  if (it != out_.end()) {
    for (const auto& next : it->second) {
      if (find_path(next, target, path, visited)) return true;
    }
  }
  path.pop_back();
  return false;
}

std::vector<GuessId> Cdg::predecessors(const GuessId& g) const {
  auto in = in_.find(g);
  if (in == in_.end()) return {};
  return {in->second.begin(), in->second.end()};
}

std::vector<GuessId> Cdg::closure_from(const GuessId& g) const {
  std::vector<GuessId> result;
  if (!has_node(g)) return result;
  util::FlatSet<GuessId> visited;
  std::vector<GuessId> work{g};
  while (!work.empty()) {
    GuessId cur = work.back();
    work.pop_back();
    if (!visited.insert(cur)) continue;
    result.push_back(cur);
    auto it = out_.find(cur);
    if (it != out_.end()) {
      for (const auto& next : it->second) work.push_back(next);
    }
  }
  return result;
}

std::size_t Cdg::edge_count() const {
  std::size_t n = 0;
  for (const auto& [node, succs] : out_) n += succs.size();
  return n;
}

std::vector<GuessId> Cdg::nodes() const {
  std::vector<GuessId> out;
  for (const auto& [node, succs] : out_) out.push_back(node);
  return out;
}

}  // namespace ocsp::spec

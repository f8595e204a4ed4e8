// Commit dependency graph (sections 4.1.4, 4.2.8).
//
// Nodes are guesses; an edge g -> h records "g precedes h": h can commit
// only after g.  PRECEDENCE messages add edges; a cycle means a causal
// chain runs backwards through a fork — a time fault — and every guess on
// the cycle must abort (Figure 4 / Figure 7).  An edge relates two
// guesses, not threads, so each process keeps one graph over the
// unresolved guesses it knows.
#pragma once

#include <map>
#include <vector>

#include "speculation/guess.h"
#include "util/flat_set.h"

namespace ocsp::spec {

class Cdg {
 public:
  bool has_node(const GuessId& g) const;
  void add_node(const GuessId& g);

  /// Remove a resolved guess and all its edges.  O(degree).
  void remove_node(const GuessId& g);

  /// Add edge from -> to (creating missing nodes).  If this closes a cycle,
  /// returns the nodes on one such cycle (in order, starting at `to`);
  /// otherwise returns an empty vector.  The edge is added either way — the
  /// caller aborts the cycle members, which removes them.
  std::vector<GuessId> add_edge(const GuessId& from, const GuessId& to);

  bool has_edge(const GuessId& from, const GuessId& to) const;

  /// Direct predecessors of g (guesses that must commit before g), in
  /// ascending order.  O(in-degree).
  std::vector<GuessId> predecessors(const GuessId& g) const;

  /// g plus all transitive successors — the set invalidated when g aborts.
  std::vector<GuessId> closure_from(const GuessId& g) const;

  std::size_t node_count() const { return out_.size(); }
  std::size_t edge_count() const;

  std::vector<GuessId> nodes() const;

 private:
  /// Find a path from `from` back to `target` (DFS); fills `path`.
  bool find_path(const GuessId& from, const GuessId& target,
                 std::vector<GuessId>& path,
                 util::FlatSet<GuessId>& visited) const;

  std::map<GuessId, util::FlatSet<GuessId>> out_;
  /// Reverse edges, held only for nodes with a predecessor (most nodes have
  /// none): a commit reads its predecessors, and a removal unlinks them.
  std::map<GuessId, util::FlatSet<GuessId>> in_;
};

}  // namespace ocsp::spec

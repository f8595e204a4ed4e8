#include "analysis/effects.h"

#include <algorithm>
#include <iterator>

#include "csp/visit.h"

namespace ocsp::analysis {

namespace {

void union_into(std::set<std::string>& dst, const std::set<std::string>& src) {
  dst.insert(src.begin(), src.end());
}

void union_ops_into(std::map<std::string, std::set<std::string>>& dst,
                    const std::map<std::string, std::set<std::string>>& src) {
  for (const auto& [target, ops] : src) {
    dst[target].insert(ops.begin(), ops.end());
  }
}

void intersect_into(std::set<std::string>& dst,
                    const std::set<std::string>& src) {
  for (auto it = dst.begin(); it != dst.end();) {
    if (src.count(*it) == 0) {
      it = dst.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace

std::set<std::string> set_intersection(const std::set<std::string>& a,
                                       const std::set<std::string>& b) {
  std::set<std::string> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::inserter(out, out.begin()));
  return out;
}

std::set<std::string> CommEffects::may_targets() const {
  std::set<std::string> out = may_call_targets;
  union_into(out, may_send_targets);
  return out;
}

void CommEffects::merge_seq(const CommEffects& next) {
  union_into(reads, next.reads);
  union_into(writes, next.writes);
  union_into(may_call_targets, next.may_call_targets);
  union_into(must_call_targets, next.must_call_targets);
  union_into(may_send_targets, next.may_send_targets);
  union_into(must_send_targets, next.must_send_targets);
  union_ops_into(may_ops, next.may_ops);
  may_receive |= next.may_receive;
  must_receive |= next.must_receive;
  may_print |= next.may_print;
  must_print |= next.must_print;
  may_reply |= next.may_reply;
  opaque |= next.opaque;
  unknown_target |= next.unknown_target;
  has_spec_site |= next.has_spec_site;
}

void CommEffects::merge_alt(const CommEffects& other) {
  union_into(reads, other.reads);
  union_into(writes, other.writes);
  union_into(may_call_targets, other.may_call_targets);
  union_into(may_send_targets, other.may_send_targets);
  union_ops_into(may_ops, other.may_ops);
  intersect_into(must_call_targets, other.must_call_targets);
  intersect_into(must_send_targets, other.must_send_targets);
  may_receive |= other.may_receive;
  must_receive &= other.must_receive;
  may_print |= other.may_print;
  must_print &= other.must_print;
  may_reply |= other.may_reply;
  opaque |= other.opaque;
  unknown_target |= other.unknown_target;
  has_spec_site |= other.has_spec_site;
}

void CommEffects::drop_must() {
  must_call_targets.clear();
  must_send_targets.clear();
  must_receive = false;
  must_print = false;
}

namespace {

void collect_arg_reads(const std::vector<csp::ExprPtr>& args,
                       std::set<std::string>& out) {
  for (const auto& a : args) {
    if (a) a->collect_reads(out);
  }
}

CommEffects effects_of(const csp::Stmt& stmt) {
  using csp::StmtKind;
  CommEffects e;
  switch (stmt.kind) {
    case StmtKind::kSeq:
      // All members execute in order: must-effects accumulate too.
      csp::for_each_child(stmt, [&e](const csp::Stmt& child) {
        e.merge_seq(effects_of(child));
      });
      break;
    case StmtKind::kAssign: {
      const auto& s = static_cast<const csp::AssignStmt&>(stmt);
      s.value->collect_reads(e.reads);
      e.writes.insert(s.variable);
      break;
    }
    case StmtKind::kIf: {
      const auto& s = static_cast<const csp::IfStmt&>(stmt);
      s.cond->collect_reads(e.reads);
      CommEffects then_e = effects_of(*s.then_branch);
      if (s.else_branch) {
        then_e.merge_alt(effects_of(*s.else_branch));
      } else {
        // Missing else = empty branch: nothing is certain.
        then_e.drop_must();
      }
      e.merge_seq(then_e);
      break;
    }
    case StmtKind::kWhile: {
      const auto& s = static_cast<const csp::WhileStmt&>(stmt);
      s.cond->collect_reads(e.reads);
      // Zero iterations are always possible: body contributes may only.
      CommEffects body_e = effects_of(*s.body);
      body_e.drop_must();
      e.merge_seq(body_e);
      break;
    }
    case StmtKind::kCall: {
      const auto& s = static_cast<const csp::CallStmt&>(stmt);
      collect_arg_reads(s.args, e.reads);
      if (!s.result_var.empty()) e.writes.insert(s.result_var);
      if (s.target_expr) {
        s.target_expr->collect_reads(e.reads);
        e.unknown_target = true;
      } else {
        e.may_call_targets.insert(s.target);
        e.must_call_targets.insert(s.target);
        e.may_ops[s.target].insert(s.op);
      }
      break;
    }
    case StmtKind::kSend: {
      const auto& s = static_cast<const csp::SendStmt&>(stmt);
      collect_arg_reads(s.args, e.reads);
      if (s.target_expr) {
        s.target_expr->collect_reads(e.reads);
        e.unknown_target = true;
      } else {
        e.may_send_targets.insert(s.target);
        e.must_send_targets.insert(s.target);
        e.may_ops[s.target].insert(s.op);
      }
      break;
    }
    case StmtKind::kReceive:
      e.may_receive = e.must_receive = true;
      // Receive binds the request metadata variables (see Machine).
      e.writes.insert("__op");
      e.writes.insert("__args");
      e.writes.insert("__caller");
      e.writes.insert("__reqid");
      e.writes.insert("__is_call");
      break;
    case StmtKind::kReply: {
      const auto& s = static_cast<const csp::ReplyStmt&>(stmt);
      s.value->collect_reads(e.reads);
      e.reads.insert("__caller");
      e.reads.insert("__reqid");
      e.may_reply = true;
      break;
    }
    case StmtKind::kPrint: {
      const auto& s = static_cast<const csp::PrintStmt&>(stmt);
      s.value->collect_reads(e.reads);
      e.may_print = e.must_print = true;
      break;
    }
    case StmtKind::kCompute:
    case StmtKind::kNop:
      break;
    case StmtKind::kNative:
      e.opaque = true;
      break;
    case StmtKind::kFork: {
      // Both branches execute (in parallel); the summary is their
      // sequential composition, which over-approximates any interleaving.
      const auto& s = static_cast<const csp::ForkStmt&>(stmt);
      e.has_spec_site = true;
      for (const auto& [var, spec] : s.predictors) {
        (void)var;
        if (spec.expr) spec.expr->collect_reads(e.reads);
      }
      csp::for_each_child(stmt, [&e](const csp::Stmt& child) {
        e.merge_seq(effects_of(child));
      });
      break;
    }
    case StmtKind::kHint: {
      const auto& s = static_cast<const csp::HintStmt&>(stmt);
      e.has_spec_site = true;
      for (const auto& [var, spec] : s.predictors) {
        (void)var;
        if (spec.expr) spec.expr->collect_reads(e.reads);
      }
      break;
    }
  }
  return e;
}

}  // namespace

CommEffects analyze_effects(const csp::Stmt* stmt) {
  if (stmt == nullptr) return {};
  return effects_of(*stmt);
}

CommEffects analyze_effects(const csp::StmtPtr& stmt) {
  return analyze_effects(stmt.get());
}

}  // namespace ocsp::analysis

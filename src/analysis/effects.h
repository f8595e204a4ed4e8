// Communication-effect analysis over the CSP statement IR.
//
// Extends the classic def/use summary (reads/writes) with what a fragment
// may do to the outside world: which processes it may call (two-way) or
// send to (one-way), whether it may receive, reply, or emit external
// output.  Two precision channels are kept side by side:
//
//   * may-sets  — an over-approximation, widened by UNION at If branches
//     and While bodies.  Sound for proving absence ("these two fragments
//     cannot contact the same process").
//   * must-sets — an under-approximation, narrowed by INTERSECTION at If
//     branches and dropped entirely for While bodies (zero iterations are
//     always possible).  Sound for proving presence ("both halves of this
//     fork WILL call server T"), which is what the statically-certain
//     time-fault diagnosis of section 2.2 needs.
//
// Opaque nodes (NativeStmt) and computed destinations (target_expr) widen
// to top: the `opaque` / `unknown_target` flags tell a client that the
// may-sets are lower bounds and every proof of absence must be refused.
#pragma once

#include <map>
#include <set>
#include <string>

#include "csp/program.h"

namespace ocsp::analysis {

struct CommEffects {
  // Data effects (may-style over-approximations).
  std::set<std::string> reads;
  std::set<std::string> writes;

  // Communication effects.
  std::set<std::string> may_call_targets;
  std::set<std::string> must_call_targets;
  std::set<std::string> may_send_targets;
  std::set<std::string> must_send_targets;
  bool may_receive = false;
  bool must_receive = false;
  bool may_print = false;   ///< external observable output (PrintStmt)
  bool must_print = false;
  bool may_reply = false;

  /// Per-target operation names the fragment may invoke there (calls and
  /// sends with a static destination).  May-style: widened by union
  /// everywhere.  Feeds the commutativity analysis — when two fragments
  /// share a target, their op sets decide whether the interference
  /// commutes (analysis/commute.h).
  std::map<std::string, std::set<std::string>> may_ops;

  /// Contains a NativeStmt: every invisible effect is possible, so the
  /// may-sets are lower bounds and proofs of absence are invalid.
  bool opaque = false;
  /// Contains a call/send whose destination is a runtime expression; the
  /// may-target sets are lower bounds.
  bool unknown_target = false;
  /// Contains a nested ParallelizeHint or ForkStmt.
  bool has_spec_site = false;

  /// Union of may call+send targets.
  std::set<std::string> may_targets() const;
  /// True when the fragment may interact with any other process or the
  /// external world (conservative when opaque).
  bool may_communicate() const;
  /// True when no proof of target absence is possible for this fragment.
  bool targets_unknowable() const { return opaque || unknown_target; }

  /// Sequential composition: both fragments execute, in order.
  void merge_seq(const CommEffects& next);
  /// Alternative composition (If): exactly one branch executes.
  void merge_alt(const CommEffects& other);
  /// Weaken to may-only (While bodies, ancestor continuations): execution
  /// is possible but not certain.
  void drop_must();
};

/// Summarize one statement tree.  Null is the empty summary.
CommEffects analyze_effects(const csp::Stmt* stmt);
CommEffects analyze_effects(const csp::StmtPtr& stmt);

/// Elements present in both sets (helper shared with the classifier).
std::set<std::string> set_intersection(const std::set<std::string>& a,
                                       const std::set<std::string>& b);

}  // namespace ocsp::analysis

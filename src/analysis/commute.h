// Commutativity-summary lattice and cross-process interference analysis.
//
// The SAFE proof of classify_split historically stopped at the process
// boundary: two fork halves contacting the *same* server were always
// interference.  This module closes that gap with abstract commutativity
// (in the style of CommCSL): each service op carries a summary
// (csp::OpCommSpec — pure / abelian-update / mutating, over named state
// groups), either declared by the workload or inferred from service_loop
// dispatch bodies, and two fragments' interferences at a shared target are
// harmless when every op pair commutes, replies included.
//
// The same summaries license the verifier-side relaxation: a use-class
// analysis (use_of) proves a passed variable is dead or boolean-only in
// the right thread, so a guess/actual mismatch in a summarized op's reply
// can commit instead of aborting (csp::VerifyMode; see
// transform::reclassify and SpecConfig::commute_verification).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/effects.h"
#include "csp/commute.h"
#include "csp/program.h"

namespace ocsp::analysis {

// ---- The commutativity lattice --------------------------------------------
//
// Diamond order on access levels of one state group:
//
//     kNone  <  { kPure , kAbelian }  <  kMutate
//
// with kPure and kAbelian incomparable; kNone is untouched (bottom) and
// kMutate is arbitrary read/write (top).

csp::CommLevel comm_join(csp::CommLevel a, csp::CommLevel b);
csp::CommLevel comm_meet(csp::CommLevel a, csp::CommLevel b);
bool comm_leq(csp::CommLevel a, csp::CommLevel b);

/// Whether two accesses at these levels on the SAME group may be reordered
/// freely (state and replies unaffected): either side untouched, or both
/// pure (no writes), or both abelian (commutative updates, constant
/// replies).  Antitone in the lattice: lowering either side never turns a
/// compatible pair incompatible.
bool level_compat(csp::CommLevel a, csp::CommLevel b);

/// Whether two individual ops commute, replies included: their group sets
/// are disjoint, or every shared access is level-compatible (which, given
/// per-op uniform levels, means both pure or both abelian).  Two abelian
/// ops additionally need the SAME fold operator (csp::FoldOp): `x += a`
/// and `x *= b` each fold commutatively on their own, yet reordering them
/// against each other is observable ((x+a)*b != x*b+a).  An abelian spec
/// with fold kNone commutes with nothing on a shared group.
bool ops_commute(const csp::OpCommSpec& a, const csp::OpCommSpec& b);

/// Join of the group accesses of a set of ops.  `complete` is false when
/// any contributing op had no summary, invalidating proofs of absence.
struct GroupFootprint {
  std::map<std::string, csp::CommLevel> levels;
  bool complete = true;

  void join(const GroupFootprint& other);
  std::string to_string() const;
};

// ---- Summary tables and the cross-process context -------------------------

/// Summaries for every service process in a system: target -> op -> spec.
struct SummaryTable {
  std::map<std::string, csp::CommDecls> per_process;

  const csp::OpCommSpec* lookup(const std::string& target,
                                const std::string& op) const;
  /// Footprint of `ops` at `target` (incomplete if any op unsummarized).
  GroupFootprint footprint(const std::string& target,
                           const std::set<std::string>& ops) const;
};

/// Caller-side knowledge fed into inference for one target process.
/// build_commute_context derives it from every Call/Send in the system.
struct InferContext {
  /// Per op of this process: the __args indices whose argument expression
  /// is provably numeric at EVERY static call/send site in the system.  An
  /// op reachable through a computed target (call_dyn/send_dyn with a
  /// matching op name) is tainted and gets an empty set.  An op absent
  /// from the map has no proven-numeric arguments.
  std::map<std::string, std::set<int>> numeric_args;
};

/// Infer op summaries from a program built with csp::service_loop: each
/// `if (__op == "X") body` dispatch arm is analyzed.  A body with no
/// writes, sends, calls, or external output is kPure over its non-request
/// state reads; a body whose every write is `x = x (+|*|and|or) e` with
/// `e` reading only request metadata, replying nothing or a constant, is
/// kAbelian over the written variables; other local-only bodies are
/// kMutate over their state reads+writes.  Bodies with downstream
/// calls/sends, natives, prints, or nested control flow get no summary.
///
/// Abelian constraints: every update in one body must fold with the same
/// operator (the spec's FoldOp); mixed operators demote to kMutate.  A `+`
/// fold additionally requires the delta to be PROVABLY NUMERIC — numeric
/// literals, __caller/__reqid, arithmetic over those, or an __args element
/// the InferContext proves numeric at every call site — because value_add
/// concatenates two strings, which is associative but not commutative
/// ("ab" vs "ba").  With a numeric delta no silent divergence exists: a
/// string accumulator hard-fails identically in either order.  `*` folds
/// reject non-numeric operands outright and `and`/`or` produce booleans,
/// so only `+` carries the numeric obligation.
csp::CommDecls infer_summaries(const csp::StmtPtr& program,
                               const InferContext& ctx = {});

/// Everything classify_split needs to reason across process boundaries.
struct CommuteContext {
  SummaryTable summaries;
  /// For every process: the ops it may invoke per target (from may_ops).
  std::map<std::string, std::map<std::string, std::set<std::string>>>
      peer_ops;
  /// The process whose program is being classified (excluded from the
  /// peer-interference check).
  std::string self;
};

/// One process of a system, as input to build_commute_context.
struct SystemProcess {
  std::string name;
  csp::StmtPtr program;
  /// Declared summaries for this process *as a target* (natives are opaque
  /// to inference).  Declarations win over inference on conflict.
  csp::CommDecls declared;
};

/// Builds the summary table (declared ∪ inferred) and peer-op map for a
/// closed system.  Before inferring each process's summaries it scans every
/// other process's static call/send sites to prove which request arguments
/// are numeric (InferContext) — the obligation `+`-fold abelian updates
/// carry — using a per-caller greatest-fixpoint over locally numeric
/// variables.  Computed-target sites taint their op name system-wide.
CommuteContext build_commute_context(const std::vector<SystemProcess>& procs,
                                     const std::string& self);

/// Whether the interference of two fork halves at shared target `target`
/// commutes: every left op pairwise commutes with every right op, and both
/// halves' ops commute with every op any *peer* process may invoke there
/// (a peer's non-commuting op makes the reply stream order-sensitive, so
/// eliding the halves' ordering would be observable).  Unsummarized ops
/// fail conservatively.  On success appends a human-readable justification
/// to `why` when non-null.
bool split_commutes_at(const CommuteContext& ctx, const std::string& target,
                       const std::set<std::string>& left_ops,
                       const std::set<std::string>& right_ops,
                       std::string* why = nullptr);

// ---- Use-class analysis (verification relaxation) -------------------------

/// How a statement fragment uses one variable, ordered
/// kUnused < kBooleanOnly < kValueUsed.  Boolean-only means every read
/// sits in a truthiness context: If/While conditions and the operands of
/// and/or/not (which evaluate operands by truthiness only — see
/// BinaryExpr::eval).  Any read in an argument, assignment source, print,
/// reply, arithmetic/comparison operand, or opaque native is a value use.
enum class UseClass : std::uint8_t { kUnused = 0, kBooleanOnly, kValueUsed };

const char* to_string(UseClass u);
UseClass use_join(UseClass a, UseClass b);

/// Use class of `v` over `stmts` executed in program order (a right thread
/// followed by its continuation).  A must-write to `v` kills later uses on
/// that path; loops and fork branches are joined conservatively.  The raw
/// pointer overload serves Machine::pending_stmts(), whose frame walk
/// yields the exact remaining program of a live thread.
UseClass use_of(const std::vector<csp::StmtPtr>& stmts, const std::string& v);
UseClass use_of(const std::vector<const csp::Stmt*>& stmts,
                const std::string& v);
UseClass use_of(const csp::StmtPtr& stmt, const std::string& v);

/// kUnused -> kDead, kBooleanOnly -> kBoolean, kValueUsed -> kExact.
csp::VerifyMode verify_mode_for(UseClass u);

}  // namespace ocsp::analysis

#include "analysis/commute.h"

#include <algorithm>

#include "csp/visit.h"

namespace ocsp::analysis {

using csp::CommLevel;

// ---- lattice ---------------------------------------------------------------

CommLevel comm_join(CommLevel a, CommLevel b) {
  if (a == b) return a;
  if (a == CommLevel::kNone) return b;
  if (b == CommLevel::kNone) return a;
  return CommLevel::kMutate;
}

CommLevel comm_meet(CommLevel a, CommLevel b) {
  if (a == b) return a;
  if (a == CommLevel::kMutate) return b;
  if (b == CommLevel::kMutate) return a;
  return CommLevel::kNone;
}

bool comm_leq(CommLevel a, CommLevel b) {
  return a == b || a == CommLevel::kNone || b == CommLevel::kMutate;
}

bool level_compat(CommLevel a, CommLevel b) {
  if (a == CommLevel::kNone || b == CommLevel::kNone) return true;
  return a == b && a != CommLevel::kMutate;
}

bool ops_commute(const csp::OpCommSpec& a, const csp::OpCommSpec& b) {
  for (const auto& g : a.groups) {
    if (std::find(b.groups.begin(), b.groups.end(), g) != b.groups.end()) {
      if (!level_compat(a.level, b.level)) return false;
      // Abelian folds only commute within one operator family: `x += a`
      // and `x *= b` are each abelian, but (x+a)*b != x*b+a.  kNone means
      // the fold is unknown and licenses nothing.
      if (a.level == CommLevel::kAbelian && b.level == CommLevel::kAbelian &&
          (a.fold == csp::FoldOp::kNone || a.fold != b.fold)) {
        return false;
      }
    }
  }
  return true;
}

void GroupFootprint::join(const GroupFootprint& other) {
  for (const auto& [g, l] : other.levels) {
    auto [it, inserted] = levels.emplace(g, l);
    if (!inserted) it->second = comm_join(it->second, l);
  }
  complete = complete && other.complete;
}

std::string GroupFootprint::to_string() const {
  std::string out = "{";
  for (const auto& [g, l] : levels) {
    if (out.size() > 1) out += ", ";
    out += g;
    out += ":";
    out += csp::to_string(l);
  }
  out += complete ? "}" : "} (incomplete)";
  return out;
}

// ---- summary tables --------------------------------------------------------

const csp::OpCommSpec* SummaryTable::lookup(const std::string& target,
                                            const std::string& op) const {
  auto p = per_process.find(target);
  if (p == per_process.end()) return nullptr;
  auto o = p->second.find(op);
  return o == p->second.end() ? nullptr : &o->second;
}

GroupFootprint SummaryTable::footprint(const std::string& target,
                                       const std::set<std::string>& ops)
    const {
  GroupFootprint fp;
  for (const auto& op : ops) {
    const csp::OpCommSpec* spec = lookup(target, op);
    if (spec == nullptr) {
      fp.complete = false;
      continue;
    }
    for (const auto& g : spec->groups) {
      auto [it, inserted] = fp.levels.emplace(g, spec->level);
      if (!inserted) it->second = comm_join(it->second, spec->level);
    }
  }
  return fp;
}

// ---- inference from service_loop dispatch bodies ---------------------------

namespace {

bool is_request_var(const std::string& name) {
  return name.rfind("__", 0) == 0;
}

/// Match `if (__op == "X") ...` and return the op name.
const csp::IfStmt* dispatch_arm(const csp::Stmt& stmt, std::string* op) {
  if (stmt.kind != csp::StmtKind::kIf) return nullptr;
  const auto& s = static_cast<const csp::IfStmt&>(stmt);
  const auto* cmp = dynamic_cast<const csp::BinaryExpr*>(s.cond.get());
  if (cmp == nullptr || cmp->op() != csp::BinaryOp::kEq) return nullptr;
  const auto* lhs = dynamic_cast<const csp::VarExpr*>(cmp->lhs().get());
  const auto* rhs = dynamic_cast<const csp::ConstExpr*>(cmp->rhs().get());
  if (lhs == nullptr || rhs == nullptr || lhs->name() != "__op") {
    return nullptr;
  }
  if (rhs->value().type() != csp::Value::Type::kString) return nullptr;
  *op = rhs->value().as_string();
  return &s;
}

/// Flat view of one dispatch body: assigns and replies, in order.  Any
/// other statement kind (nested control flow, communication, natives,
/// prints) makes the body unsummarizable.
struct BodyShape {
  std::vector<const csp::AssignStmt*> assigns;
  std::vector<const csp::ReplyStmt*> replies;
  bool summarizable = true;
};

void flatten_body(const csp::Stmt& stmt, BodyShape& shape) {
  switch (stmt.kind) {
    case csp::StmtKind::kSeq:
      csp::for_each_child(stmt, [&shape](const csp::Stmt& child) {
        flatten_body(child, shape);
      });
      break;
    case csp::StmtKind::kAssign:
      shape.assigns.push_back(static_cast<const csp::AssignStmt*>(&stmt));
      break;
    case csp::StmtKind::kReply:
      shape.replies.push_back(static_cast<const csp::ReplyStmt*>(&stmt));
      break;
    case csp::StmtKind::kCompute:
    case csp::StmtKind::kNop:
      break;
    default:
      shape.summarizable = false;
      break;
  }
}

csp::FoldOp fold_of(csp::BinaryOp op) {
  switch (op) {
    case csp::BinaryOp::kAdd: return csp::FoldOp::kAdd;
    case csp::BinaryOp::kMul: return csp::FoldOp::kMul;
    case csp::BinaryOp::kAnd: return csp::FoldOp::kAnd;
    case csp::BinaryOp::kOr: return csp::FoldOp::kOr;
    default: return csp::FoldOp::kNone;
  }
}

/// Whether `e`, evaluated while serving op `op`, is provably numeric.
/// Request metadata: __caller/__reqid are bound to ints by deliver();
/// __args[i] is numeric when every call site in the system passes a
/// provably numeric i-th argument (ctx).  Everything else — __op, __args
/// as a whole, state variables — is unproven.
bool numeric_request_expr(const csp::Expr* e, const std::string& op,
                          const InferContext& ctx) {
  if (const auto* c = dynamic_cast<const csp::ConstExpr*>(e)) {
    return c->value().type() == csp::Value::Type::kInt ||
           c->value().type() == csp::Value::Type::kReal;
  }
  if (const auto* v = dynamic_cast<const csp::VarExpr*>(e)) {
    return v->name() == "__caller" || v->name() == "__reqid";
  }
  if (const auto* un = dynamic_cast<const csp::UnaryExpr*>(e)) {
    return un->op() == csp::UnaryOp::kNeg &&
           numeric_request_expr(un->operand().get(), op, ctx);
  }
  if (const auto* bin = dynamic_cast<const csp::BinaryExpr*>(e)) {
    switch (bin->op()) {
      case csp::BinaryOp::kAdd:
      case csp::BinaryOp::kSub:
      case csp::BinaryOp::kMul:
      case csp::BinaryOp::kDiv:
      case csp::BinaryOp::kMod:
        return numeric_request_expr(bin->lhs().get(), op, ctx) &&
               numeric_request_expr(bin->rhs().get(), op, ctx);
      default:
        return false;  // comparisons and and/or yield booleans
    }
  }
  if (const auto* idx = dynamic_cast<const csp::IndexExpr*>(e)) {
    const auto* list = dynamic_cast<const csp::VarExpr*>(idx->list().get());
    const auto* i = dynamic_cast<const csp::ConstExpr*>(idx->index().get());
    if (list == nullptr || list->name() != "__args" || i == nullptr ||
        i->value().type() != csp::Value::Type::kInt) {
      return false;
    }
    auto it = ctx.numeric_args.find(op);
    return it != ctx.numeric_args.end() &&
           it->second.count(static_cast<int>(i->value().as_int())) != 0;
  }
  return false;
}

/// Match `x = x (+|*|and|or) e` where `e` reads only request metadata, and
/// return the fold operator.  A `+` fold must also prove `e` numeric:
/// value_add concatenates two strings (associative, not commutative), so a
/// string delta could make reordering silently observable.  With a numeric
/// delta the only non-numeric accumulator behavior is a hard type failure,
/// identical in either order.  `*` rejects non-numerics outright and
/// `and`/`or` reduce to truthiness, so they carry no such obligation.
csp::FoldOp abelian_update_fold(const csp::AssignStmt& a, const std::string& op,
                                const InferContext& ctx) {
  const auto* bin = dynamic_cast<const csp::BinaryExpr*>(a.value.get());
  if (bin == nullptr) return csp::FoldOp::kNone;
  const csp::FoldOp fold = fold_of(bin->op());
  if (fold == csp::FoldOp::kNone) return csp::FoldOp::kNone;
  auto is_self = [&a](const csp::ExprPtr& e) {
    const auto* v = dynamic_cast<const csp::VarExpr*>(e.get());
    return v != nullptr && v->name() == a.variable;
  };
  csp::ExprPtr delta;
  if (is_self(bin->lhs())) {
    delta = bin->rhs();
  } else if (is_self(bin->rhs())) {
    delta = bin->lhs();
  }
  if (delta == nullptr) return csp::FoldOp::kNone;
  std::set<std::string> delta_reads;
  delta->collect_reads(delta_reads);
  for (const auto& r : delta_reads) {
    if (!is_request_var(r)) return csp::FoldOp::kNone;
  }
  if (fold == csp::FoldOp::kAdd &&
      !numeric_request_expr(delta.get(), op, ctx)) {
    return csp::FoldOp::kNone;
  }
  return fold;
}

void summarize_arm(const std::string& op, const csp::Stmt& body,
                   const InferContext& ctx, csp::CommDecls& out) {
  BodyShape shape;
  flatten_body(body, shape);
  if (!shape.summarizable) return;

  std::set<std::string> state_reads;
  std::set<std::string> state_writes;
  for (const auto* a : shape.assigns) {
    if (is_request_var(a->variable)) return;  // unexpected; stay silent
    state_writes.insert(a->variable);
    std::set<std::string> reads;
    a->value->collect_reads(reads);
    for (const auto& r : reads) {
      if (!is_request_var(r)) state_reads.insert(r);
    }
  }
  bool const_replies = true;
  for (const auto* r : shape.replies) {
    std::set<std::string> reads;
    r->value->collect_reads(reads);
    for (const auto& rd : reads) {
      if (!is_request_var(rd)) state_reads.insert(rd);
    }
    if (dynamic_cast<const csp::ConstExpr*>(r->value.get()) == nullptr) {
      const_replies = false;
    }
  }

  csp::OpCommSpec spec;
  if (state_writes.empty()) {
    spec.level = CommLevel::kPure;
    spec.groups.assign(state_reads.begin(), state_reads.end());
  } else {
    // One fold operator for the whole body: the spec carries a single
    // fold, and two runs of this op reorder every update pair, so mixed
    // operators within one body are themselves order-observable.
    csp::FoldOp fold =
        const_replies ? abelian_update_fold(*shape.assigns.front(), op, ctx)
                      : csp::FoldOp::kNone;
    for (std::size_t i = 1; fold != csp::FoldOp::kNone && i < shape.assigns.size();
         ++i) {
      if (abelian_update_fold(*shape.assigns[i], op, ctx) != fold) {
        fold = csp::FoldOp::kNone;
      }
    }
    if (fold != csp::FoldOp::kNone) {
      spec.level = CommLevel::kAbelian;
      spec.fold = fold;
      spec.groups.assign(state_writes.begin(), state_writes.end());
    } else {
      spec.level = CommLevel::kMutate;
      std::set<std::string> groups = state_writes;
      groups.insert(state_reads.begin(), state_reads.end());
      spec.groups.assign(groups.begin(), groups.end());
    }
  }
  out.emplace(op, std::move(spec));
}

}  // namespace

csp::CommDecls infer_summaries(const csp::StmtPtr& program,
                               const InferContext& ctx) {
  csp::CommDecls decls;
  csp::visit_preorder(program.get(), [&decls, &ctx](const csp::Stmt& stmt) {
    std::string op;
    if (const csp::IfStmt* arm = dispatch_arm(stmt, &op)) {
      if (arm->then_branch) summarize_arm(op, *arm->then_branch, ctx, decls);
    }
  });
  return decls;
}

// ---- cross-process context -------------------------------------------------

namespace {

/// Whether `e` is provably numeric in a caller whose provably-numeric
/// local variables are `numeric`.  Request metadata reads resolve as in
/// numeric_request_expr, so service processes that relay values also get
/// their forwarding arguments typed.
bool numeric_local_expr(const csp::Expr* e,
                        const std::set<std::string>& numeric) {
  if (const auto* c = dynamic_cast<const csp::ConstExpr*>(e)) {
    return c->value().type() == csp::Value::Type::kInt ||
           c->value().type() == csp::Value::Type::kReal;
  }
  if (const auto* v = dynamic_cast<const csp::VarExpr*>(e)) {
    if (is_request_var(v->name())) {
      return v->name() == "__caller" || v->name() == "__reqid";
    }
    return numeric.count(v->name()) != 0;
  }
  if (const auto* un = dynamic_cast<const csp::UnaryExpr*>(e)) {
    return un->op() == csp::UnaryOp::kNeg &&
           numeric_local_expr(un->operand().get(), numeric);
  }
  if (const auto* bin = dynamic_cast<const csp::BinaryExpr*>(e)) {
    switch (bin->op()) {
      case csp::BinaryOp::kAdd:
      case csp::BinaryOp::kSub:
      case csp::BinaryOp::kMul:
      case csp::BinaryOp::kDiv:
      case csp::BinaryOp::kMod:
        return numeric_local_expr(bin->lhs().get(), numeric) &&
               numeric_local_expr(bin->rhs().get(), numeric);
      default:
        return false;
    }
  }
  return false;
}

/// Greatest fixpoint of "every value this variable can hold is numeric"
/// over one process: start from all locally assigned variables and remove
/// any with an unproven producer — a non-numeric assignment source, a call
/// reply, or a fork-guessed value.  A native statement writes the Env
/// invisibly, so its presence forfeits the whole process.
std::set<std::string> numeric_vars(const csp::StmtPtr& program) {
  bool has_native = false;
  std::vector<const csp::AssignStmt*> assigns;
  std::set<std::string> unproven;
  csp::visit_preorder(program.get(), [&](const csp::Stmt& s) {
    switch (s.kind) {
      case csp::StmtKind::kNative:
        has_native = true;
        break;
      case csp::StmtKind::kAssign:
        assigns.push_back(static_cast<const csp::AssignStmt*>(&s));
        break;
      case csp::StmtKind::kCall: {
        const auto& c = static_cast<const csp::CallStmt&>(s);
        if (!c.result_var.empty()) unproven.insert(c.result_var);
        break;
      }
      case csp::StmtKind::kFork: {
        const auto& f = static_cast<const csp::ForkStmt&>(s);
        for (const auto& v : f.passed) unproven.insert(v);
        break;
      }
      default:
        break;
    }
  });
  if (has_native) return {};
  std::set<std::string> numeric;
  for (const auto* a : assigns) {
    if (!is_request_var(a->variable)) numeric.insert(a->variable);
  }
  for (const auto& v : unproven) numeric.erase(v);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto* a : assigns) {
      if (numeric.count(a->variable) != 0 &&
          !numeric_local_expr(a->value.get(), numeric)) {
        numeric.erase(a->variable);
        changed = true;
      }
    }
  }
  return numeric;
}

}  // namespace

CommuteContext build_commute_context(const std::vector<SystemProcess>& procs,
                                     const std::string& self) {
  // Pass 1: prove per call site which arguments are numeric, intersecting
  // across every site of (target, op).  A computed-target site could reach
  // any process, so it taints its op name everywhere.
  std::map<std::string, std::map<std::string, std::map<int, bool>>> arg_num;
  std::set<std::string> tainted_ops;
  for (const auto& p : procs) {
    const std::set<std::string> numeric = numeric_vars(p.program);
    csp::visit_preorder(p.program.get(), [&](const csp::Stmt& s) {
      const std::vector<csp::ExprPtr>* args = nullptr;
      const std::string* target = nullptr;
      const std::string* op = nullptr;
      bool dynamic_target = false;
      if (s.kind == csp::StmtKind::kCall) {
        const auto& c = static_cast<const csp::CallStmt&>(s);
        args = &c.args;
        target = &c.target;
        op = &c.op;
        dynamic_target = c.target_expr != nullptr;
      } else if (s.kind == csp::StmtKind::kSend) {
        const auto& c = static_cast<const csp::SendStmt&>(s);
        args = &c.args;
        target = &c.target;
        op = &c.op;
        dynamic_target = c.target_expr != nullptr;
      } else {
        return;
      }
      if (dynamic_target) {
        tainted_ops.insert(*op);
        return;
      }
      auto& per_index = arg_num[*target][*op];
      for (std::size_t i = 0; i < args->size(); ++i) {
        const bool ok = numeric_local_expr((*args)[i].get(), numeric);
        auto [it, inserted] = per_index.emplace(static_cast<int>(i), ok);
        if (!inserted) it->second = it->second && ok;
      }
    });
  }

  CommuteContext ctx;
  ctx.self = self;
  for (const auto& p : procs) {
    InferContext infer;
    auto found = arg_num.find(p.name);
    if (found != arg_num.end()) {
      for (const auto& [op, per_index] : found->second) {
        if (tainted_ops.count(op) != 0) continue;
        std::set<int>& proven = infer.numeric_args[op];
        for (const auto& [i, ok] : per_index) {
          if (ok) proven.insert(i);
        }
      }
    }
    csp::CommDecls decls = infer_summaries(p.program, infer);
    for (const auto& [op, spec] : p.declared) {
      decls[op] = spec;  // declarations win
    }
    if (!decls.empty()) ctx.summaries.per_process[p.name] = std::move(decls);
    CommEffects e = analyze_effects(p.program);
    if (!e.may_ops.empty()) ctx.peer_ops[p.name] = std::move(e.may_ops);
  }
  return ctx;
}

namespace {

bool all_pairs_commute(const SummaryTable& table, const std::string& target,
                       const std::set<std::string>& a,
                       const std::set<std::string>& b) {
  for (const auto& oa : a) {
    const csp::OpCommSpec* sa = table.lookup(target, oa);
    if (sa == nullptr) return false;
    for (const auto& ob : b) {
      const csp::OpCommSpec* sb = table.lookup(target, ob);
      if (sb == nullptr) return false;
      if (!ops_commute(*sa, *sb)) return false;
    }
  }
  return true;
}

std::string join_ops(const std::set<std::string>& ops) {
  std::string out;
  for (const auto& o : ops) {
    if (!out.empty()) out += ",";
    out += o;
  }
  return out;
}

}  // namespace

bool split_commutes_at(const CommuteContext& ctx, const std::string& target,
                       const std::set<std::string>& left_ops,
                       const std::set<std::string>& right_ops,
                       std::string* why) {
  if (left_ops.empty() && right_ops.empty()) return true;
  if (!all_pairs_commute(ctx.summaries, target, left_ops, right_ops)) {
    return false;
  }
  std::set<std::string> mine = left_ops;
  mine.insert(right_ops.begin(), right_ops.end());
  // Reordering the halves is only unobservable if no peer injects a
  // non-commuting op into the same reply stream.
  for (const auto& [peer, per_target] : ctx.peer_ops) {
    if (peer == ctx.self) continue;
    auto it = per_target.find(target);
    if (it == per_target.end()) continue;
    if (!all_pairs_commute(ctx.summaries, target, mine, it->second)) {
      return false;
    }
  }
  if (why != nullptr) {
    *why += target + ": [" + join_ops(left_ops) + "] x [" +
            join_ops(right_ops) + "] commute " +
            ctx.summaries.footprint(target, mine).to_string();
  }
  return true;
}

// ---- use-class analysis ----------------------------------------------------

const char* to_string(UseClass u) {
  switch (u) {
    case UseClass::kUnused: return "unused";
    case UseClass::kBooleanOnly: return "boolean";
    case UseClass::kValueUsed: return "value";
  }
  return "?";
}

UseClass use_join(UseClass a, UseClass b) { return a < b ? b : a; }

namespace {

UseClass expr_use(const csp::Expr* e, const std::string& v, bool bool_ctx) {
  if (e == nullptr) return UseClass::kUnused;
  if (const auto* var = dynamic_cast<const csp::VarExpr*>(e)) {
    if (var->name() != v) return UseClass::kUnused;
    return bool_ctx ? UseClass::kBooleanOnly : UseClass::kValueUsed;
  }
  if (dynamic_cast<const csp::ConstExpr*>(e) != nullptr) {
    return UseClass::kUnused;
  }
  if (const auto* un = dynamic_cast<const csp::UnaryExpr*>(e)) {
    // `!x` reads only the truthiness of x; `-x` reads the value.
    return expr_use(un->operand().get(), v,
                    un->op() == csp::UnaryOp::kNot);
  }
  if (const auto* bin = dynamic_cast<const csp::BinaryExpr*>(e)) {
    const bool operands_boolean = bin->op() == csp::BinaryOp::kAnd ||
                                  bin->op() == csp::BinaryOp::kOr;
    return use_join(expr_use(bin->lhs().get(), v, operands_boolean),
                    expr_use(bin->rhs().get(), v, operands_boolean));
  }
  if (const auto* idx = dynamic_cast<const csp::IndexExpr*>(e)) {
    return use_join(expr_use(idx->list().get(), v, false),
                    expr_use(idx->index().get(), v, false));
  }
  if (const auto* lst = dynamic_cast<const csp::ListExpr*>(e)) {
    UseClass u = UseClass::kUnused;
    for (const auto& item : lst->items()) {
      u = use_join(u, expr_use(item.get(), v, false));
    }
    return u;
  }
  // Unknown expression kind: fall back to the read set.
  std::set<std::string> reads;
  e->collect_reads(reads);
  return reads.count(v) != 0 ? UseClass::kValueUsed : UseClass::kUnused;
}

struct UseResult {
  UseClass use = UseClass::kUnused;
  bool killed = false;  ///< the fragment MUST overwrite v on every path
};

UseResult use_walk(const csp::Stmt* stmt, const std::string& v);

UseResult use_walk_list(const std::vector<const csp::Stmt*>& stmts,
                        const std::string& v) {
  UseResult r;
  for (const auto* s : stmts) {
    UseResult c = use_walk(s, v);
    r.use = use_join(r.use, c.use);
    if (c.killed) {
      r.killed = true;
      break;  // later statements see the overwritten value
    }
  }
  return r;
}

UseResult use_walk_list(const std::vector<csp::StmtPtr>& stmts,
                        const std::string& v) {
  std::vector<const csp::Stmt*> raw;
  raw.reserve(stmts.size());
  for (const auto& s : stmts) raw.push_back(s.get());
  return use_walk_list(raw, v);
}

UseResult use_walk(const csp::Stmt* stmt, const std::string& v) {
  using csp::StmtKind;
  UseResult r;
  if (stmt == nullptr) return r;
  switch (stmt->kind) {
    case StmtKind::kSeq:
      return use_walk_list(static_cast<const csp::SeqStmt*>(stmt)->body, v);
    case StmtKind::kAssign: {
      const auto& s = *static_cast<const csp::AssignStmt*>(stmt);
      r.use = expr_use(s.value.get(), v, false);
      r.killed = s.variable == v;
      return r;
    }
    case StmtKind::kIf: {
      const auto& s = *static_cast<const csp::IfStmt*>(stmt);
      // The condition root is a truthiness context.
      r.use = expr_use(s.cond.get(), v, true);
      const UseResult t = use_walk(s.then_branch.get(), v);
      const UseResult e = use_walk(s.else_branch.get(), v);
      r.use = use_join(r.use, use_join(t.use, e.use));
      r.killed = t.killed && s.else_branch != nullptr && e.killed;
      return r;
    }
    case StmtKind::kWhile: {
      const auto& s = *static_cast<const csp::WhileStmt*>(stmt);
      r.use = use_join(expr_use(s.cond.get(), v, true),
                       use_walk(s.body.get(), v).use);
      return r;  // zero iterations possible: never a kill
    }
    case StmtKind::kCall: {
      const auto& s = *static_cast<const csp::CallStmt*>(stmt);
      for (const auto& a : s.args) {
        r.use = use_join(r.use, expr_use(a.get(), v, false));
      }
      if (s.target_expr) {
        r.use = use_join(r.use, expr_use(s.target_expr.get(), v, false));
      }
      r.killed = !s.result_var.empty() && s.result_var == v;
      return r;
    }
    case StmtKind::kSend: {
      const auto& s = *static_cast<const csp::SendStmt*>(stmt);
      for (const auto& a : s.args) {
        r.use = use_join(r.use, expr_use(a.get(), v, false));
      }
      if (s.target_expr) {
        r.use = use_join(r.use, expr_use(s.target_expr.get(), v, false));
      }
      return r;
    }
    case StmtKind::kReceive:
      // Binds only the __-prefixed request metadata variables.
      r.killed = is_request_var(v);
      return r;
    case StmtKind::kReply:
      r.use = expr_use(static_cast<const csp::ReplyStmt*>(stmt)->value.get(),
                       v, false);
      return r;
    case StmtKind::kPrint:
      // External output is observable: any read is a value use.
      r.use = expr_use(static_cast<const csp::PrintStmt*>(stmt)->value.get(),
                       v, false);
      return r;
    case StmtKind::kCompute:
    case StmtKind::kNop:
      return r;
    case StmtKind::kNative:
      // Opaque: may read anything, writes are invisible.
      r.use = UseClass::kValueUsed;
      return r;
    case StmtKind::kFork: {
      const auto& s = *static_cast<const csp::ForkStmt*>(stmt);
      for (const auto& [var, spec] : s.predictors) {
        (void)var;
        if (spec.expr) {
          r.use = use_join(r.use, expr_use(spec.expr.get(), v, false));
        }
      }
      r.use = use_join(r.use, use_join(use_walk(s.left.get(), v).use,
                                       use_walk(s.right.get(), v).use));
      return r;  // interleaving unknown: no kill credit
    }
    case StmtKind::kHint: {
      const auto& s = *static_cast<const csp::HintStmt*>(stmt);
      for (const auto& [var, spec] : s.predictors) {
        (void)var;
        if (spec.expr) {
          r.use = use_join(r.use, expr_use(spec.expr.get(), v, false));
        }
      }
      return r;
    }
  }
  return r;
}

}  // namespace

UseClass use_of(const std::vector<csp::StmtPtr>& stmts, const std::string& v) {
  return use_walk_list(stmts, v).use;
}

UseClass use_of(const std::vector<const csp::Stmt*>& stmts,
                const std::string& v) {
  return use_walk_list(stmts, v).use;
}

UseClass use_of(const csp::StmtPtr& stmt, const std::string& v) {
  return use_walk(stmt.get(), v).use;
}

csp::VerifyMode verify_mode_for(UseClass u) {
  switch (u) {
    case UseClass::kUnused: return csp::VerifyMode::kDead;
    case UseClass::kBooleanOnly: return csp::VerifyMode::kBoolean;
    case UseClass::kValueUsed: return csp::VerifyMode::kExact;
  }
  return csp::VerifyMode::kExact;
}

}  // namespace ocsp::analysis

#include "csp/program.h"

#include <sstream>

#include "util/check.h"

namespace ocsp::csp {

PredictorSpec PredictorSpec::always(Value v) {
  PredictorSpec spec;
  spec.kind = Kind::kConstant;
  spec.constant = std::move(v);
  return spec;
}

PredictorSpec PredictorSpec::from_expr(ExprPtr e) {
  OCSP_CHECK(e != nullptr);
  PredictorSpec spec;
  spec.kind = Kind::kExpr;
  spec.expr = std::move(e);
  return spec;
}

PredictorSpec PredictorSpec::last_committed(Value initial) {
  PredictorSpec spec;
  spec.kind = Kind::kLastCommitted;
  spec.constant = std::move(initial);
  return spec;
}

PredictorSpec PredictorSpec::strided(Value initial, std::int64_t stride) {
  PredictorSpec spec;
  spec.kind = Kind::kStride;
  spec.constant = std::move(initial);
  spec.stride = stride;
  return spec;
}

StmtPtr seq(std::vector<StmtPtr> body) {
  for (const auto& s : body) OCSP_CHECK(s != nullptr);
  return std::make_shared<SeqStmt>(std::move(body));
}

StmtPtr assign(std::string v, ExprPtr value) {
  OCSP_CHECK(value != nullptr);
  return std::make_shared<AssignStmt>(std::move(v), std::move(value));
}

StmtPtr if_(ExprPtr cond, StmtPtr then_branch, StmtPtr else_branch) {
  OCSP_CHECK(cond != nullptr);
  OCSP_CHECK(then_branch != nullptr);
  return std::make_shared<IfStmt>(std::move(cond), std::move(then_branch),
                                  std::move(else_branch));
}

StmtPtr while_(ExprPtr cond, StmtPtr body) {
  OCSP_CHECK(cond != nullptr);
  OCSP_CHECK(body != nullptr);
  return std::make_shared<WhileStmt>(std::move(cond), std::move(body));
}

StmtPtr call(std::string target, std::string op, std::vector<ExprPtr> args,
             std::string result_var) {
  return std::make_shared<CallStmt>(std::move(target), std::move(op),
                                    std::move(args), std::move(result_var));
}

StmtPtr send(std::string target, std::string op, std::vector<ExprPtr> args) {
  return std::make_shared<SendStmt>(std::move(target), std::move(op),
                                    std::move(args));
}

StmtPtr call_dyn(ExprPtr target, std::string op, std::vector<ExprPtr> args,
                 std::string result_var) {
  OCSP_CHECK(target != nullptr);
  auto s = std::make_shared<CallStmt>(std::string(), std::move(op),
                                      std::move(args), std::move(result_var));
  s->target_expr = std::move(target);
  return s;
}

StmtPtr send_dyn(ExprPtr target, std::string op, std::vector<ExprPtr> args) {
  OCSP_CHECK(target != nullptr);
  auto s = std::make_shared<SendStmt>(std::string(), std::move(op),
                                      std::move(args));
  s->target_expr = std::move(target);
  return s;
}

StmtPtr receive() { return std::make_shared<ReceiveStmt>(); }

StmtPtr reply(ExprPtr value) {
  OCSP_CHECK(value != nullptr);
  return std::make_shared<ReplyStmt>(std::move(value));
}

StmtPtr print(ExprPtr value) {
  OCSP_CHECK(value != nullptr);
  return std::make_shared<PrintStmt>(std::move(value));
}

StmtPtr compute(sim::Time duration) {
  OCSP_CHECK(duration >= 0);
  return std::make_shared<ComputeStmt>(duration);
}

StmtPtr native(std::string label, NativeStmt::Fn fn) {
  OCSP_CHECK(fn != nullptr);
  return std::make_shared<NativeStmt>(std::move(label), std::move(fn));
}

StmtPtr nop() { return std::make_shared<NopStmt>(); }

StmtPtr hint(std::map<std::string, PredictorSpec> predictors, std::string site,
             std::size_t span, sim::Time timeout) {
  auto h = std::make_shared<HintStmt>();
  h->predictors = std::move(predictors);
  h->site = std::move(site);
  h->span = span;
  h->timeout = timeout;
  return h;
}

std::shared_ptr<const ForkStmt> fork(StmtPtr left, StmtPtr right,
                                     std::vector<std::string> passed,
                                     std::map<std::string, PredictorSpec> preds,
                                     std::string site, sim::Time timeout,
                                     bool needs_copy, ForkMode mode) {
  OCSP_CHECK(left != nullptr);
  OCSP_CHECK(right != nullptr);
  for (const auto& v : passed) {
    OCSP_CHECK_MSG(preds.count(v) > 0, "missing predictor for passed var");
  }
  if (mode == ForkMode::kSafe) {
    OCSP_CHECK_MSG(passed.empty() && preds.empty() && !needs_copy,
                   "safe fork must have no passed set and no state copy");
  }
  auto f = std::make_shared<ForkStmt>();
  f->left = std::move(left);
  f->right = std::move(right);
  f->mode = mode;
  f->passed = std::move(passed);
  f->predictors = std::move(preds);
  f->site = std::move(site);
  f->timeout = timeout;
  f->needs_copy = needs_copy;
  return f;
}

namespace {

void render(const StmtPtr& stmt, int depth, std::ostringstream& out) {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  if (!stmt) {
    out << pad << "<null>\n";
    return;
  }
  switch (stmt->kind) {
    case StmtKind::kSeq: {
      const auto& s = static_cast<const SeqStmt&>(*stmt);
      out << pad << "seq {\n";
      for (const auto& child : s.body) render(child, depth + 1, out);
      out << pad << "}\n";
      break;
    }
    case StmtKind::kAssign: {
      const auto& s = static_cast<const AssignStmt&>(*stmt);
      out << pad << s.variable << " = " << s.value->to_string() << "\n";
      break;
    }
    case StmtKind::kIf: {
      const auto& s = static_cast<const IfStmt&>(*stmt);
      out << pad << "if " << s.cond->to_string() << " {\n";
      render(s.then_branch, depth + 1, out);
      if (s.else_branch) {
        out << pad << "} else {\n";
        render(s.else_branch, depth + 1, out);
      }
      out << pad << "}\n";
      break;
    }
    case StmtKind::kWhile: {
      const auto& s = static_cast<const WhileStmt&>(*stmt);
      out << pad << "while " << s.cond->to_string() << " {\n";
      render(s.body, depth + 1, out);
      out << pad << "}\n";
      break;
    }
    case StmtKind::kCall: {
      const auto& s = static_cast<const CallStmt&>(*stmt);
      out << pad << s.result_var << " = call "
          << (s.target_expr
                  ? std::string("[") + s.target_expr->to_string() + "]"
                  : s.target)
          << "." << s.op << "(";
      for (std::size_t i = 0; i < s.args.size(); ++i) {
        if (i) out << ", ";
        out << s.args[i]->to_string();
      }
      out << ")\n";
      break;
    }
    case StmtKind::kSend: {
      const auto& s = static_cast<const SendStmt&>(*stmt);
      out << pad << "send "
          << (s.target_expr
                  ? std::string("[") + s.target_expr->to_string() + "]"
                  : s.target)
          << "." << s.op << "(";
      for (std::size_t i = 0; i < s.args.size(); ++i) {
        if (i) out << ", ";
        out << s.args[i]->to_string();
      }
      out << ")\n";
      break;
    }
    case StmtKind::kReceive:
      out << pad << "receive\n";
      break;
    case StmtKind::kReply: {
      const auto& s = static_cast<const ReplyStmt&>(*stmt);
      out << pad << "reply " << s.value->to_string() << "\n";
      break;
    }
    case StmtKind::kPrint: {
      const auto& s = static_cast<const PrintStmt&>(*stmt);
      out << pad << "print " << s.value->to_string() << "\n";
      break;
    }
    case StmtKind::kCompute: {
      const auto& s = static_cast<const ComputeStmt&>(*stmt);
      out << pad << "compute " << s.duration << "ns\n";
      break;
    }
    case StmtKind::kNative: {
      const auto& s = static_cast<const NativeStmt&>(*stmt);
      out << pad << "native <" << s.label << ">\n";
      break;
    }
    case StmtKind::kFork: {
      const auto& s = static_cast<const ForkStmt&>(*stmt);
      out << pad << "fork site=" << s.site << " passed=[";
      for (std::size_t i = 0; i < s.passed.size(); ++i) {
        if (i) out << ", ";
        out << s.passed[i];
      }
      out << "] copy=" << (s.needs_copy ? "yes" : "no")
          << (s.mode == ForkMode::kSafe ? " mode=safe" : "") << " {\n";
      out << pad << " left:\n";
      render(s.left, depth + 1, out);
      out << pad << " right:\n";
      render(s.right, depth + 1, out);
      out << pad << "}\n";
      break;
    }
    case StmtKind::kHint: {
      const auto& s = static_cast<const HintStmt&>(*stmt);
      out << pad << "@parallelize span=" << s.span << " site=" << s.site
          << "\n";
      break;
    }
    case StmtKind::kNop:
      out << pad << "nop\n";
      break;
  }
}

}  // namespace

std::string to_string(const StmtPtr& stmt) {
  std::ostringstream out;
  render(stmt, 0, out);
  return out.str();
}

}  // namespace ocsp::csp

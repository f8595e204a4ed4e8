#include "csp/expr.h"

#include "util/check.h"

namespace ocsp::csp {

UnaryExpr::UnaryExpr(UnaryOp op, ExprPtr operand)
    : op_(op), operand_(std::move(operand)) {
  OCSP_CHECK(operand_ != nullptr);
}

Value UnaryExpr::eval(const Env& env) const {
  Value v = operand_->eval(env);
  switch (op_) {
    case UnaryOp::kNot:
      return Value(!v.truthy());
    case UnaryOp::kNeg:
      if (v.type() == Value::Type::kInt) return Value(-v.as_int());
      return Value(-v.as_real());
  }
  return Value();
}

void UnaryExpr::collect_reads(std::set<std::string>& out) const {
  operand_->collect_reads(out);
}

std::string UnaryExpr::to_string() const {
  return std::string(op_ == UnaryOp::kNot ? "!" : "-") + "(" +
         operand_->to_string() + ")";
}

BinaryExpr::BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
    : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {
  OCSP_CHECK(lhs_ != nullptr);
  OCSP_CHECK(rhs_ != nullptr);
}

Value BinaryExpr::eval(const Env& env) const {
  // Short-circuit logical operators.
  if (op_ == BinaryOp::kAnd) {
    Value a = lhs_->eval(env);
    if (!a.truthy()) return Value(false);
    return Value(rhs_->eval(env).truthy());
  }
  if (op_ == BinaryOp::kOr) {
    Value a = lhs_->eval(env);
    if (a.truthy()) return Value(true);
    return Value(rhs_->eval(env).truthy());
  }
  Value a = lhs_->eval(env);
  Value b = rhs_->eval(env);
  switch (op_) {
    case BinaryOp::kAdd:
      return value_add(a, b);
    case BinaryOp::kSub:
      return value_sub(a, b);
    case BinaryOp::kMul:
      return value_mul(a, b);
    case BinaryOp::kDiv:
      return value_div(a, b);
    case BinaryOp::kMod:
      return value_mod(a, b);
    case BinaryOp::kEq:
      return Value(a == b);
    case BinaryOp::kNe:
      return Value(!(a == b));
    case BinaryOp::kLt:
      return Value(Value::compare(a, b) < 0);
    case BinaryOp::kLe:
      return Value(Value::compare(a, b) <= 0);
    case BinaryOp::kGt:
      return Value(Value::compare(a, b) > 0);
    case BinaryOp::kGe:
      return Value(Value::compare(a, b) >= 0);
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      break;  // handled above
  }
  return Value();
}

void BinaryExpr::collect_reads(std::set<std::string>& out) const {
  lhs_->collect_reads(out);
  rhs_->collect_reads(out);
}

std::string BinaryExpr::to_string() const {
  const char* op = "?";
  switch (op_) {
    case BinaryOp::kAdd: op = "+"; break;
    case BinaryOp::kSub: op = "-"; break;
    case BinaryOp::kMul: op = "*"; break;
    case BinaryOp::kDiv: op = "/"; break;
    case BinaryOp::kMod: op = "%"; break;
    case BinaryOp::kEq: op = "=="; break;
    case BinaryOp::kNe: op = "!="; break;
    case BinaryOp::kLt: op = "<"; break;
    case BinaryOp::kLe: op = "<="; break;
    case BinaryOp::kGt: op = ">"; break;
    case BinaryOp::kGe: op = ">="; break;
    case BinaryOp::kAnd: op = "&&"; break;
    case BinaryOp::kOr: op = "||"; break;
  }
  std::string out = "(";
  out += lhs_->to_string();
  out += ' ';
  out += op;
  out += ' ';
  out += rhs_->to_string();
  out += ')';
  return out;
}

IndexExpr::IndexExpr(ExprPtr list, ExprPtr index)
    : list_(std::move(list)), index_(std::move(index)) {
  OCSP_CHECK(list_ != nullptr);
  OCSP_CHECK(index_ != nullptr);
}

Value IndexExpr::eval(const Env& env) const {
  const Value list = list_->eval(env);
  const Value idx = index_->eval(env);
  const auto& items = list.as_list();
  const auto i = idx.as_int();
  OCSP_CHECK_MSG(i >= 0 && static_cast<std::size_t>(i) < items.size(),
                 "list index out of range");
  return items[static_cast<std::size_t>(i)];
}

void IndexExpr::collect_reads(std::set<std::string>& out) const {
  list_->collect_reads(out);
  index_->collect_reads(out);
}

std::string IndexExpr::to_string() const {
  return list_->to_string() + "[" + index_->to_string() + "]";
}

ListExpr::ListExpr(std::vector<ExprPtr> items) : items_(std::move(items)) {
  for (const auto& e : items_) OCSP_CHECK(e != nullptr);
}

Value ListExpr::eval(const Env& env) const {
  ValueList out;
  out.reserve(items_.size());
  for (const auto& e : items_) out.push_back(e->eval(env));
  return Value(std::move(out));
}

void ListExpr::collect_reads(std::set<std::string>& out) const {
  for (const auto& e : items_) e->collect_reads(out);
}

std::string ListExpr::to_string() const {
  std::string out = "[";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i) out += ", ";
    out += items_[i]->to_string();
  }
  return out + "]";
}

ExprPtr lit(Value v) { return std::make_shared<ConstExpr>(std::move(v)); }
ExprPtr var(std::string name) {
  return std::make_shared<VarExpr>(std::move(name));
}
ExprPtr not_(ExprPtr e) {
  return std::make_shared<UnaryExpr>(UnaryOp::kNot, std::move(e));
}
ExprPtr neg(ExprPtr e) {
  return std::make_shared<UnaryExpr>(UnaryOp::kNeg, std::move(e));
}

namespace {
ExprPtr bin(BinaryOp op, ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(op, std::move(a), std::move(b));
}
}  // namespace

ExprPtr add(ExprPtr a, ExprPtr b) { return bin(BinaryOp::kAdd, a, b); }
ExprPtr sub(ExprPtr a, ExprPtr b) { return bin(BinaryOp::kSub, a, b); }
ExprPtr mul(ExprPtr a, ExprPtr b) { return bin(BinaryOp::kMul, a, b); }
ExprPtr div_(ExprPtr a, ExprPtr b) { return bin(BinaryOp::kDiv, a, b); }
ExprPtr mod(ExprPtr a, ExprPtr b) { return bin(BinaryOp::kMod, a, b); }
ExprPtr eq(ExprPtr a, ExprPtr b) { return bin(BinaryOp::kEq, a, b); }
ExprPtr ne(ExprPtr a, ExprPtr b) { return bin(BinaryOp::kNe, a, b); }
ExprPtr lt(ExprPtr a, ExprPtr b) { return bin(BinaryOp::kLt, a, b); }
ExprPtr le(ExprPtr a, ExprPtr b) { return bin(BinaryOp::kLe, a, b); }
ExprPtr gt(ExprPtr a, ExprPtr b) { return bin(BinaryOp::kGt, a, b); }
ExprPtr ge(ExprPtr a, ExprPtr b) { return bin(BinaryOp::kGe, a, b); }
ExprPtr and_(ExprPtr a, ExprPtr b) { return bin(BinaryOp::kAnd, a, b); }
ExprPtr or_(ExprPtr a, ExprPtr b) { return bin(BinaryOp::kOr, a, b); }
ExprPtr index(ExprPtr list, ExprPtr i) {
  return std::make_shared<IndexExpr>(std::move(list), std::move(i));
}
ExprPtr list_of(std::vector<ExprPtr> items) {
  return std::make_shared<ListExpr>(std::move(items));
}

ExprPtr arg(int i) { return index(var("__args"), lit(Value(i))); }

}  // namespace ocsp::csp

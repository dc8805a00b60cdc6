#include "sql/ast.hpp"

#include "util/strings.hpp"

namespace scidock::sql {

ExprPtr Expr::make_literal(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Literal;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::make_column(std::string qualifier, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Column;
  e->qualifier = std::move(qualifier);
  e->column = std::move(column);
  return e;
}

ExprPtr Expr::make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Binary;
  e->binary_op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

ExprPtr Expr::make_unary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Unary;
  e->unary_op = op;
  e->lhs = std::move(operand);
  return e;
}

ExprPtr Expr::make_call(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Call;
  e->call_name = to_lower(name);
  e->args = std::move(args);
  return e;
}

ExprPtr Expr::make_star() {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Star;
  return e;
}

ExprPtr Expr::make_in(ExprPtr probe, std::vector<ExprPtr> list, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::In;
  e->lhs = std::move(probe);
  e->args = std::move(list);
  e->negated = negated;
  return e;
}

ExprPtr Expr::make_between(ExprPtr value, ExprPtr lo, ExprPtr hi, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Between;
  e->lhs = std::move(value);
  e->args.push_back(std::move(lo));
  e->args.push_back(std::move(hi));
  e->negated = negated;
  return e;
}

namespace {
const char* binary_op_text(BinaryOp op) {
  switch (op) {
    case BinaryOp::Add: return "+";
    case BinaryOp::Sub: return "-";
    case BinaryOp::Mul: return "*";
    case BinaryOp::Div: return "/";
    case BinaryOp::Mod: return "%";
    case BinaryOp::Eq: return "=";
    case BinaryOp::Ne: return "<>";
    case BinaryOp::Lt: return "<";
    case BinaryOp::Le: return "<=";
    case BinaryOp::Gt: return ">";
    case BinaryOp::Ge: return ">=";
    case BinaryOp::And: return "AND";
    case BinaryOp::Or: return "OR";
    case BinaryOp::Like: return "LIKE";
    case BinaryOp::Concat: return "||";
  }
  return "?";
}
}  // namespace

std::string Expr::to_string() const {
  switch (kind) {
    case Kind::Literal:
      return literal.is_string() ? "'" + literal.to_string() + "'" : literal.to_string();
    case Kind::Column:
      return qualifier.empty() ? column : qualifier + "." + column;
    case Kind::Binary:
      return "(" + lhs->to_string() + " " + binary_op_text(binary_op) + " " +
             rhs->to_string() + ")";
    case Kind::Unary:
      switch (unary_op) {
        case UnaryOp::Neg: return "(-" + lhs->to_string() + ")";
        case UnaryOp::Not: return "(NOT " + lhs->to_string() + ")";
        case UnaryOp::IsNull: return "(" + lhs->to_string() + " IS NULL)";
        case UnaryOp::IsNotNull: return "(" + lhs->to_string() + " IS NOT NULL)";
      }
      return "?";
    case Kind::Call: {
      std::string out = call_name + "(";
      if (star_arg) out += "*";
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->to_string();
      }
      return out + ")";
    }
    case Kind::Star:
      return "*";
    case Kind::In: {
      std::string out = lhs->to_string() + (negated ? " NOT IN (" : " IN (");
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->to_string();
      }
      return out + ")";
    }
    case Kind::Between:
      return lhs->to_string() + (negated ? " NOT BETWEEN " : " BETWEEN ") +
             args[0]->to_string() + " AND " + args[1]->to_string();
  }
  return "?";
}

}  // namespace scidock::sql

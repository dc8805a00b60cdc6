#pragma once

/// \file ast.hpp
/// SQL abstract syntax: expressions and the four supported statements
/// (SELECT, CREATE TABLE, INSERT, DELETE).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sql/value.hpp"

namespace scidock::sql {

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

enum class BinaryOp {
  Add, Sub, Mul, Div, Mod,
  Eq, Ne, Lt, Le, Gt, Ge,
  And, Or,
  Like, Concat,
};

enum class UnaryOp { Neg, Not, IsNull, IsNotNull };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;
struct Function;  // sql/binder.hpp

struct Expr {
  enum class Kind { Literal, Column, Binary, Unary, Call, Star, In, Between } kind;

  // Literal
  Value literal;

  // Column reference: optional qualifier ("t" in t.endtime).
  std::string qualifier;
  std::string column;

  // Binary / Unary
  BinaryOp binary_op = BinaryOp::Add;
  UnaryOp unary_op = UnaryOp::Neg;
  ExprPtr lhs;
  ExprPtr rhs;

  // Function call: name lower-cased; count(*) has `star_arg`.
  // For Kind::In, `args` holds the list and `lhs` the probe; for
  // Kind::Between, lhs/args[0]/args[1] are value/low/high.
  std::string call_name;
  std::vector<ExprPtr> args;
  bool star_arg = false;
  bool negated = false;  ///< NOT IN / NOT BETWEEN

  // Set by the binder (sql/binder.hpp) before execution.
  int binding = -1;  ///< Column: index of its FROM entry
  int slot = -1;     ///< Column: index among that table's columns
  const Function* function = nullptr;  ///< Call: its function-table entry

  static ExprPtr make_literal(Value v);
  static ExprPtr make_column(std::string qualifier, std::string column);
  static ExprPtr make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr make_unary(UnaryOp op, ExprPtr operand);
  static ExprPtr make_call(std::string name, std::vector<ExprPtr> args);
  static ExprPtr make_star();
  static ExprPtr make_in(ExprPtr probe, std::vector<ExprPtr> list, bool negated);
  static ExprPtr make_between(ExprPtr value, ExprPtr lo, ExprPtr hi, bool negated);

  /// Render back to SQL-ish text (diagnostics, result column headers).
  std::string to_string() const;
};

// ---------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------

struct SelectItem {
  ExprPtr expr;
  std::string alias;  ///< empty = derive from expression
};

struct TableRef {
  std::string table;
  std::string alias;  ///< empty = table name itself
};

struct OrderItem {
  ExprPtr expr;
  bool descending = false;
};

struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;   ///< empty + star_all for SELECT *
  bool star_all = false;
  std::vector<TableRef> from;
  ExprPtr where;                   ///< null = no predicate
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderItem> order_by;
  std::optional<std::size_t> limit;
};

struct CreateTableStmt {
  std::string table;
  std::vector<std::string> columns;  ///< declared types are parsed & ignored
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;  ///< empty = positional
  std::vector<std::vector<ExprPtr>> rows;
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;  ///< null = delete all
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;  ///< null = update every row
};

struct Statement {
  enum class Kind { Select, CreateTable, Insert, Delete, Update } kind;
  SelectStmt select;
  CreateTableStmt create;
  InsertStmt insert;
  DeleteStmt del;
  UpdateStmt update;
};

}  // namespace scidock::sql

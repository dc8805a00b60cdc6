#include "sql/binder.hpp"

#include <set>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::sql {

namespace {

constexpr std::size_t kVariadic = static_cast<std::size_t>(-1);

constexpr Function kFunctions[] = {
    {"extract", FunctionId::Extract, 2, 2, Type::Real, false, 0b10},
    {"abs", FunctionId::Abs, 1, 1, Type::Any, false, 0b1},
    {"round", FunctionId::Round, 1, 2, Type::Real, false, 0b11},
    {"floor", FunctionId::Floor, 1, 1, Type::Real, false, 0b1},
    {"ceil", FunctionId::Ceil, 1, 1, Type::Real, false, 0b1},
    {"ceiling", FunctionId::Ceil, 1, 1, Type::Real, false, 0b1},
    {"length", FunctionId::Length, 1, 1, Type::Int, false, 0},
    {"upper", FunctionId::Upper, 1, 1, Type::Text, false, 0},
    {"lower", FunctionId::Lower, 1, 1, Type::Text, false, 0},
    {"coalesce", FunctionId::Coalesce, 1, kVariadic, Type::Any, false, 0},
    {"substr", FunctionId::Substr, 2, 3, Type::Text, false, 0b110},
    {"substring", FunctionId::Substr, 2, 3, Type::Text, false, 0b110},
    {"min", FunctionId::Min, 1, 1, Type::Any, true, 0},
    {"max", FunctionId::Max, 1, 1, Type::Any, true, 0},
    {"sum", FunctionId::Sum, 1, 1, Type::Real, true, 0b1},
    {"avg", FunctionId::Avg, 1, 1, Type::Real, true, 0b1},
    {"count", FunctionId::Count, 1, 1, Type::Int, true, 0},
};

/// The function named `name` (lower case, as the parser stores calls), or
/// nullptr.
const Function* find_function(std::string_view name) {
  for (const Function& f : kFunctions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

/// A call's type, given its arguments' common type (Any if they differ).
Type result_of(const Function& f, Type common) {
  if (f.result != Type::Any) return f.result;
  if ((f.numeric_args & 1) != 0 && common != Type::Int) return Type::Real;
  return common;
}

bool numeric_ok(Type t) { return t != Type::Text; }
bool is_number(Type t) { return t == Type::Int || t == Type::Real; }

std::string display_name(const Expr& column) {
  return (column.qualifier.empty() ? "" : column.qualifier + ".") +
         column.column;
}

/// An identifier inside `e` to place a finding by.
std::string first_identifier(const Expr& e) {
  if (e.kind == Expr::Kind::Column) return e.column;
  if (e.kind == Expr::Kind::Call && !e.call_name.empty()) return e.call_name;
  if (e.lhs) {
    std::string l = first_identifier(*e.lhs);
    if (!l.empty()) return l;
  }
  if (e.rhs) {
    std::string r = first_identifier(*e.rhs);
    if (!r.empty()) return r;
  }
  for (const ExprPtr& a : e.args) {
    std::string s = first_identifier(*a);
    if (!s.empty()) return s;
  }
  return "";
}

class Binder {
 public:
  explicit Binder(const Database& db) : db_(db) {}

  Bound run(Statement& stmt) {
    switch (stmt.kind) {
      case Statement::Kind::Select:
        select(stmt.select);
        break;
      case Statement::Kind::Insert:
        insert(stmt.insert);
        break;
      case Statement::Kind::Delete:
        bind_table(stmt.del.table);
        if (stmt.del.where) infer(*stmt.del.where, /*agg_allowed=*/false);
        break;
      case Statement::Kind::Update:
        update(stmt.update);
        break;
      case Statement::Kind::CreateTable:
        break;  // creates a new table; nothing to resolve
    }
    return std::move(out_);
  }

 private:
  struct Binding {
    std::string alias;
    const Table* table = nullptr;
  };

  void error(std::string rule, std::string anchor, std::string message,
             std::string missing = "") {
    out_.findings.push_back(Finding{std::move(rule), std::move(anchor),
                                    std::move(message), std::move(missing)});
  }

  const Table* find_table(const std::string& name) {
    if (db_.has_table(name)) return &db_.table(name);
    error("SQL002", name, "unknown table '" + name + "'", name);
    permissive_ = true;  // columns cannot resolve; avoid cascades
    return nullptr;
  }

  void bind_table(const std::string& name) {
    const Table* table = find_table(name);
    if (table != nullptr) bindings_.push_back(Binding{name, table});
  }

  struct Slot {
    int binding = -1;
    int slot = -1;
    bool ambiguous = false;
  };

  /// The first FROM entry and column a reference names; an ambiguous one
  /// keeps its first match, so GROUP BY matching sees one identity.
  Slot lookup(const Expr& e) const {
    Slot out;
    for (std::size_t t = 0; t < bindings_.size(); ++t) {
      if (!e.qualifier.empty() && !iequals(bindings_[t].alias, e.qualifier)) {
        continue;
      }
      const int ci = bindings_[t].table->column_index(e.column);
      if (ci < 0) continue;
      if (out.binding >= 0) {
        out.ambiguous = true;
        break;
      }
      out.binding = static_cast<int>(t);
      out.slot = ci;
    }
    return out;
  }

  /// Resolves a column reference into e.binding / e.slot.
  Type column(Expr& e) {
    e.binding = -1;
    e.slot = -1;
    if (permissive_) return Type::Any;
    const Slot s = lookup(e);
    e.binding = s.binding;
    e.slot = s.slot;
    const std::string display = display_name(e);
    if (s.ambiguous) {
      error("SQL003", e.column, "ambiguous column reference '" + display + "'");
      return Type::Any;
    }
    if (s.binding < 0) {
      error("SQL003", e.column, "unknown column '" + display + "'", display);
      return Type::Any;
    }
    return bindings_[static_cast<std::size_t>(s.binding)]
        .table->columns()[static_cast<std::size_t>(s.slot)]
        .type;
  }

  void require_numeric(Type t, const Expr& e, const std::string& what) {
    if (!numeric_ok(t)) {
      error("SQL007", first_identifier(e),
            what + " requires a number, got text (" + e.to_string() + ")");
    }
  }

  void check_comparable(Type l, Type r, const Expr& e) {
    if ((l == Type::Text && is_number(r)) || (r == Type::Text && is_number(l))) {
      error("SQL007", first_identifier(e),
            "comparing " + std::string(to_string(l)) + " with " +
                std::string(to_string(r)) + " (" + e.to_string() + ")");
    }
  }

  Type call(Expr& e, bool agg_allowed) {
    const std::string& fn = e.call_name;
    e.function = find_function(fn);
    if (e.function == nullptr) {
      error("SQL004", fn, "unknown SQL function '" + fn + "'", fn);
      for (const ExprPtr& a : e.args) infer(*a, /*agg_allowed=*/false);
      return Type::Any;
    }
    const Function& f = *e.function;
    if (f.aggregate) {
      if (!agg_allowed) {
        error("SQL005", fn,
              "aggregate " + fn + "() not allowed here (only in the select "
                  "list, HAVING or ORDER BY of a grouped query, and never "
                  "nested)");
      }
      if (e.star_arg) {
        if (f.id != FunctionId::Count) {
          error("SQL005", fn, fn + "(*) is invalid; only count(*) takes *");
          return Type::Any;
        }
        return Type::Int;
      }
      if (e.args.size() != 1) {
        error("SQL005", fn,
              "aggregate " + fn + "() takes exactly one argument, got " +
                  std::to_string(e.args.size()));
        return Type::Any;
      }
    } else if (e.args.size() < f.min_args || e.args.size() > f.max_args) {
      std::string arity = std::to_string(f.min_args);
      if (f.max_args == kVariadic) {
        arity += " or more";
      } else if (f.max_args != f.min_args) {
        arity += ".." + std::to_string(f.max_args);
      }
      error("SQL004", fn,
            fn + "() takes " + arity + " argument(s), got " +
                std::to_string(e.args.size()));
      return result_of(f, Type::Any);
    }
    if (f.id == FunctionId::Extract) {
      const Expr& field = *e.args[0];
      if (field.kind == Expr::Kind::Literal && field.literal.is_string()) {
        const std::string name = to_lower(field.literal.as_string());
        if (name != "epoch" && name != "minute" && name != "hour" &&
            name != "day") {
          error("SQL004", fn,
                "unsupported EXTRACT field '" + name +
                    "' (expected epoch, minute, hour or day)");
        }
      }
    }
    Type common = Type::Any;
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      const Type t = infer(*e.args[i], /*agg_allowed=*/false);  // no nesting
      if ((f.numeric_args >> i & 1) != 0) require_numeric(t, *e.args[i], fn + "()");
      common = i == 0 || t == common ? t : Type::Any;
    }
    return result_of(f, common);
  }

  Type binary(Expr& e, bool agg_allowed) {
    const Type l = infer(*e.lhs, agg_allowed);
    const Type r = infer(*e.rhs, agg_allowed);
    switch (e.binary_op) {
      case BinaryOp::Add:
      case BinaryOp::Sub:
      case BinaryOp::Mul:
      case BinaryOp::Div:
      case BinaryOp::Mod:
        require_numeric(l, *e.lhs, "arithmetic");
        require_numeric(r, *e.rhs, "arithmetic");
        if (l == Type::Any || r == Type::Any) return Type::Any;
        if (l == Type::Int && r == Type::Int && e.binary_op != BinaryOp::Div) {
          return Type::Int;
        }
        return Type::Real;
      case BinaryOp::Eq:
      case BinaryOp::Ne:
      case BinaryOp::Lt:
      case BinaryOp::Le:
      case BinaryOp::Gt:
      case BinaryOp::Ge:
        check_comparable(l, r, e);
        return Type::Int;
      case BinaryOp::Like:
        if (is_number(r)) {
          error("SQL007", first_identifier(e),
                "LIKE pattern must be text (" + e.to_string() + ")");
        }
        return Type::Int;
      case BinaryOp::And:
      case BinaryOp::Or:
        return Type::Int;
      case BinaryOp::Concat:
        return Type::Text;
    }
    return Type::Any;
  }

  /// Resolves `e` and infers its type; Any where unknown (stops cascades).
  Type infer(Expr& e, bool agg_allowed) {
    switch (e.kind) {
      case Expr::Kind::Literal:
        if (e.literal.is_null()) return Type::Any;
        if (e.literal.is_int()) return Type::Int;
        if (e.literal.is_double()) return Type::Real;
        return Type::Text;
      case Expr::Kind::Column:
        return column(e);
      case Expr::Kind::Binary:
        return binary(e, agg_allowed);
      case Expr::Kind::Unary: {
        const Type t = infer(*e.lhs, agg_allowed);
        if (e.unary_op == UnaryOp::Neg) {
          require_numeric(t, *e.lhs, "unary minus");
          return t == Type::Int ? Type::Int : Type::Real;
        }
        return Type::Int;  // NOT / IS NULL / IS NOT NULL
      }
      case Expr::Kind::Call:
        return call(e, agg_allowed);
      case Expr::Kind::In:
      case Expr::Kind::Between: {
        const Type probe = infer(*e.lhs, agg_allowed);
        for (const ExprPtr& a : e.args) {
          check_comparable(probe, infer(*a, agg_allowed), e);
        }
        return Type::Int;
      }
      case Expr::Kind::Star:
        return Type::Any;
    }
    return Type::Any;
  }

  /// GROUP BY matching: a resolvable column compares by its slot (so
  /// `tag` matches `a.tag`), anything else by its lower-cased rendering.
  std::string canonical(const Expr& e) const {
    if (e.kind == Expr::Kind::Column) {
      const Slot s = lookup(e);
      if (s.binding >= 0) {
        return "#" + std::to_string(s.binding) + "." + std::to_string(s.slot);
      }
    }
    return to_lower(e.to_string());
  }

  /// SQL006: every column outside an aggregate must be (part of) a GROUP
  /// BY expression; the engine evaluates violators on the group's first
  /// row, which is exactly the bug class this rule catches.
  void check_grouped(const Expr& e, const std::set<std::string>& group_keys,
                     const std::string& where) {
    if (group_keys.count(canonical(e)) > 0) return;
    if (is_aggregate(e)) return;  // aggregates range over the whole group
    if (e.kind == Expr::Kind::Column) {
      error("SQL006", e.column,
            "column '" + display_name(e) + "' in " + where +
                " is neither grouped nor inside an aggregate");
      return;
    }
    if (e.lhs) check_grouped(*e.lhs, group_keys, where);
    if (e.rhs) check_grouped(*e.rhs, group_keys, where);
    for (const ExprPtr& a : e.args) check_grouped(*a, group_keys, where);
  }

  void select(SelectStmt& stmt) {
    for (const TableRef& ref : stmt.from) {
      const Table* table = find_table(ref.table);
      if (table == nullptr) continue;
      bindings_.push_back(
          Binding{ref.alias.empty() ? ref.table : ref.alias, table});
      out_.tables.push_back(table);
    }

    if (stmt.where) infer(*stmt.where, /*agg_allowed=*/false);
    for (ExprPtr& g : stmt.group_by) infer(*g, /*agg_allowed=*/false);

    bool has_aggregate = false;
    for (SelectItem& item : stmt.items) {
      infer(*item.expr, /*agg_allowed=*/true);
      if (contains_aggregate(*item.expr)) has_aggregate = true;
    }
    // Groupedness follows from the select list only.
    out_.grouped = has_aggregate || !stmt.group_by.empty();

    if (stmt.having) infer(*stmt.having, /*agg_allowed=*/out_.grouped);

    // ORDER BY may name a select-list alias (PostgreSQL semantics): such a
    // bare column means the aliased expression, already resolved above.
    for (OrderItem& o : stmt.order_by) {
      const Expr* key = o.expr.get();
      if (key->kind == Expr::Kind::Column && key->qualifier.empty()) {
        for (const SelectItem& item : stmt.items) {
          if (!item.alias.empty() && iequals(item.alias, key->column)) {
            key = item.expr.get();
            break;
          }
        }
      }
      if (key == o.expr.get()) infer(*o.expr, /*agg_allowed=*/out_.grouped);
      out_.order_by.push_back(key);
    }

    if (out_.grouped && !permissive_) {
      std::set<std::string> group_keys;
      for (const ExprPtr& g : stmt.group_by) group_keys.insert(canonical(*g));
      for (const SelectItem& item : stmt.items) {
        check_grouped(*item.expr, group_keys, "the select list");
      }
      if (stmt.having) check_grouped(*stmt.having, group_keys, "HAVING");
      for (const Expr* key : out_.order_by) {
        check_grouped(*key, group_keys, "ORDER BY");
      }
    }
  }

  /// Resolves a write's target column into out_.targets (SQL003 if absent).
  void target(const Table& table, const std::string& col) {
    const int ci = table.column_index(col);
    if (ci < 0) {
      error("SQL003", col,
            "unknown column '" + col + "' in table '" + table.name() + "'",
            col);
      return;
    }
    out_.targets.push_back(static_cast<std::size_t>(ci));
  }

  void insert(InsertStmt& stmt) {
    const Table* table = find_table(stmt.table);
    if (table == nullptr) return;
    for (const std::string& col : stmt.columns) target(*table, col);
    // VALUES rows see no table: a column reference there is unknown.
    for (auto& row : stmt.rows) {
      for (ExprPtr& v : row) infer(*v, /*agg_allowed=*/false);
    }
  }

  void update(UpdateStmt& stmt) {
    bind_table(stmt.table);
    for (auto& [col, value] : stmt.assignments) {
      if (!bindings_.empty()) target(*bindings_.front().table, col);
      infer(*value, /*agg_allowed=*/false);
    }
    if (stmt.where) infer(*stmt.where, /*agg_allowed=*/false);
  }

  const Database& db_;
  Bound out_;
  std::vector<Binding> bindings_;
  /// Set when a table is unknown: column references are unresolvable by
  /// construction, so SQL003 and SQL006 are suppressed to avoid cascades.
  bool permissive_ = false;
};

}  // namespace

bool is_aggregate(const Expr& e) {
  if (e.kind != Expr::Kind::Call) return false;
  const Function* f = find_function(e.call_name);
  return f != nullptr && f->aggregate;
}

bool contains_aggregate(const Expr& e) {
  if (is_aggregate(e)) return true;
  if (e.lhs && contains_aggregate(*e.lhs)) return true;
  if (e.rhs && contains_aggregate(*e.rhs)) return true;
  for (const ExprPtr& a : e.args) {
    if (contains_aggregate(*a)) return true;
  }
  return false;
}

void Bound::require_executable() const {
  for (const Finding& f : findings) {
    if (f.rule == "SQL006" || f.rule == "SQL007") continue;
    if (f.missing.empty()) throw InvalidStateError(f.message);
    throw NotFoundError(f.rule == "SQL002"   ? "table"
                        : f.rule == "SQL003" ? "column"
                                             : "SQL function",
                        f.missing);
  }
}

Bound bind(Statement& stmt, const Database& db) {
  return Binder(db).run(stmt);
}

}  // namespace scidock::sql

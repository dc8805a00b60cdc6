#include "sql/sharded.hpp"

#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "sql/parser.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::sql {

namespace {

bool is_aggregate_call(const Expr& e) {
  return e.kind == Expr::Kind::Call &&
         (e.call_name == "min" || e.call_name == "max" ||
          e.call_name == "sum" || e.call_name == "avg" ||
          e.call_name == "count");
}

/// Factories keyed by the textual form of the sub-expression they
/// replace: group keys map to their merge-table key column, aggregate
/// calls to their re-aggregation over the partial columns.
using Rewrites = std::map<std::string, std::function<ExprPtr()>>;

ExprPtr rewrite_expr(const Expr& e, const Rewrites& rewrites) {
  const auto it = rewrites.find(e.to_string());
  if (it != rewrites.end()) return it->second();
  ExprPtr out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->literal = e.literal;
  out->qualifier = e.qualifier;
  out->column = e.column;
  out->binary_op = e.binary_op;
  out->unary_op = e.unary_op;
  out->call_name = e.call_name;
  out->star_arg = e.star_arg;
  out->negated = e.negated;
  if (e.lhs) out->lhs = rewrite_expr(*e.lhs, rewrites);
  if (e.rhs) out->rhs = rewrite_expr(*e.rhs, rewrites);
  for (const ExprPtr& a : e.args) out->args.push_back(rewrite_expr(*a, rewrites));
  return out;
}

/// Distinct aggregate calls of an expression tree, keyed by text
/// (aggregates cannot nest, so recursion stops at a match).
void collect_aggregates(const Expr& e,
                        std::map<std::string, const Expr*>& out) {
  if (is_aggregate_call(e)) {
    out.emplace(e.to_string(), &e);
    return;
  }
  if (e.lhs) collect_aggregates(*e.lhs, out);
  if (e.rhs) collect_aggregates(*e.rhs, out);
  for (const ExprPtr& a : e.args) collect_aggregates(*a, out);
}

ExprPtr bare_column(std::string name) {
  return Expr::make_column("", std::move(name));
}

ExprPtr agg_over(std::string fn, std::string column) {
  std::vector<ExprPtr> args;
  args.push_back(bare_column(std::move(column)));
  return Expr::make_call(std::move(fn), std::move(args));
}

/// Shallow statement pieces shared by both merge plans.
void copy_from_where(const SelectStmt& stmt, SelectStmt& partial) {
  partial.from = stmt.from;
  if (stmt.where) partial.where = stmt.where->clone();
}

}  // namespace

ShardedEngine::ShardedEngine(std::vector<Database*> shards,
                             std::vector<std::string> replicated_tables)
    : shards_(std::move(shards)),
      replicated_tables_(std::move(replicated_tables)) {
  SCIDOCK_REQUIRE(!shards_.empty(), "ShardedEngine needs at least one shard");
}

bool ShardedEngine::replicated(const std::string& table) const {
  for (const std::string& t : replicated_tables_) {
    if (iequals(t, table)) return true;
  }
  return false;
}

ResultSet ShardedEngine::execute(std::string_view sql) {
  if (shards_.size() == 1) {
    Engine engine(*shards_[0]);
    return engine.execute(sql);
  }
  const Statement stmt = parse_statement(sql);
  SCIDOCK_REQUIRE(stmt.kind == Statement::Kind::Select,
                  "only SELECT is supported across provenance shards; "
                  "writes go through the recording API");
  return execute_select(stmt.select);
}

ResultSet ShardedEngine::execute_select(const SelectStmt& stmt) {
  SCIDOCK_REQUIRE(!stmt.from.empty(), "SELECT requires a FROM clause");
  if (shards_.size() == 1) {
    Engine engine(*shards_[0]);
    return engine.execute_select(stmt);
  }
  bool all_replicated = true;
  for (const TableRef& ref : stmt.from) {
    if (!replicated(ref.table)) all_replicated = false;
  }
  if (all_replicated) {
    // Dimension-only query: shard 0 holds the authoritative copy.
    Engine engine(*shards_[0]);
    return engine.execute_select(stmt);
  }

  bool has_aggregate = false;
  for (const SelectItem& item : stmt.items) {
    if (contains_aggregate(*item.expr)) has_aggregate = true;
  }
  if (has_aggregate || !stmt.group_by.empty()) return merge_grouped(stmt);
  return merge_scan(stmt);
}

ResultSet ShardedEngine::merge_scan(const SelectStmt& stmt) {
  // Per-shard statement: the projected expressions plus one hidden column
  // per ORDER BY key, full WHERE pushdown, no ordering/limit yet.
  SelectStmt partial;
  copy_from_where(stmt, partial);

  std::vector<std::string> names;  ///< final header, single-shard spelling
  if (stmt.star_all) {
    for (const TableRef& ref : stmt.from) {
      const Table& t = shards_[0]->table(ref.table);
      const std::string qualifier = ref.alias.empty() ? ref.table : ref.alias;
      for (const std::string& col : t.columns()) {
        partial.items.push_back({Expr::make_column(qualifier, col), ""});
        names.push_back(col);
      }
    }
  } else {
    for (const SelectItem& item : stmt.items) {
      partial.items.push_back({item.expr->clone(), item.alias});
      names.push_back(derive_select_column_name(item));
    }
  }
  const std::size_t width = names.size();

  std::vector<bool> descending;
  for (const OrderItem& o : stmt.order_by) {
    // Bare-column keys naming a select alias mean the aliased expression
    // (engine semantics); resolve before shipping to the shards.
    const Expr* resolved = o.expr.get();
    if (resolved->kind == Expr::Kind::Column && resolved->qualifier.empty()) {
      for (const SelectItem& item : stmt.items) {
        if (!item.alias.empty() && iequals(item.alias, resolved->column)) {
          resolved = item.expr.get();
          break;
        }
      }
    }
    partial.items.push_back(
        {resolved->clone(), strformat("__ord%zu", descending.size())});
    descending.push_back(o.descending);
  }

  Database merged;
  std::vector<std::string> columns;
  columns.reserve(width + descending.size());
  for (std::size_t i = 0; i < width + descending.size(); ++i) {
    columns.push_back(strformat("m%zu", i));
  }
  Table& table = merged.create_table("__rows", columns);
  for (Database* shard : shards_) {
    Engine engine(*shard);
    for (Row& row : engine.execute_select(partial).rows) {
      table.insert(std::move(row));
    }
  }

  SelectStmt final_stmt;
  final_stmt.distinct = stmt.distinct;
  final_stmt.from.push_back(TableRef{"__rows", ""});
  for (std::size_t i = 0; i < width; ++i) {
    final_stmt.items.push_back(
        {bare_column(strformat("m%zu", i)), strformat("__c%zu", i)});
  }
  for (std::size_t k = 0; k < descending.size(); ++k) {
    final_stmt.order_by.push_back(
        {bare_column(strformat("m%zu", width + k)), descending[k]});
  }
  final_stmt.limit = stmt.limit;

  Engine engine(merged);
  ResultSet rs = engine.execute_select(final_stmt);
  rs.columns = std::move(names);
  return rs;
}

ResultSet ShardedEngine::merge_grouped(const SelectStmt& stmt) {
  SCIDOCK_REQUIRE(!stmt.star_all, "SELECT * cannot be combined with GROUP BY");

  SelectStmt partial;
  copy_from_where(stmt, partial);
  Rewrites rewrites;
  std::vector<std::string> columns;  ///< merge-table schema

  // Group keys project through as k0..kM and group the partials too.
  for (std::size_t g = 0; g < stmt.group_by.size(); ++g) {
    const std::string name = strformat("k%zu", g);
    partial.items.push_back({stmt.group_by[g]->clone(), name});
    partial.group_by.push_back(stmt.group_by[g]->clone());
    columns.push_back(name);
    const auto key_column = [name]() { return bare_column(name); };
    rewrites[stmt.group_by[g]->to_string()] = key_column;
    if (stmt.group_by[g]->kind == Expr::Kind::Column &&
        !stmt.group_by[g]->qualifier.empty()) {
      // Tolerate the unqualified spelling of the same key.
      rewrites.emplace(stmt.group_by[g]->column, key_column);
    }
  }

  // Every distinct aggregate becomes one partial column (two for avg),
  // and its final form re-aggregates the partials.
  std::map<std::string, const Expr*> aggregates;
  for (const SelectItem& item : stmt.items) {
    collect_aggregates(*item.expr, aggregates);
  }
  if (stmt.having) collect_aggregates(*stmt.having, aggregates);
  for (const OrderItem& o : stmt.order_by) {
    collect_aggregates(*o.expr, aggregates);
  }
  std::size_t p = 0;
  for (const auto& [text, call] : aggregates) {
    if (call->call_name == "avg") {
      const std::string sum_col = strformat("p%zus", p);
      const std::string count_col = strformat("p%zuc", p);
      std::vector<ExprPtr> sum_args;
      sum_args.push_back(call->args[0]->clone());
      partial.items.push_back(
          {Expr::make_call("sum", std::move(sum_args)), sum_col});
      std::vector<ExprPtr> count_args;
      count_args.push_back(call->args[0]->clone());
      partial.items.push_back(
          {Expr::make_call("count", std::move(count_args)), count_col});
      columns.push_back(sum_col);
      columns.push_back(count_col);
      rewrites[text] = [sum_col, count_col]() {
        return Expr::make_binary(BinaryOp::Div, agg_over("sum", sum_col),
                                 agg_over("sum", count_col));
      };
    } else {
      const std::string col = strformat("p%zu", p);
      partial.items.push_back({call->clone(), col});
      columns.push_back(col);
      const std::string merge_fn =
          call->call_name == "count" ? "sum" : call->call_name;
      rewrites[text] = [merge_fn, col]() { return agg_over(merge_fn, col); };
    }
    ++p;
  }

  Database merged;
  Table& table = merged.create_table("__partials", columns);
  for (Database* shard : shards_) {
    Engine engine(*shard);
    for (Row& row : engine.execute_select(partial).rows) {
      table.insert(std::move(row));
    }
  }

  // Final statement: the original shape with group keys and aggregates
  // substituted; HAVING / ORDER BY / DISTINCT / LIMIT run on the merge.
  SelectStmt final_stmt;
  final_stmt.distinct = stmt.distinct;
  final_stmt.from.push_back(TableRef{"__partials", ""});
  for (const SelectItem& item : stmt.items) {
    final_stmt.items.push_back(
        {rewrite_expr(*item.expr, rewrites),
         item.alias.empty() ? derive_select_column_name(item) : item.alias});
  }
  for (std::size_t g = 0; g < stmt.group_by.size(); ++g) {
    final_stmt.group_by.push_back(bare_column(strformat("k%zu", g)));
  }
  if (stmt.having) final_stmt.having = rewrite_expr(*stmt.having, rewrites);
  for (const OrderItem& o : stmt.order_by) {
    final_stmt.order_by.push_back({rewrite_expr(*o.expr, rewrites), o.descending});
  }
  final_stmt.limit = stmt.limit;

  Engine engine(merged);
  ResultSet rs = engine.execute_select(final_stmt);

  // count(...) re-aggregates as a sum, which the engine accumulates in
  // floating point; restore the integer type a single shard returns.
  for (std::size_t i = 0; i < stmt.items.size(); ++i) {
    if (!is_aggregate_call(*stmt.items[i].expr) ||
        stmt.items[i].expr->call_name != "count") {
      continue;
    }
    for (Row& row : rs.rows) {
      if (row[i].is_double()) {
        row[i] = Value(static_cast<std::int64_t>(std::llround(row[i].as_double())));
      }
    }
  }
  return rs;
}

}  // namespace scidock::sql

#include "sql/sharded.hpp"

#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "sql/binder.hpp"
#include "sql/parser.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::sql {

namespace {

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
  if (is_aggregate(e)) {
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
  Statement stmt = parse_statement(sql);
  SCIDOCK_REQUIRE(stmt.kind == Statement::Kind::Select,
                  "only SELECT is supported across provenance shards; "
                  "writes go through the recording API");
  return execute_select(stmt.select);
}

ResultSet ShardedEngine::execute_select(SelectStmt& stmt) {
  SCIDOCK_REQUIRE(!stmt.from.empty(), "SELECT requires a FROM clause");
  bool all_replicated = true;
  for (const TableRef& ref : stmt.from) {
    if (!replicated(ref.table)) all_replicated = false;
  }
  if (shards_.size() == 1 || all_replicated) {
    // Dimension-only query: shard 0 holds the authoritative copy.
    Engine engine(*shards_[0]);
    return engine.execute_select(stmt);
  }
  // Shard 0 holds every table, so its schema binds the plan.
  const Bound bound = bind_select(stmt, *shards_[0]);
  bound.require_executable();
  if (bound.grouped) return merge_grouped(stmt, bound);
  return merge_scan(stmt, bound);
}

ResultSet ShardedEngine::merge_scan(const SelectStmt& stmt, const Bound& bound) {
  // Per-shard statement: the projected expressions plus one hidden column
  // per ORDER BY key, full WHERE pushdown, no ordering/limit yet.
  SelectStmt partial;
  copy_from_where(stmt, partial);

  std::vector<std::string> names;  ///< final header, single-shard spelling
  if (stmt.star_all) {
    for (std::size_t t = 0; t < stmt.from.size(); ++t) {
      const TableRef& ref = stmt.from[t];
      const std::string qualifier = ref.alias.empty() ? ref.table : ref.alias;
      for (const Column& col : bound.tables[t]->columns()) {
        partial.items.push_back({Expr::make_column(qualifier, col.name), ""});
        names.push_back(col.name);
      }
    }
  } else {
    for (const SelectItem& item : stmt.items) {
      partial.items.push_back({item.expr->clone(), item.alias});
      names.push_back(derive_select_column_name(item));
    }
  }
  const std::size_t width = names.size();

  // ORDER BY keys as the binder resolved them (select aliases substituted).
  std::vector<bool> descending;
  for (std::size_t k = 0; k < stmt.order_by.size(); ++k) {
    partial.items.push_back(
        {bound.order_by[k]->clone(), strformat("__ord%zu", k)});
    descending.push_back(stmt.order_by[k].descending);
  }

  Database merged;
  std::vector<Column> columns;
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

ResultSet ShardedEngine::merge_grouped(const SelectStmt& stmt,
                                       const Bound& bound) {
  SCIDOCK_REQUIRE(!stmt.star_all, "SELECT * cannot be combined with GROUP BY");

  SelectStmt partial;
  copy_from_where(stmt, partial);
  Rewrites rewrites;
  std::vector<Column> columns;  ///< merge-table schema

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
  for (const Expr* key : bound.order_by) collect_aggregates(*key, aggregates);
  std::size_t p = 0;
  for (const auto& [text, call] : aggregates) {
    if (call->function->id == FunctionId::Avg) {
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
          call->function->id == FunctionId::Count ? "sum" : call->call_name;
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
  for (std::size_t k = 0; k < stmt.order_by.size(); ++k) {
    final_stmt.order_by.push_back(
        {rewrite_expr(*bound.order_by[k], rewrites), stmt.order_by[k].descending});
  }
  final_stmt.limit = stmt.limit;

  Engine engine(merged);
  ResultSet rs = engine.execute_select(final_stmt);

  // count(...) re-aggregates as a sum, which the engine accumulates in
  // floating point; restore the integer type a single shard returns.
  for (std::size_t i = 0; i < stmt.items.size(); ++i) {
    const Expr& item = *stmt.items[i].expr;
    if (!is_aggregate(item) || item.function->id != FunctionId::Count) continue;
    for (Row& row : rs.rows) {
      if (row[i].is_double()) {
        row[i] = Value(static_cast<std::int64_t>(std::llround(row[i].as_double())));
      }
    }
  }
  return rs;
}

}  // namespace scidock::sql

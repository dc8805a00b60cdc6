#include "sql/engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <unordered_map>

#include "sql/binder.hpp"
#include "sql/parser.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::sql {

namespace {

/// One (possibly partial) joined row: a row pointer per FROM entry,
/// nullptr while not yet bound (join pushdown). Column references read
/// their bound (entry, column) slot from it.
using Scope = std::vector<const Row*>;

bool truthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.is_int()) return v.as_int() != 0;
  if (v.is_double()) return v.as_double() != 0.0;
  return !v.as_string().empty();
}

bool like_match(std::string_view text, std::string_view pattern) {
  // Classic two-pointer wildcard matching; '%' = any run, '_' = any char.
  std::size_t ti = 0, pi = 0;
  std::size_t star_p = std::string_view::npos, star_t = 0;
  while (ti < text.size()) {
    if (pi < pattern.size() && (pattern[pi] == '_' || pattern[pi] == text[ti])) {
      ++ti;
      ++pi;
    } else if (pi < pattern.size() && pattern[pi] == '%') {
      star_p = pi++;
      star_t = ti;
    } else if (star_p != std::string_view::npos) {
      pi = star_p + 1;
      ti = ++star_t;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '%') ++pi;
  return pi == pattern.size();
}

Value eval(const Expr& e, const Scope& scope);

Value eval_binary(const Expr& e, const Scope& scope) {
  // AND/OR get short-circuit + SQL null handling first.
  if (e.binary_op == BinaryOp::And) {
    const Value l = eval(*e.lhs, scope);
    if (!truthy(l)) return Value(static_cast<std::int64_t>(0));
    return Value(static_cast<std::int64_t>(truthy(eval(*e.rhs, scope)) ? 1 : 0));
  }
  if (e.binary_op == BinaryOp::Or) {
    const Value l = eval(*e.lhs, scope);
    if (truthy(l)) return Value(static_cast<std::int64_t>(1));
    return Value(static_cast<std::int64_t>(truthy(eval(*e.rhs, scope)) ? 1 : 0));
  }

  const Value l = eval(*e.lhs, scope);
  const Value r = eval(*e.rhs, scope);

  switch (e.binary_op) {
    case BinaryOp::Add:
    case BinaryOp::Sub:
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Mod: {
      if (l.is_null() || r.is_null()) return Value();
      if (l.is_int() && r.is_int() && e.binary_op != BinaryOp::Div) {
        const std::int64_t a = l.as_int();
        const std::int64_t b = r.as_int();
        switch (e.binary_op) {
          case BinaryOp::Add: return Value(a + b);
          case BinaryOp::Sub: return Value(a - b);
          case BinaryOp::Mul: return Value(a * b);
          case BinaryOp::Mod:
            SCIDOCK_REQUIRE(b != 0, "modulo by zero");
            return Value(a % b);
          default: break;
        }
      }
      const double a = l.as_double();
      const double b = r.as_double();
      switch (e.binary_op) {
        case BinaryOp::Add: return Value(a + b);
        case BinaryOp::Sub: return Value(a - b);
        case BinaryOp::Mul: return Value(a * b);
        case BinaryOp::Div:
          SCIDOCK_REQUIRE(b != 0.0, "division by zero");
          return Value(a / b);
        case BinaryOp::Mod: return Value(std::fmod(a, b));
        default: break;
      }
      return Value();
    }
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge: {
      if (l.is_null() || r.is_null()) return Value(static_cast<std::int64_t>(0));
      const auto c = l.compare(r);
      bool result = false;
      switch (e.binary_op) {
        case BinaryOp::Eq: result = c == std::strong_ordering::equal; break;
        case BinaryOp::Ne: result = c != std::strong_ordering::equal; break;
        case BinaryOp::Lt: result = c == std::strong_ordering::less; break;
        case BinaryOp::Le: result = c != std::strong_ordering::greater; break;
        case BinaryOp::Gt: result = c == std::strong_ordering::greater; break;
        case BinaryOp::Ge: result = c != std::strong_ordering::less; break;
        default: break;
      }
      return Value(static_cast<std::int64_t>(result ? 1 : 0));
    }
    case BinaryOp::Like: {
      if (l.is_null() || r.is_null()) return Value(static_cast<std::int64_t>(0));
      return Value(static_cast<std::int64_t>(
          like_match(l.to_string(), r.as_string()) ? 1 : 0));
    }
    case BinaryOp::Concat:
      if (l.is_null() || r.is_null()) return Value();
      return Value(l.to_string() + r.to_string());
    default:
      return Value();
  }
}

Value eval_call(const Expr& e, const Scope& scope) {
  SCIDOCK_ASSERT_MSG(e.function != nullptr, "call '" + e.call_name + "' not bound");
  auto arg = [&](std::size_t i) { return eval(*e.args[i], scope); };

  switch (e.function->id) {
    case FunctionId::Extract: {
      const Value field = arg(0);
      const Value v = arg(1);
      if (v.is_null()) return Value();
      const std::string f = to_lower(field.to_string());
      // Timestamps are stored as seconds since the experiment epoch, so
      // EXTRACT('epoch' ...) is numeric identity; other fields derive from it.
      const double secs = v.as_double();
      if (f == "epoch") return Value(secs);
      if (f == "minute") return Value(std::floor(std::fmod(secs / 60.0, 60.0)));
      if (f == "hour") return Value(std::floor(std::fmod(secs / 3600.0, 24.0)));
      SCIDOCK_ASSERT_MSG(f == "day", "the binder admits no EXTRACT field '" + f + "'");
      return Value(std::floor(secs / 86400.0));
    }
    case FunctionId::Abs: {
      const Value v = arg(0);
      if (v.is_null()) return Value();
      return v.is_int() ? Value(std::abs(v.as_int())) : Value(std::abs(v.as_double()));
    }
    case FunctionId::Round: {
      const Value v = arg(0);
      if (v.is_null()) return Value();
      if (e.args.size() >= 2) {
        const double scale = std::pow(10.0, arg(1).as_double());
        return Value(std::round(v.as_double() * scale) / scale);
      }
      return Value(std::round(v.as_double()));
    }
    case FunctionId::Floor:
    case FunctionId::Ceil: {
      const Value v = arg(0);
      if (v.is_null()) return Value();
      return Value(e.function->id == FunctionId::Floor ? std::floor(v.as_double())
                                                       : std::ceil(v.as_double()));
    }
    case FunctionId::Length: {
      const Value v = arg(0);
      if (v.is_null()) return Value();
      return Value(static_cast<std::int64_t>(v.to_string().size()));
    }
    case FunctionId::Upper: {
      const Value v = arg(0);
      return v.is_null() ? Value() : Value(to_upper(v.to_string()));
    }
    case FunctionId::Lower: {
      const Value v = arg(0);
      return v.is_null() ? Value() : Value(to_lower(v.to_string()));
    }
    case FunctionId::Coalesce:
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        Value v = arg(i);
        if (!v.is_null()) return v;
      }
      return Value();
    case FunctionId::Substr: {
      const Value v = arg(0);
      if (v.is_null()) return Value();
      const std::string s = v.to_string();
      const auto start = static_cast<std::size_t>(std::max<std::int64_t>(arg(1).as_int() - 1, 0));
      std::size_t len = std::string::npos;
      if (e.args.size() >= 3) len = static_cast<std::size_t>(std::max<std::int64_t>(arg(2).as_int(), 0));
      if (start >= s.size()) return Value(std::string());
      return Value(s.substr(start, len));
    }
    default:
      // The binder admits aggregates only where eval_grouped computes them.
      SCIDOCK_ASSERT_MSG(false, "aggregate " + e.call_name + "() outside a group");
  }
  return Value();
}

Value eval(const Expr& e, const Scope& scope) {
  switch (e.kind) {
    case Expr::Kind::Literal:
      return e.literal;
    case Expr::Kind::Column: {
      SCIDOCK_ASSERT_MSG(e.binding >= 0, "column '" + e.column + "' not bound");
      const Row* row = scope[static_cast<std::size_t>(e.binding)];
      SCIDOCK_REQUIRE(row != nullptr, "column '" + e.column + "' referenced before its table is bound");
      return (*row)[static_cast<std::size_t>(e.slot)];
    }
    case Expr::Kind::Binary:
      return eval_binary(e, scope);
    case Expr::Kind::Unary: {
      const Value v = eval(*e.lhs, scope);
      switch (e.unary_op) {
        case UnaryOp::Neg:
          if (v.is_null()) return Value();
          return v.is_int() ? Value(-v.as_int()) : Value(-v.as_double());
        case UnaryOp::Not:
          return Value(static_cast<std::int64_t>(truthy(v) ? 0 : 1));
        case UnaryOp::IsNull:
          return Value(static_cast<std::int64_t>(v.is_null() ? 1 : 0));
        case UnaryOp::IsNotNull:
          return Value(static_cast<std::int64_t>(v.is_null() ? 0 : 1));
      }
      return Value();
    }
    case Expr::Kind::Call:
      return eval_call(e, scope);
    case Expr::Kind::In: {
      const Value probe = eval(*e.lhs, scope);
      if (probe.is_null()) return Value(static_cast<std::int64_t>(0));
      bool found = false;
      for (const ExprPtr& item : e.args) {
        const Value v = eval(*item, scope);
        if (!v.is_null() && probe.compare(v) == std::strong_ordering::equal) {
          found = true;
          break;
        }
      }
      return Value(static_cast<std::int64_t>(found != e.negated ? 1 : 0));
    }
    case Expr::Kind::Between: {
      const Value v = eval(*e.lhs, scope);
      const Value lo = eval(*e.args[0], scope);
      const Value hi = eval(*e.args[1], scope);
      if (v.is_null() || lo.is_null() || hi.is_null()) {
        return Value(static_cast<std::int64_t>(0));
      }
      const bool inside = v.compare(lo) != std::strong_ordering::less &&
                          v.compare(hi) != std::strong_ordering::greater;
      return Value(static_cast<std::int64_t>(inside != e.negated ? 1 : 0));
    }
    case Expr::Kind::Star:
      throw InvalidStateError("'*' is only valid in SELECT lists and count(*)");
  }
  return Value();
}

/// The last FROM entry an expression references (for join push-down).
std::size_t last_table(const Expr& e) {
  std::size_t last = 0;
  if (e.kind == Expr::Kind::Column) last = static_cast<std::size_t>(e.binding);
  if (e.lhs) last = std::max(last, last_table(*e.lhs));
  if (e.rhs) last = std::max(last, last_table(*e.rhs));
  for (const ExprPtr& a : e.args) last = std::max(last, last_table(*a));
  return last;
}

/// Split a WHERE tree into AND-ed conjuncts.
void collect_conjuncts(const Expr& e, std::vector<const Expr*>& out) {
  if (e.kind == Expr::Kind::Binary && e.binary_op == BinaryOp::And) {
    collect_conjuncts(*e.lhs, out);
    collect_conjuncts(*e.rhs, out);
  } else {
    out.push_back(&e);
  }
}

// ---------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------

/// An exactly rounded sum, whatever order the terms come in, so a store
/// sharded N ways sums a group to the same double as one store. A finite
/// double is an integer times 2^-1074; it is added exactly into base-2^32
/// digits held in int64 (each takes 2^31 additions before a carry), and
/// the total rounds to nearest-even once.
class ExactSum {
 public:
  void add(double x) {
    if (!std::isfinite(x)) {
      special_ += x;  // inf, -inf or NaN, combined as IEEE adds them
      return;
    }
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const int biased = static_cast<int>(bits >> 52 & 0x7ff);
    const std::uint64_t m = (bits & ((1ULL << 52) - 1)) | (biased != 0 ? 1ULL << 52 : 0);
    const int p = std::max(biased, 1) - 1;  // |x| = m * 2^(p - 1074)
    const U128 shifted = static_cast<U128>(m) << (p % 32);
    for (int k = 0; k < 3; ++k) {
      const auto digit = static_cast<std::int64_t>(shifted >> (32 * k) & 0xffffffff);
      digits_[static_cast<std::size_t>(p / 32 + k)] += x < 0 ? -digit : digit;
    }
    if (++adds_ % (1U << 30) == 0) carry(digits_);
  }

  double value() const {
    if (special_ != 0.0) return special_;
    Digits d = digits_;
    carry(d);
    const bool negative = d.back() < 0;
    if (negative) {
      for (std::int64_t& digit : d) digit = -digit;
      carry(d);
    }
    // Past 2^64 the top three digits hold at least 65 bits. Folding any
    // nonzero lower digit into their last bit rounds them to odd, which
    // keeps the one conversion to double correctly rounded.
    std::size_t top = d.size() - 1;
    while (top > 0 && d[top] == 0) --top;
    const std::size_t base = top < 2 ? 0 : top - 2;
    U128 window = 0;
    for (std::size_t k = top + 1; k-- > base;) {
      window = window << 32 | static_cast<std::uint64_t>(d[k]);
    }
    if (std::any_of(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(base),
                    [](std::int64_t digit) { return digit != 0; })) {
      window |= 1;
    }
    const double magnitude =
        std::ldexp(static_cast<double>(window), static_cast<int>(32 * base) - 1074);
    return negative ? -magnitude : magnitude;
  }

 private:
  using U128 = unsigned __int128;
  /// 2^2176 of range: 2^1024 times 2^31 terms, with a digit to spare.
  using Digits = std::array<std::int64_t, 68>;

  /// Moves each digit's overflow into the next, leaving every digit but
  /// the top one in [0, 2^32).
  static void carry(Digits& d) {
    for (std::size_t i = 0; i + 1 < d.size(); ++i) {
      d[i + 1] += d[i] >> 32;
      d[i] &= 0xffffffff;
    }
  }

  Digits digits_{};
  std::uint32_t adds_ = 0;  ///< carried every 2^30 additions
  double special_ = 0.0;
};

struct Aggregator {
  FunctionId fn = FunctionId::Count;
  bool star = false;
  std::size_t count = 0;
  ExactSum sum;
  Value min_v;
  Value max_v;

  void add(const Value& v) {
    if (!star && v.is_null()) return;
    ++count;
    if (!star && (fn == FunctionId::Sum || fn == FunctionId::Avg)) sum.add(v.as_double());
    if (fn == FunctionId::Min && (min_v.is_null() || v.compare(min_v) == std::strong_ordering::less)) min_v = v;
    if (fn == FunctionId::Max && (max_v.is_null() || v.compare(max_v) == std::strong_ordering::greater)) max_v = v;
  }

  Value result() const {
    if (fn == FunctionId::Count) return Value(static_cast<std::int64_t>(count));
    if (count == 0) return Value();
    if (fn == FunctionId::Sum) return Value(sum.value());
    if (fn == FunctionId::Avg) return Value(sum.value() / static_cast<double>(count));
    return fn == FunctionId::Min ? min_v : max_v;
  }
};

/// Evaluate an expression that may contain aggregate calls over a group of
/// rows. Aggregates are computed over the group; everything else is
/// evaluated on the group's first row (the paper's queries always group by
/// those columns, matching PostgreSQL semantics for valid queries).
Value eval_grouped(const Expr& e, const std::vector<Scope>& group) {
  SCIDOCK_ASSERT(!group.empty());
  if (is_aggregate(e)) {
    Aggregator agg;
    agg.fn = e.function->id;
    agg.star = e.star_arg;
    for (const Scope& row_ptrs : group) {
      agg.add(agg.star ? Value(static_cast<std::int64_t>(1))
                       : eval(*e.args[0], row_ptrs));
    }
    return agg.result();
  }
  if (contains_aggregate(e)) {
    // Rebuild with aggregate sub-results replaced by literals.
    Expr shallow = {};
    shallow.kind = e.kind;
    shallow.binary_op = e.binary_op;
    shallow.unary_op = e.unary_op;
    shallow.call_name = e.call_name;
    shallow.star_arg = e.star_arg;
    shallow.negated = e.negated;
    shallow.function = e.function;
    if (e.lhs) shallow.lhs = Expr::make_literal(eval_grouped(*e.lhs, group));
    if (e.rhs) shallow.rhs = Expr::make_literal(eval_grouped(*e.rhs, group));
    for (const ExprPtr& a : e.args) {
      shallow.args.push_back(Expr::make_literal(eval_grouped(*a, group)));
    }
    return eval(shallow, group.front());
  }
  return eval(e, group.front());
}

/// Result-column name of a select item: the alias if present, else the
/// column / call name, else the expression text.
std::string derive_column_name(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == Expr::Kind::Column) return item.expr->column;
  if (item.expr->kind == Expr::Kind::Call) return item.expr->call_name;
  return item.expr->to_string();
}

/// GROUP BY key order: Value::compare, column by column, so int 2 and
/// double 2.0 share a group and doubles never collapse through printing.
struct GroupKeyLess {
  bool operator()(const std::vector<Value>& a, const std::vector<Value>& b) const {
    return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end(),
        [](const Value& x, const Value& y) { return x.compare(y) < 0; });
  }
};

}  // namespace

Engine::Engine(std::vector<Database*> shards, std::vector<std::string> partitioned)
    : shards_(std::move(shards)), partitioned_(std::move(partitioned)) {
  SCIDOCK_REQUIRE(!shards_.empty(), "an engine needs at least one database");
}

std::string ResultSet::to_text() const {
  std::vector<std::size_t> widths(columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) widths[c] = columns[c].size();
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows.size());
  for (const Row& row : rows) {
    std::vector<std::string> line;
    line.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      line.push_back(row[c].to_string());
      if (c < widths.size()) widths[c] = std::max(widths[c], line.back().size());
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& line) {
    for (std::size_t c = 0; c < line.size(); ++c) {
      out += strformat(" %-*s ", static_cast<int>(widths[c]), line[c].c_str());
      if (c + 1 < line.size()) out += '|';
    }
    out += '\n';
  };
  emit_row(columns);
  for (std::size_t c = 0; c < columns.size(); ++c) {
    out.append(widths[c] + 2, '-');
    if (c + 1 < columns.size()) out += '+';
  }
  out += '\n';
  for (const auto& line : cells) emit_row(line);
  out += strformat("(%zu rows)\n", rows.size());
  return out;
}

ResultSet Engine::execute(std::string_view sql) {
  Statement stmt = parse_statement(sql);
  SCIDOCK_REQUIRE(shards_.size() == 1 || stmt.kind == Statement::Kind::Select,
                  "only SELECT is supported across provenance shards; "
                  "writes go through the recording API");
  Database& db = *shards_.front();
  const Bound bound = bind(stmt, db);
  bound.require_executable();
  switch (stmt.kind) {
    case Statement::Kind::Select:
      return run_select(stmt.select, bound);
    case Statement::Kind::CreateTable:
      db.create_table(stmt.create.table, {stmt.create.columns.begin(),
                                          stmt.create.columns.end()});
      return {};
    case Statement::Kind::Insert: {
      Table& table = db.table(stmt.insert.table);
      const Scope no_rows;
      for (const auto& row_exprs : stmt.insert.rows) {
        Row row(table.columns().size());
        if (stmt.insert.columns.empty()) {
          SCIDOCK_REQUIRE(row_exprs.size() == table.columns().size(),
                          "INSERT width mismatch");
          for (std::size_t i = 0; i < row_exprs.size(); ++i) {
            row[i] = eval(*row_exprs[i], no_rows);
          }
        } else {
          SCIDOCK_REQUIRE(row_exprs.size() == stmt.insert.columns.size(),
                          "INSERT width mismatch");
          for (std::size_t i = 0; i < row_exprs.size(); ++i) {
            row[bound.targets[i]] = eval(*row_exprs[i], no_rows);
          }
        }
        table.insert(std::move(row));
      }
      return {};
    }
    case Statement::Kind::Update: {
      Table& table = db.table(stmt.update.table);
      std::size_t updated = 0;
      for (Row& row : table.mutable_rows()) {
        const Scope scope{&row};
        if (stmt.update.where && !truthy(eval(*stmt.update.where, scope))) {
          continue;
        }
        // Evaluate every assignment against the *pre-update* row, then
        // apply (standard SQL semantics for multi-assignment UPDATE).
        std::vector<Value> new_values;
        new_values.reserve(bound.targets.size());
        for (const auto& [column, expr] : stmt.update.assignments) {
          new_values.push_back(eval(*expr, scope));
        }
        for (std::size_t k = 0; k < bound.targets.size(); ++k) {
          row[bound.targets[k]] = std::move(new_values[k]);
        }
        ++updated;
      }
      ResultSet rs;
      rs.columns = {"updated"};
      rs.rows.push_back({Value(static_cast<std::int64_t>(updated))});
      return rs;
    }
    case Statement::Kind::Delete: {
      Table& table = db.table(stmt.del.table);
      std::size_t removed = 0;
      if (!stmt.del.where) {
        removed = table.erase_if([](const Row&) { return true; });
      } else {
        removed = table.erase_if([&](const Row& row) {
          return truthy(eval(*stmt.del.where, Scope{&row}));
        });
      }
      ResultSet rs;
      rs.columns = {"deleted"};
      rs.rows.push_back({Value(static_cast<std::int64_t>(removed))});
      return rs;
    }
  }
  return {};
}

ResultSet Engine::run_select(const SelectStmt& stmt, const Bound& bound) const {
  SCIDOCK_REQUIRE(!stmt.from.empty(), "SELECT requires a FROM clause");

  const std::vector<const Table*>& tables = bound.tables;
  const std::size_t n_tables = tables.size();

  // --- the row vectors each FROM entry scans, in order ---
  // A partitioned table is the union of its rows in every shard; the
  // binder bound every table against shard 0, which holds them all.
  std::vector<std::vector<const std::vector<Row>*>> scans(n_tables);
  for (std::size_t t = 0; t < n_tables; ++t) {
    const std::string& name = tables[t]->name();
    const bool partitioned =
        std::any_of(partitioned_.begin(), partitioned_.end(),
                    [&name](const std::string& p) { return iequals(p, name); });
    if (!partitioned) {
      scans[t].push_back(&tables[t]->rows());
      continue;
    }
    for (const Database* shard : shards_) {
      scans[t].push_back(&shard->table(name).rows());
    }
  }

  // --- classify WHERE conjuncts by the last table they need ---
  std::vector<const Expr*> conjuncts;
  if (stmt.where) collect_conjuncts(*stmt.where, conjuncts);
  std::vector<std::vector<const Expr*>> conjuncts_at(n_tables);
  for (const Expr* c : conjuncts) conjuncts_at[last_table(*c)].push_back(c);

  // --- hash-join upgrade for equality conjuncts ---
  // A depth whose pushed-down conjuncts include `inner.col = outer.col`
  // (both plain column refs, the other side bound at an earlier depth)
  // gets a hash table over the inner rows, turning the ubiquitous
  // provenance pattern "FROM hactivation t, hactivity a WHERE
  // t.actid = a.actid" from O(n*m) probes into O(n+m). The buckets only
  // narrow the candidate rows — every conjunct is still evaluated per
  // candidate (guarding against key collisions, e.g. int64s beyond
  // double precision) and bucket order preserves scan order, so
  // results match the pure nested loop row for row.
  struct EquiKey {
    int local_col = -1;  ///< column on this depth's (inner) table
    int outer_table = -1;
    int outer_col = -1;
  };
  struct HashStage {
    std::vector<EquiKey> keys;
    std::unordered_map<std::string, std::vector<const Row*>> buckets;
    bool active = false;
  };

  // Key encoding mirrors Value::compare under Eq: NULL matches nothing
  // (caller skips the row), numerics compare through as_double (so int 2
  // and double 2.0 share a key) as the double's 8 bytes, with -0.0 folded
  // onto 0.0 and every NaN onto one NaN; strings compare bytewise and
  // never equal numerics (distinct tags).
  const auto append_key_part = [](const Value& v, std::string& out) {
    if (v.is_null()) return false;
    if (v.is_string()) {
      out += 's';
      out += v.as_string();
      out += '\x1f';  // separator so multi-key parts cannot run together
    } else {
      double d = v.as_double();
      if (d == 0.0) d = 0.0;
      if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
      char bytes[sizeof d];
      std::memcpy(bytes, &d, sizeof d);
      out += 'n';
      out.append(bytes, sizeof d);
    }
    return true;
  };

  std::vector<HashStage> hash_stages(n_tables);
  for (std::size_t t = 1; t < n_tables; ++t) {
    HashStage& hs = hash_stages[t];
    for (const Expr* c : conjuncts_at[t]) {
      if (c->kind != Expr::Kind::Binary || c->binary_op != BinaryOp::Eq) continue;
      const Expr* l = c->lhs.get();
      const Expr* r = c->rhs.get();
      if (l->kind != Expr::Kind::Column || r->kind != Expr::Kind::Column) continue;
      const int ti = static_cast<int>(t);
      if (l->binding == ti && r->binding < ti) {
        hs.keys.push_back({l->slot, r->binding, r->slot});
      } else if (r->binding == ti && l->binding < ti) {
        hs.keys.push_back({r->slot, l->binding, l->slot});
      }
    }
    if (hs.keys.empty()) continue;
    hs.active = true;
    for (const std::vector<Row>* rows : scans[t]) {
      for (const Row& row : *rows) {
        std::string key;
        bool keyable = true;
        for (const EquiKey& k : hs.keys) {
          if (!append_key_part(row[static_cast<std::size_t>(k.local_col)], key)) {
            keyable = false;  // NULL key: Eq can never pass for this row
            break;
          }
        }
        if (keyable) hs.buckets[std::move(key)].push_back(&row);
      }
    }
  }

  // --- nested-loop join with push-down (hash probe where upgraded) ---
  std::vector<Scope> joined;
  std::size_t outer_rows = 0;
  for (const std::vector<Row>* rows : scans[0]) outer_rows += rows->size();
  joined.reserve(outer_rows);
  Scope current(n_tables, nullptr);
  auto descend = [&](auto&& self, std::size_t depth) -> void {
    if (depth == n_tables) {
      joined.push_back(current);
      return;
    }
    const auto try_row = [&](const Row& row) {
      current[depth] = &row;
      for (const Expr* c : conjuncts_at[depth]) {
        if (!truthy(eval(*c, current))) return;
      }
      self(self, depth + 1);
    };
    const HashStage& hs = hash_stages[depth];
    if (hs.active) {
      std::string key;
      bool keyable = true;
      for (const EquiKey& k : hs.keys) {
        const Row& outer = *current[static_cast<std::size_t>(k.outer_table)];
        if (!append_key_part(outer[static_cast<std::size_t>(k.outer_col)], key)) {
          keyable = false;
          break;
        }
      }
      if (keyable) {
        const auto it = hs.buckets.find(key);
        if (it != hs.buckets.end()) {
          for (const Row* row : it->second) try_row(*row);
        }
      }
    } else {
      for (const std::vector<Row>* rows : scans[depth]) {
        for (const Row& row : *rows) try_row(row);
      }
    }
    current[depth] = nullptr;
  };
  descend(descend, 0);

  ResultSet rs;
  if (stmt.star_all) {
    SCIDOCK_REQUIRE(!bound.grouped, "SELECT * cannot be combined with GROUP BY");
    for (const Table* table : tables) {
      for (const Column& col : table->columns()) rs.columns.push_back(col.name);
    }
  } else {
    for (const SelectItem& item : stmt.items) {
      rs.columns.push_back(derive_column_name(item));
    }
  }

  struct OrderKeyed {
    Row row;
    std::vector<Value> keys;
  };
  std::vector<OrderKeyed> produced;

  if (bound.grouped) {
    // Group the joined rows by the GROUP BY key values.
    std::map<std::vector<Value>, std::vector<Scope>, GroupKeyLess> groups;
    for (const Scope& row_ptrs : joined) {
      std::vector<Value> key;
      key.reserve(stmt.group_by.size());
      for (const ExprPtr& g : stmt.group_by) {
        key.push_back(eval(*g, row_ptrs));
      }
      groups[std::move(key)].push_back(row_ptrs);
    }
    if (groups.empty() && stmt.group_by.empty()) {
      // Aggregates over an empty input still yield one row (count = 0).
      Row row;
      for (const SelectItem& item : stmt.items) {
        if (is_aggregate(*item.expr) && item.expr->function->id == FunctionId::Count) {
          row.push_back(Value(static_cast<std::int64_t>(0)));
        } else {
          row.push_back(Value());
        }
      }
      produced.push_back({std::move(row), {}});
    } else {
      for (auto& [key, group_rows] : groups) {
        if (stmt.having && !truthy(eval_grouped(*stmt.having, group_rows))) {
          continue;
        }
        OrderKeyed out;
        for (const SelectItem& item : stmt.items) {
          out.row.push_back(eval_grouped(*item.expr, group_rows));
        }
        for (const Expr* o : bound.order_by) {
          out.keys.push_back(eval_grouped(*o, group_rows));
        }
        produced.push_back(std::move(out));
      }
    }
  } else {
    for (const Scope& row_ptrs : joined) {
      OrderKeyed out;
      if (stmt.star_all) {
        for (std::size_t t = 0; t < n_tables; ++t) {
          for (const Value& v : *row_ptrs[t]) out.row.push_back(v);
        }
      } else {
        for (const SelectItem& item : stmt.items) {
          out.row.push_back(eval(*item.expr, row_ptrs));
        }
      }
      for (const Expr* o : bound.order_by) {
        out.keys.push_back(eval(*o, row_ptrs));
      }
      produced.push_back(std::move(out));
    }
  }

  // --- ORDER BY ---
  if (!stmt.order_by.empty()) {
    std::stable_sort(produced.begin(), produced.end(),
                     [&stmt](const OrderKeyed& a, const OrderKeyed& b) {
                       for (std::size_t k = 0; k < stmt.order_by.size(); ++k) {
                         const auto c = a.keys[k].compare(b.keys[k]);
                         if (c == std::strong_ordering::equal) continue;
                         const bool less = c == std::strong_ordering::less;
                         return stmt.order_by[k].descending ? !less : less;
                       }
                       return false;
                     });
  }

  // --- DISTINCT ---
  for (OrderKeyed& p : produced) rs.rows.push_back(std::move(p.row));
  if (stmt.distinct) {
    std::vector<Row> unique_rows;
    for (Row& row : rs.rows) {
      bool seen = false;
      for (const Row& u : unique_rows) {
        if (u.size() == row.size() &&
            std::equal(u.begin(), u.end(), row.begin())) {
          seen = true;
          break;
        }
      }
      if (!seen) unique_rows.push_back(std::move(row));
    }
    rs.rows = std::move(unique_rows);
  }

  // --- LIMIT ---
  if (stmt.limit && rs.rows.size() > *stmt.limit) rs.rows.resize(*stmt.limit);
  return rs;
}

}  // namespace scidock::sql

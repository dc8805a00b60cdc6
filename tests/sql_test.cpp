// Tests for the SQL engine: lexer, parser, evaluation, joins, grouping.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "sql/engine.hpp"
#include "sql/lexer.hpp"
#include "sql/parser.hpp"
#include "sql/table.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace scidock::sql {
namespace {

// ---------------------------------------------------------------- lexer

TEST(Lexer, TokenizesMixedStatement) {
  const auto tokens = tokenize("SELECT a.x, 'it''s', 3.5 FROM t WHERE x <> 2");
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_TRUE(tokens[0].is_keyword("select"));
  EXPECT_EQ(tokens[1].text, "a");
  EXPECT_TRUE(tokens[2].is_symbol("."));
  // the escaped string literal
  bool found = false;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::String && t.text == "it's") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Lexer, NumbersAndComments) {
  const auto tokens = tokenize("-- comment\n1 2.5 1e3 /* block\n */ 7");
  std::vector<std::string> nums;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::Integer || t.kind == TokenKind::Float) {
      nums.push_back(t.text);
    }
  }
  EXPECT_EQ(nums, (std::vector<std::string>{"1", "2.5", "1e3", "7"}));
}

TEST(Lexer, RejectsBadInput) {
  EXPECT_THROW(tokenize("'unterminated"), ParseError);
  EXPECT_THROW(tokenize("SELECT #"), ParseError);
  EXPECT_THROW(tokenize("/* forever"), ParseError);
}

// --------------------------------------------------------------- parser

TEST(Parser, FullSelectShape) {
  const SelectStmt s = parse_select(
      "SELECT a.tag, avg(x) AS mean FROM ta a, tb WHERE a.id = tb.id AND x > 3 "
      "GROUP BY a.tag HAVING count(*) > 1 ORDER BY mean DESC LIMIT 10");
  EXPECT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[1].alias, "mean");
  ASSERT_EQ(s.from.size(), 2u);
  EXPECT_EQ(s.from[0].alias, "a");
  EXPECT_EQ(s.from[1].alias, "tb");
  EXPECT_NE(s.where, nullptr);
  EXPECT_EQ(s.group_by.size(), 1u);
  EXPECT_NE(s.having, nullptr);
  ASSERT_EQ(s.order_by.size(), 1u);
  EXPECT_TRUE(s.order_by[0].descending);
  EXPECT_EQ(s.limit, 10u);
}

TEST(Parser, ExtractEpochSyntax) {
  const SelectStmt s = parse_select(
      "SELECT extract ('epoch' from (t.endtime-t.starttime)) FROM t");
  ASSERT_EQ(s.items.size(), 1u);
  const Expr& e = *s.items[0].expr;
  EXPECT_EQ(e.kind, Expr::Kind::Call);
  EXPECT_EQ(e.call_name, "extract");
  ASSERT_EQ(e.args.size(), 2u);
  EXPECT_EQ(e.args[0]->literal.as_string(), "epoch");
}

TEST(Parser, OperatorPrecedence) {
  const SelectStmt s = parse_select("SELECT 2 + 3 * 4 FROM t");
  // (2 + (3 * 4)): root is Add.
  EXPECT_EQ(s.items[0].expr->binary_op, BinaryOp::Add);
  EXPECT_EQ(s.items[0].expr->rhs->binary_op, BinaryOp::Mul);
}

TEST(Parser, RejectsSyntaxErrors) {
  EXPECT_THROW(parse_statement("SELECT"), ParseError);
  EXPECT_THROW(parse_statement("SELECT x"), ParseError);       // no FROM
  EXPECT_THROW(parse_statement("FOO BAR"), ParseError);
  EXPECT_THROW(parse_statement("SELECT x FROM t WHERE"), ParseError);
  EXPECT_THROW(parse_statement("SELECT x FROM t extra junk ("), ParseError);
}

TEST(Parser, StatementKinds) {
  EXPECT_EQ(parse_statement("SELECT 1 FROM t").kind, Statement::Kind::Select);
  EXPECT_EQ(parse_statement("CREATE TABLE t (a int, b character varying(50))").kind,
            Statement::Kind::CreateTable);
  EXPECT_EQ(parse_statement("INSERT INTO t VALUES (1, 'x')").kind,
            Statement::Kind::Insert);
  EXPECT_EQ(parse_statement("DELETE FROM t WHERE a = 1").kind,
            Statement::Kind::Delete);
}

// ---------------------------------------------------------------- value

TEST(Value, OrderingAcrossTypes) {
  EXPECT_EQ(Value(1).compare(Value(1.0)), std::strong_ordering::equal);
  EXPECT_EQ(Value(1).compare(Value(2)), std::strong_ordering::less);
  EXPECT_EQ(Value().compare(Value(0)), std::strong_ordering::less);  // NULL first
  EXPECT_EQ(Value("a").compare(Value("b")), std::strong_ordering::less);
  EXPECT_EQ(Value(5).compare(Value("a")), std::strong_ordering::less);  // nums < strings
}

TEST(Value, NaNIsOneValueAboveEveryNumber) {
  const Value nan(std::nan(""));
  EXPECT_EQ(nan.compare(Value(-std::nan(""))), std::strong_ordering::equal);
  EXPECT_EQ(nan.compare(Value(HUGE_VAL)), std::strong_ordering::greater);
  EXPECT_EQ(Value(5).compare(nan), std::strong_ordering::less);
  EXPECT_EQ(nan.compare(Value()), std::strong_ordering::greater);  // NULL first
  EXPECT_EQ(nan.compare(Value("a")), std::strong_ordering::less);  // then strings
}

TEST(Value, Rendering) {
  EXPECT_EQ(Value().to_string(), "NULL");
  EXPECT_EQ(Value(42).to_string(), "42");
  EXPECT_EQ(Value("x").to_string(), "x");
}

TEST(Value, RealsPrintTheShortestTextThatReadsBack) {
  // %.6g would print 1.00006e+06 and 0.333333: neither reads back equal.
  for (const double x : {1000060.25, 1.0 / 3.0, 0.1 + 0.2, -2.5e-9}) {
    const std::string text = Value(x).to_string();
    EXPECT_EQ(parse_double(text), x) << text;
  }
  EXPECT_EQ(Value(1000060.25).to_string(), "1000060.25");
  EXPECT_EQ(Value(2.5).to_string(), "2.5");
  EXPECT_EQ(Value(-0.5).to_string(), "-0.5");
  // Fixed notation from 1e-4 up to 1e15, scientific outside.
  EXPECT_EQ(Value(100000.0).to_string(), "100000");
  EXPECT_EQ(Value(-200000.0).to_string(), "-200000");
  EXPECT_EQ(Value(0.0001).to_string(), "0.0001");
  EXPECT_EQ(Value(123456789012345.0).to_string(), "123456789012345");
  EXPECT_EQ(Value(1e15).to_string(), "1e+15");
  EXPECT_EQ(Value(1.5e-5).to_string(), "1.5e-05");
  EXPECT_EQ(Value(0.0).to_string(), "0");
  for (const double x : {100000.0, 0.0001, 1e15, 1.5e-5}) {
    EXPECT_EQ(parse_double(Value(x).to_string()), x);
  }
}

// --------------------------------------------------------------- engine

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine = std::make_unique<Engine>(db);
    engine->execute("CREATE TABLE runs (id int, tag varchar(20), secs float, vm int)");
    engine->execute("INSERT INTO runs VALUES (1, 'babel', 2.5, 1)");
    engine->execute("INSERT INTO runs VALUES (2, 'babel', 3.5, 2)");
    engine->execute("INSERT INTO runs VALUES (3, 'vina', 100.0, 1)");
    engine->execute("INSERT INTO runs VALUES (4, 'vina', 200.0, 2)");
    engine->execute("INSERT INTO runs VALUES (5, 'ad4', 150.0, 1)");
    engine->execute("CREATE TABLE vms (vm int, name varchar(20))");
    engine->execute("INSERT INTO vms VALUES (1, 'm3.xlarge'), (2, 'm3.2xlarge')");
  }

  Database db;
  std::unique_ptr<Engine> engine;
};

TEST_F(EngineTest, SelectStar) {
  const ResultSet rs = engine->execute("SELECT * FROM runs");
  EXPECT_EQ(rs.columns.size(), 4u);
  EXPECT_EQ(rs.rows.size(), 5u);
}

TEST_F(EngineTest, WhereFilters) {
  const ResultSet rs =
      engine->execute("SELECT id FROM runs WHERE secs > 50 AND tag <> 'ad4'");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].as_int(), 3);
  EXPECT_EQ(rs.rows[1][0].as_int(), 4);
}

TEST_F(EngineTest, JoinWithPushdown) {
  const ResultSet rs = engine->execute(
      "SELECT r.id, v.name FROM runs r, vms v WHERE r.vm = v.vm AND "
      "v.name = 'm3.2xlarge'");
  ASSERT_EQ(rs.rows.size(), 2u);
  for (const Row& row : rs.rows) {
    EXPECT_EQ(row[1].as_string(), "m3.2xlarge");
  }
}

// The equi-join conjunct below triggers the engine's hash-join fast path
// (buckets over the inner table). The contract under test: the output is
// row-for-row identical to the pure nested loop, including order.
TEST_F(EngineTest, HashJoinMatchesNestedLoopRowOrder) {
  const ResultSet rs = engine->execute(
      "SELECT r.id, v.name FROM runs r, vms v WHERE r.vm = v.vm");
  ASSERT_EQ(rs.rows.size(), 5u);
  const std::pair<int, const char*> expect[] = {{1, "m3.xlarge"},
                                                {2, "m3.2xlarge"},
                                                {3, "m3.xlarge"},
                                                {4, "m3.2xlarge"},
                                                {5, "m3.xlarge"}};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rs.rows[i][0].as_int(), expect[i].first);
    EXPECT_EQ(rs.rows[i][1].as_string(), expect[i].second);
  }
}

TEST_F(EngineTest, HashJoinDuplicateKeysPreserveInnerOrder) {
  engine->execute("CREATE TABLE notes (vm int, note varchar(20))");
  engine->execute("INSERT INTO notes VALUES (1, 'a'), (2, 'b'), (1, 'c')");
  const ResultSet rs = engine->execute(
      "SELECT v.vm, n.note FROM vms v, notes n WHERE n.vm = v.vm");
  ASSERT_EQ(rs.rows.size(), 3u);
  // Outer order (vm 1, 2); within vm 1 the notes keep insertion order.
  EXPECT_EQ(rs.rows[0][1].as_string(), "a");
  EXPECT_EQ(rs.rows[1][1].as_string(), "c");
  EXPECT_EQ(rs.rows[2][1].as_string(), "b");
}

TEST_F(EngineTest, HashJoinExtraConjunctsStillFilter) {
  // The hash bucket only narrows candidates; the non-equi conjunct must
  // still be evaluated per candidate row.
  const ResultSet rs = engine->execute(
      "SELECT r.id FROM runs r, vms v "
      "WHERE r.vm = v.vm AND v.name = 'm3.xlarge' AND r.secs > 100");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_int(), 5);
}

TEST_F(EngineTest, HashJoinNullKeysNeverMatch) {
  engine->execute("CREATE TABLE notes (vm int, note varchar(20))");
  engine->execute("INSERT INTO notes VALUES (NULL, 'orphan'), (1, 'ok')");
  const ResultSet rs = engine->execute(
      "SELECT n.note FROM vms v, notes n WHERE n.vm = v.vm");
  ASSERT_EQ(rs.rows.size(), 1u);  // SQL semantics: NULL = x is never true
  EXPECT_EQ(rs.rows[0][0].as_string(), "ok");
}

TEST_F(EngineTest, HashJoinIntAndDoubleKeysCompareNumerically) {
  engine->execute("CREATE TABLE readings (vm float, val int)");
  engine->execute("INSERT INTO readings VALUES (1.0, 10), (2.0, 20), (2.5, 99)");
  // int 1 joins double 1.0 — the key encoding matches Value::compare,
  // which compares all numerics through double.
  const ResultSet rs = engine->execute(
      "SELECT v.vm, r.val FROM vms v, readings r WHERE r.vm = v.vm");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][1].as_int(), 10);
  EXPECT_EQ(rs.rows[1][1].as_int(), 20);
}

TEST_F(EngineTest, HashJoinStringKeysNeverEqualNumbers) {
  engine->execute("CREATE TABLE labels (vm varchar(4), text varchar(8))");
  engine->execute("INSERT INTO labels VALUES ('1', 'one')");
  // '1' = 1 is false under Value::compare (type ranks differ), and the
  // hash encoding keeps the same verdict via distinct s:/n: prefixes.
  const ResultSet rs = engine->execute(
      "SELECT l.text FROM vms v, labels l WHERE l.vm = v.vm");
  EXPECT_EQ(rs.rows.size(), 0u);
}

TEST_F(EngineTest, ThreeTableJoinHashesNonAdjacentReference) {
  engine->execute("CREATE TABLE notes (vm int, note varchar(20))");
  engine->execute("INSERT INTO notes VALUES (1, 'a'), (2, 'b')");
  // Depth 2's equi-key references table 0 (runs), not its neighbour:
  // the probe key must be read from the right outer binding.
  const ResultSet rs = engine->execute(
      "SELECT r.id, v.name, n.note FROM runs r, vms v, notes n "
      "WHERE r.vm = v.vm AND n.vm = r.vm AND r.tag = 'babel'");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].as_int(), 1);
  EXPECT_EQ(rs.rows[0][2].as_string(), "a");
  EXPECT_EQ(rs.rows[1][0].as_int(), 2);
  EXPECT_EQ(rs.rows[1][2].as_string(), "b");
}

TEST_F(EngineTest, GroupByWithAggregates) {
  const ResultSet rs = engine->execute(
      "SELECT tag, min(secs), max(secs), sum(secs), avg(secs), count(*) "
      "FROM runs GROUP BY tag ORDER BY tag");
  ASSERT_EQ(rs.rows.size(), 3u);
  // rows sorted: ad4, babel, vina
  EXPECT_EQ(rs.rows[0][0].as_string(), "ad4");
  EXPECT_EQ(rs.rows[1][0].as_string(), "babel");
  EXPECT_DOUBLE_EQ(rs.rows[1][1].as_double(), 2.5);
  EXPECT_DOUBLE_EQ(rs.rows[1][2].as_double(), 3.5);
  EXPECT_DOUBLE_EQ(rs.rows[1][3].as_double(), 6.0);
  EXPECT_DOUBLE_EQ(rs.rows[1][4].as_double(), 3.0);
  EXPECT_EQ(rs.rows[1][5].as_int(), 2);
  EXPECT_EQ(rs.rows[2][0].as_string(), "vina");
  EXPECT_DOUBLE_EQ(rs.rows[2][4].as_double(), 150.0);
}

TEST_F(EngineTest, AggregateWithoutGroupBy) {
  const ResultSet rs = engine->execute("SELECT count(*), avg(secs) FROM runs");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_int(), 5);
  EXPECT_DOUBLE_EQ(rs.rows[0][1].as_double(), 91.2);
}

TEST_F(EngineTest, AggregateOverEmptyInput) {
  const ResultSet rs =
      engine->execute("SELECT count(*) FROM runs WHERE id > 999");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_int(), 0);
}

TEST_F(EngineTest, Having) {
  const ResultSet rs = engine->execute(
      "SELECT tag FROM runs GROUP BY tag HAVING count(*) > 1 ORDER BY tag");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].as_string(), "babel");
  EXPECT_EQ(rs.rows[1][0].as_string(), "vina");
}

TEST_F(EngineTest, HavingAggregateInsideInAndBetween) {
  const ResultSet in_rs = engine->execute(
      "SELECT tag FROM runs GROUP BY tag HAVING count(*) IN (2) ORDER BY tag");
  ASSERT_EQ(in_rs.rows.size(), 2u);
  EXPECT_EQ(in_rs.rows[0][0].as_string(), "babel");
  EXPECT_EQ(in_rs.rows[1][0].as_string(), "vina");
  const ResultSet between = engine->execute(
      "SELECT tag FROM runs GROUP BY tag HAVING sum(secs) BETWEEN 100 AND 200");
  ASSERT_EQ(between.rows.size(), 1u);
  EXPECT_EQ(between.rows[0][0].as_string(), "ad4");
}

TEST_F(EngineTest, OrderByMultipleKeysAndLimit) {
  const ResultSet rs = engine->execute(
      "SELECT id FROM runs ORDER BY vm ASC, secs DESC LIMIT 2");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].as_int(), 5);  // vm 1, 150s
  EXPECT_EQ(rs.rows[1][0].as_int(), 3);  // vm 1, 100s
}

TEST_F(EngineTest, Distinct) {
  const ResultSet rs = engine->execute("SELECT DISTINCT vm FROM runs");
  EXPECT_EQ(rs.rows.size(), 2u);
}

TEST_F(EngineTest, LikePatterns) {
  const ResultSet rs =
      engine->execute("SELECT name FROM vms WHERE name LIKE 'm3.%large'");
  EXPECT_EQ(rs.rows.size(), 2u);
  const ResultSet rs2 =
      engine->execute("SELECT name FROM vms WHERE name LIKE '%2xlarge'");
  EXPECT_EQ(rs2.rows.size(), 1u);
  const ResultSet rs3 =
      engine->execute("SELECT name FROM vms WHERE name LIKE 'm_.xlarge'");
  EXPECT_EQ(rs3.rows.size(), 1u);
}

TEST_F(EngineTest, ExtractEpochOnNumericTimestamps) {
  const ResultSet rs = engine->execute(
      "SELECT extract('epoch' from (secs - 0.5)) FROM runs WHERE id = 1");
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 2.0);
}

TEST_F(EngineTest, ScalarFunctions) {
  const ResultSet rs = engine->execute(
      "SELECT abs(-3), round(2.7), upper('ab'), lower('CD'), length('hello'), "
      "coalesce(NULL, 7), substr('abcdef', 2, 3) FROM vms LIMIT 1");
  const Row& r = rs.rows[0];
  EXPECT_EQ(r[0].as_int(), 3);
  EXPECT_DOUBLE_EQ(r[1].as_double(), 3.0);
  EXPECT_EQ(r[2].as_string(), "AB");
  EXPECT_EQ(r[3].as_string(), "cd");
  EXPECT_EQ(r[4].as_int(), 5);
  EXPECT_EQ(r[5].as_int(), 7);
  EXPECT_EQ(r[6].as_string(), "bcd");
}

TEST_F(EngineTest, ArithmeticAndConcat) {
  const ResultSet rs = engine->execute(
      "SELECT 7 / 2.0, 7 % 3, 'a' || 'b' || 'c' FROM vms LIMIT 1");
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 3.5);
  EXPECT_EQ(rs.rows[0][1].as_int(), 1);
  EXPECT_EQ(rs.rows[0][2].as_string(), "abc");
}

TEST_F(EngineTest, NullHandling) {
  engine->execute("CREATE TABLE n (a int)");
  engine->execute("INSERT INTO n VALUES (NULL), (1)");
  EXPECT_EQ(engine->execute("SELECT count(a) FROM n").rows[0][0].as_int(), 1);
  EXPECT_EQ(engine->execute("SELECT count(*) FROM n").rows[0][0].as_int(), 2);
  EXPECT_EQ(engine->execute("SELECT a FROM n WHERE a IS NULL").rows.size(), 1u);
  EXPECT_EQ(engine->execute("SELECT a FROM n WHERE a IS NOT NULL").rows.size(), 1u);
  // NULL comparisons are never true.
  EXPECT_EQ(engine->execute("SELECT a FROM n WHERE a = a").rows.size(), 1u);
}

TEST_F(EngineTest, DeleteReportsCount) {
  const ResultSet rs = engine->execute("DELETE FROM runs WHERE tag = 'babel'");
  EXPECT_EQ(rs.rows[0][0].as_int(), 2);
  EXPECT_EQ(engine->execute("SELECT * FROM runs").rows.size(), 3u);
}

TEST_F(EngineTest, InsertWithColumnList) {
  engine->execute("INSERT INTO runs (id, tag) VALUES (9, 'x')");
  const ResultSet rs = engine->execute("SELECT secs FROM runs WHERE id = 9");
  EXPECT_TRUE(rs.rows[0][0].is_null());
}

TEST_F(EngineTest, ErrorsOnUnknownEntities) {
  EXPECT_THROW(engine->execute("SELECT * FROM nope"), NotFoundError);
  EXPECT_THROW(engine->execute("SELECT nope FROM runs"), NotFoundError);
  EXPECT_THROW(engine->execute("SELECT nope(1) FROM runs"), NotFoundError);
  EXPECT_THROW(engine->execute("SELECT vm FROM runs r, vms v"), Error);  // ambiguous
}

TEST_F(EngineTest, UnknownColumnOnEmptyTableIsRefused) {
  // The binder resolves every clause before a row is read, so an empty
  // table does not hide a bad reference.
  engine->execute("CREATE TABLE empty (a int)");
  EXPECT_THROW(engine->execute("SELECT nope FROM empty"), NotFoundError);
  EXPECT_THROW(engine->execute("SELECT a FROM empty ORDER BY nope"),
               NotFoundError);
  EXPECT_THROW(engine->execute("SELECT a FROM empty WHERE a = 1 AND "
                               "upper() = 'X'"),
               InvalidStateError);
  EXPECT_EQ(engine->execute("SELECT a FROM empty").rows.size(), 0u);
}

TEST_F(EngineTest, HashJoinKeysFoldSignedZeroAndNaN) {
  // -0.0 shares 0's bucket, and a NaN of either sign shares one NaN
  // bucket, as the text keys "n:0" and "n:nan" did.
  engine->execute("CREATE TABLE z (v float, tag varchar(8))");
  engine->execute("INSERT INTO z VALUES (-0.0, 'negzero')");
  db.table("z").insert({Value(std::nan("")), Value("nan")});
  engine->execute("CREATE TABLE k (v float)");
  engine->execute("INSERT INTO k VALUES (0)");
  db.table("k").insert({Value(-std::nan(""))});
  const ResultSet rs = engine->execute(
      "SELECT z.tag FROM k, z WHERE z.v = k.v");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].as_string(), "negzero");
  EXPECT_EQ(rs.rows[1][0].as_string(), "nan");
}

TEST_F(EngineTest, NaNJoinsAlikeThroughHashAndNestedLoop) {
  // NaN equals only NaN, so the hash-join spelling (plain columns) and the
  // nested-loop spelling (k.v + 0 is no plain column) return the same
  // rows: before, the nested loop also matched NaN against 5.
  engine->execute("CREATE TABLE gv (v float, tag varchar(8))");
  db.table("gv").insert({Value(std::nan("")), Value("nan")});
  db.table("gv").insert({Value(5.0), Value("five")});
  engine->execute("CREATE TABLE kv (v float)");
  db.table("kv").insert({Value(5)});
  db.table("kv").insert({Value(std::nan(""))});
  const ResultSet hashed =
      engine->execute("SELECT g.tag FROM kv k, gv g WHERE g.v = k.v");
  const ResultSet looped =
      engine->execute("SELECT g.tag FROM kv k, gv g WHERE g.v = k.v + 0");
  ASSERT_EQ(hashed.rows.size(), 2u);
  EXPECT_EQ(hashed.rows[0][0].as_string(), "five");
  EXPECT_EQ(hashed.rows[1][0].as_string(), "nan");
  EXPECT_EQ(looped.rows, hashed.rows);
}

TEST_F(EngineTest, GroupByKeysOnTypedValues) {
  // All four keys print as "1" at %.6g; grouping on that text used to
  // put them in one group of 4.
  engine->execute("CREATE TABLE g (k varchar(8))");
  for (const Value& k : {Value(1.0000001), Value(1.0000002), Value(1), Value("1")}) {
    db.table("g").insert({k});
  }
  ResultSet rs = engine->execute("SELECT k, count(*) FROM g GROUP BY k");
  ASSERT_EQ(rs.rows.size(), 4u);
  // Numbers sort numerically and before strings.
  EXPECT_TRUE(rs.rows[0][0].is_int());
  EXPECT_DOUBLE_EQ(rs.rows[1][0].as_double(), 1.0000001);
  EXPECT_DOUBLE_EQ(rs.rows[2][0].as_double(), 1.0000002);
  EXPECT_EQ(rs.rows[3][0].as_string(), "1");
  for (const Row& row : rs.rows) EXPECT_EQ(row[1].as_int(), 1);

  // Integer 2 and double 2.0 are equal in SQL, so they share a group.
  db.table("g").insert({Value(2)});
  db.table("g").insert({Value(2.0)});
  rs = engine->execute("SELECT k, count(*) FROM g GROUP BY k");
  ASSERT_EQ(rs.rows.size(), 5u);
  EXPECT_EQ(rs.rows[3][0].as_int(), 2);
  EXPECT_EQ(rs.rows[3][1].as_int(), 2);
}

TEST_F(EngineTest, PartitionedTableScansEveryShardInOrder) {
  // A second shard with one more run and no vms rows: `runs` is scanned
  // in both shards, shard 0 first, and `vms` is read from shard 0 only.
  Database shard1;
  shard1.create_table("runs", db.table("runs").columns());
  shard1.create_table("vms", db.table("vms").columns());
  shard1.table("runs").insert({Value(6), Value("babel"), Value(4.5), Value(2)});
  Engine sharded({&db, &shard1}, {"runs"});

  const ResultSet joined = sharded.execute(
      "SELECT r.id, v.name FROM vms v, runs r WHERE r.vm = v.vm");
  ASSERT_EQ(joined.rows.size(), 6u);
  const int expect_ids[] = {1, 3, 5, 2, 4, 6};  // vm 1's runs, then vm 2's
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(joined.rows[i][0].as_int(), expect_ids[i]);
  }
  const ResultSet grouped = sharded.execute(
      "SELECT tag, count(*), sum(secs) FROM runs GROUP BY tag ORDER BY tag");
  ASSERT_EQ(grouped.rows.size(), 3u);
  EXPECT_EQ(grouped.rows[1][0].as_string(), "babel");
  EXPECT_EQ(grouped.rows[1][1].as_int(), 3);
  EXPECT_DOUBLE_EQ(grouped.rows[1][2].as_double(), 10.5);

  // Across shards only SELECT runs; one shard takes every statement.
  EXPECT_THROW(sharded.execute("DELETE FROM runs"), InvalidStateError);
  EXPECT_EQ(db.table("runs").row_count(), 5u);
  Engine single({&shard1}, {"runs"});
  EXPECT_EQ(single.execute("DELETE FROM runs").rows[0][0].as_int(), 1);
}

TEST_F(EngineTest, ScalarFunctionArityChecked) {
  // Regression: floor() with no arguments used to index args[0] out of
  // bounds instead of raising; every scalar now validates its arity.
  EXPECT_THROW(engine->execute("SELECT floor() FROM vms"), Error);
  EXPECT_THROW(engine->execute("SELECT ceil() FROM vms"), Error);
  EXPECT_THROW(engine->execute("SELECT abs(1, 2) FROM vms"), Error);
  EXPECT_THROW(engine->execute("SELECT round(1, 2, 3) FROM vms"), Error);
  EXPECT_THROW(engine->execute("SELECT upper() FROM vms"), Error);
  EXPECT_THROW(engine->execute("SELECT substr(name) FROM vms"), Error);
  EXPECT_THROW(engine->execute("SELECT coalesce() FROM vms"), Error);
  // Null propagates through the merged floor/ceil branch.
  const ResultSet rs =
      engine->execute("SELECT floor(null), ceiling(null) FROM vms");
  EXPECT_TRUE(rs.rows[0][0].is_null());
  EXPECT_TRUE(rs.rows[0][1].is_null());
}

TEST_F(EngineTest, DivisionByZeroRejected) {
  EXPECT_THROW(engine->execute("SELECT 1 / 0.0 FROM vms"), Error);
  EXPECT_THROW(engine->execute("SELECT 1 % 0 FROM vms"), Error);
}

TEST_F(EngineTest, ResultSetRendering) {
  const ResultSet rs = engine->execute("SELECT vm, name FROM vms ORDER BY vm");
  const std::string text = rs.to_text();
  EXPECT_NE(text.find("m3.xlarge"), std::string::npos);
  EXPECT_NE(text.find("(2 rows)"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST_F(EngineTest, OrderByResolvesSelectAliases) {
  const ResultSet rs = engine->execute(
      "SELECT id, secs * 2 AS doubled FROM runs ORDER BY doubled DESC LIMIT 2");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].as_int(), 4);  // 200s
  EXPECT_EQ(rs.rows[1][0].as_int(), 5);  // 150s
  // Aggregate aliases too.
  const ResultSet grouped = engine->execute(
      "SELECT tag, avg(secs) AS mean FROM runs GROUP BY tag ORDER BY mean");
  EXPECT_EQ(grouped.rows[0][0].as_string(), "babel");
  EXPECT_EQ(grouped.rows[2][0].as_string(), "vina");
}

TEST_F(EngineTest, InAndNotIn) {
  const ResultSet in_rs =
      engine->execute("SELECT id FROM runs WHERE tag IN ('babel', 'ad4') "
                      "ORDER BY id");
  ASSERT_EQ(in_rs.rows.size(), 3u);
  EXPECT_EQ(in_rs.rows[2][0].as_int(), 5);
  const ResultSet not_in =
      engine->execute("SELECT count(*) FROM runs WHERE tag NOT IN ('vina')");
  EXPECT_EQ(not_in.rows[0][0].as_int(), 3);
  // NULL probe is never IN anything.
  engine->execute("CREATE TABLE ni (a int)");
  engine->execute("INSERT INTO ni VALUES (NULL)");
  EXPECT_EQ(engine->execute("SELECT count(*) FROM ni WHERE a IN (1, 2)")
                .rows[0][0]
                .as_int(),
            0);
}

TEST_F(EngineTest, BetweenAndNotBetween) {
  const ResultSet rs = engine->execute(
      "SELECT id FROM runs WHERE secs BETWEEN 3.0 AND 150.0 ORDER BY id");
  ASSERT_EQ(rs.rows.size(), 3u);  // 3.5, 100, 150 (inclusive bounds)
  EXPECT_EQ(rs.rows[0][0].as_int(), 2);
  EXPECT_EQ(rs.rows[2][0].as_int(), 5);
  const ResultSet neg = engine->execute(
      "SELECT count(*) FROM runs WHERE secs NOT BETWEEN 3.0 AND 150.0");
  EXPECT_EQ(neg.rows[0][0].as_int(), 2);
}

TEST_F(EngineTest, UpdateWithWhere) {
  const ResultSet rs =
      engine->execute("UPDATE runs SET secs = secs * 2 WHERE tag = 'babel'");
  EXPECT_EQ(rs.rows[0][0].as_int(), 2);  // rows updated
  const ResultSet check =
      engine->execute("SELECT sum(secs) FROM runs WHERE tag = 'babel'");
  EXPECT_DOUBLE_EQ(check.rows[0][0].as_double(), 12.0);
  // Other rows untouched.
  const ResultSet rest =
      engine->execute("SELECT sum(secs) FROM runs WHERE tag <> 'babel'");
  EXPECT_DOUBLE_EQ(rest.rows[0][0].as_double(), 450.0);
}

TEST_F(EngineTest, UpdateMultiAssignmentUsesPreUpdateValues) {
  engine->execute("CREATE TABLE swap (a int, b int)");
  engine->execute("INSERT INTO swap VALUES (1, 2)");
  engine->execute("UPDATE swap SET a = b, b = a");
  const ResultSet rs = engine->execute("SELECT a, b FROM swap");
  EXPECT_EQ(rs.rows[0][0].as_int(), 2);
  EXPECT_EQ(rs.rows[0][1].as_int(), 1);
}

TEST_F(EngineTest, UpdateAllRowsAndUnknownColumn) {
  const ResultSet rs = engine->execute("UPDATE runs SET vm = 9");
  EXPECT_EQ(rs.rows[0][0].as_int(), 5);
  EXPECT_THROW(engine->execute("UPDATE runs SET nope = 1"), Error);
}

/// sum(x) over `xs`, inserted in order and dealt round-robin over `shards`.
double sql_sum(const std::vector<double>& xs, std::size_t shards) {
  std::vector<Database> dbs(shards);
  std::vector<Database*> ptrs;
  for (Database& db : dbs) {
    db.create_table("t", {"x"});
    ptrs.push_back(&db);
  }
  for (std::size_t i = 0; i < xs.size(); ++i) {
    dbs[i % shards].table("t").insert({Value(xs[i])});
  }
  return Engine(ptrs, {"t"}).execute("SELECT sum(x) FROM t").rows[0][0].as_double();
}

TEST(Aggregate, SumIsExactlyRoundedInAnyOrder) {
  // Scan-order addition gives 0 or 1 here depending on the order.
  std::vector<double> xs = {1e16, 1.0, -1e16};
  std::sort(xs.begin(), xs.end());
  do {
    EXPECT_EQ(sql_sum(xs, 1), 1.0);
  } while (std::next_permutation(xs.begin(), xs.end()));
  const double max = std::numeric_limits<double>::max();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(sql_sum({0.1, 0.2}, 1), 0.1 + 0.2);  // a tie, to even
  EXPECT_EQ(sql_sum({0x1p53, 1.0}, 1), 0x1p53);  // a tie, to even
  EXPECT_EQ(sql_sum({0x1p53, 1.0, 0x1p-60}, 1), 0x1p53 + 2);  // past the tie
  EXPECT_EQ(sql_sum({-1.5, -2.25}, 1), -3.75);
  EXPECT_EQ(sql_sum({tiny, tiny, tiny}, 1), 3 * tiny);
  EXPECT_EQ(sql_sum({max, tiny, -max}, 1), tiny);
  EXPECT_EQ(sql_sum({max, max}, 1), inf);
  EXPECT_EQ(sql_sum({inf, 1.0}, 1), inf);
  EXPECT_TRUE(std::isnan(sql_sum({inf, 1.0, -inf}, 1)));

  // Multiples of 2^-30 below 2^22: their sum is an int64 count of 2^-30,
  // which converts to double rounded once. Any shuffle and shard count
  // gives that double.
  Rng rng(17);
  std::vector<double> terms;
  std::int64_t units = 0;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t m = rng.range(-(std::int64_t{1} << 52), std::int64_t{1} << 52);
    units += m;
    terms.push_back(std::ldexp(static_cast<double>(m), -30));
  }
  const double exact = std::ldexp(static_cast<double>(units), -30);
  for (int round = 0; round < 5; ++round) {
    std::shuffle(terms.begin(), terms.end(), rng);
    for (const std::size_t shards : {1, 3, 4}) {
      EXPECT_EQ(sql_sum(terms, shards), exact) << "shards=" << shards;
    }
  }
}

TEST(Database, TableLifecycle) {
  Database db;
  db.create_table("t", {"a"});
  EXPECT_TRUE(db.has_table("T"));  // case-insensitive
  EXPECT_THROW(db.create_table("t", {"b"}), InvalidStateError);
  EXPECT_EQ(db.table_names().size(), 1u);
  db.drop_table("t");
  EXPECT_FALSE(db.has_table("t"));
  EXPECT_THROW(db.table("t"), NotFoundError);
  EXPECT_THROW(db.drop_table("t"), NotFoundError);
}

TEST(Table, RowWidthEnforced) {
  Table t("x", {"a", "b"});
  EXPECT_THROW(t.insert({Value(1)}), InvalidStateError);
  t.insert({Value(1), Value(2)});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.column_index("B"), 1);
  EXPECT_EQ(t.column_index("z"), -1);
}

}  // namespace
}  // namespace scidock::sql

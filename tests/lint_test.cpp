// Tests for the scidock-lint static analyzer: the workflow algebra
// checker (WF001..WF010), the SQL semantic checker (SQL001..SQL008) over
// the binder, and the fixture corpus under tests/lint/. The runtime LD
// rules share the catalog but are exercised by the lockdep suite
// (tests/lockdep_test.cpp) — they have no file fixtures by design.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/diagnostics.hpp"
#include "lint/sql_lint.hpp"
#include "lint/wf_lint.hpp"
#include "scidock/analysis.hpp"
#include "scidock/scidock.hpp"
#include "sql/table.hpp"
#include "util/rng.hpp"
#include "wf/spec.hpp"
#include "xml/xml.hpp"

namespace scidock::lint {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(SCIDOCK_LINT_FIXTURE_DIR) + "/" + name;
}

std::string read_fixture(const std::string& name) {
  std::ifstream in(fixture_path(name), std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Empty databases of the two schemas the shipped queries run on.
const sql::Database& prov_schema() {
  static const sql::Database db = core::query_schema("prov");
  return db;
}

const sql::Database& rel_schema() {
  static const sql::Database db = core::query_schema("rel");
  return db;
}

/// Assert that every diagnostic in the report carries exactly `rule` —
/// the fixture contract: one defect class per negative fixture.
void expect_only_rule(const Report& report, const std::string& rule,
                      const std::string& what) {
  EXPECT_FALSE(report.clean()) << what << ": expected " << rule
                               << " but the report is clean";
  for (const Diagnostic& d : report.diagnostics()) {
    EXPECT_EQ(d.rule, rule) << what << ": stray diagnostic\n" << d.format();
  }
}

// ------------------------------------------------- fixture corpus: good

TEST(LintFixtures, GoodWorkflowsAreClean) {
  for (const char* name :
       {"good/workflow_sciDock.xml", "good/workflow_splitmap.xml"}) {
    const Report report = lint_workflow_xml(read_fixture(name), name);
    EXPECT_TRUE(report.clean()) << name << ":\n" << report.format();
  }
}

TEST(LintFixtures, GoodQueriesAreClean) {
  const Report q1 =
      lint_query(read_fixture("good/query1.sql"), prov_schema());
  EXPECT_TRUE(q1.clean()) << q1.format();
  const Report screen =
      lint_query(read_fixture("good/screen_summary.sql"), rel_schema());
  EXPECT_TRUE(screen.clean()) << screen.format();
}

// -------------------------------------------- fixture corpus: negative

TEST(LintFixtures, EveryWorkflowRuleHasATriggeringFixture) {
  for (const char* rule : {"WF001", "WF002", "WF003", "WF004", "WF005",
                           "WF006", "WF007", "WF008", "WF009", "WF010"}) {
    std::string lower(rule);
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    std::string name;
    for (const char* candidate :
         {"bad/wf001_missing_workflow.xml", "bad/wf002_unknown_operator.xml",
          "bad/wf003_operator_arity.xml", "bad/wf004_duplicate_tag.xml",
          "bad/wf005_schema_mismatch.xml", "bad/wf006_cycle.xml",
          "bad/wf007_dangling_input.xml", "bad/wf008_bad_template.xml",
          "bad/wf009_dangling_tag.xml", "bad/wf010_undeclared_tag.xml"}) {
      if (std::string(candidate).find(lower) != std::string::npos) {
        name = candidate;
      }
    }
    ASSERT_FALSE(name.empty()) << "no fixture for " << rule;
    expect_only_rule(lint_workflow_xml(read_fixture(name), name), rule, name);
  }
}

TEST(LintFixtures, EverySqlRuleHasATriggeringFixture) {
  const struct {
    const char* rule;
    const char* name;
  } cases[] = {
      {"SQL001", "bad/sql001_syntax.sql"},
      {"SQL002", "bad/sql002_unknown_table.sql"},
      {"SQL003", "bad/sql003_unknown_column.sql"},
      {"SQL004", "bad/sql004_unknown_function.sql"},
      {"SQL005", "bad/sql005_aggregate_misuse.sql"},
      {"SQL006", "bad/sql006_ungrouped_column.sql"},
      {"SQL007", "bad/sql007_type_mismatch.sql"},
      {"SQL008", "bad/sql008_unknown_metric.sql"},
  };
  for (const auto& c : cases) {
    expect_only_rule(lint_query(read_fixture(c.name), prov_schema(),
                                c.name),
                     c.rule, c.name);
  }
}

TEST(LintFixtures, CatalogCoversEveryFixtureRule) {
  // Every rule in the catalog is exercised above; conversely every rule ID
  // used by the fixtures exists in the catalog.
  const std::vector<RuleInfo>& catalog = rule_catalog();
  EXPECT_EQ(catalog.size(), 23u);
  for (const RuleInfo& rule : catalog) {
    EXPECT_TRUE(rule.id.rfind("WF", 0) == 0 || rule.id.rfind("SQL", 0) == 0 ||
                rule.id.rfind("LD", 0) == 0)
        << rule.id;
    EXPECT_FALSE(rule.summary.empty()) << rule.id;
  }
}

// ------------------------------------------------- shipped content gate

TEST(LintShipped, BuiltinWorkflowIsClean) {
  const wf::WorkflowDef def =
      core::scidock_workflow_def(core::ScidockOptions{});
  const Report report = lint_workflow(def, "builtin");
  EXPECT_TRUE(report.clean()) << report.format();
}

TEST(LintShipped, AllShippedQueriesAreClean) {
  for (const core::ShippedQuery& q : core::shipped_queries()) {
    const Report report = lint_query(
        q.sql, q.catalog == "rel" ? rel_schema() : prov_schema(), q.name);
    EXPECT_TRUE(report.clean()) << q.name << ":\n" << report.format();
  }
}

// ----------------------------------------------- targeted unit coverage

TEST(WorkflowLint, ReportsLineNumbers) {
  const Report report = lint_workflow_xml(
      read_fixture("bad/wf007_dangling_input.xml"), "wf007.xml");
  ASSERT_FALSE(report.clean());
  EXPECT_GT(report.diagnostics()[0].line, 0);
  EXPECT_NE(report.diagnostics()[0].format().find("wf007.xml:"),
            std::string::npos);
}

TEST(WorkflowLint, XmlSyntaxErrorIsWF001) {
  const Report report = lint_workflow_xml("<SciCumulus><unclosed>", "x.xml");
  expect_only_rule(report, "WF001", "syntax error");
}

TEST(WorkflowLint, BadDatabasePortIsWF001) {
  const Report report = lint_workflow_xml(
      "<SciCumulus><database port=\"70000\"/>"
      "<SciCumulusWorkflow tag=\"w\">"
      "<SciCumulusActivity tag=\"a\" type=\"MAP\">"
      "<Relation reltype=\"Input\" name=\"r\" filename=\"f.txt\"/>"
      "<Relation reltype=\"Output\" name=\"s\"/>"
      "</SciCumulusActivity></SciCumulusWorkflow></SciCumulus>");
  expect_only_rule(report, "WF001", "port range");
}

TEST(WorkflowLint, TwoProducersIsWF004) {
  const Report report = lint_workflow_xml(
      "<SciCumulus><SciCumulusWorkflow tag=\"w\">"
      "<SciCumulusActivity tag=\"a\" type=\"MAP\">"
      "<Relation reltype=\"Input\" name=\"in\" filename=\"f.txt\"/>"
      "<Relation reltype=\"Output\" name=\"dup\"/>"
      "</SciCumulusActivity>"
      "<SciCumulusActivity tag=\"b\" type=\"MAP\">"
      "<Relation reltype=\"Input\" name=\"in\" filename=\"f.txt\"/>"
      "<Relation reltype=\"Output\" name=\"dup\"/>"
      "</SciCumulusActivity>"
      "</SciCumulusWorkflow></SciCumulus>");
  expect_only_rule(report, "WF004", "two producers");
}

TEST(WorkflowLint, SplitMapMayFanOut) {
  const Report report = lint_workflow_xml(read_fixture(
      "good/workflow_splitmap.xml"));
  EXPECT_TRUE(report.clean()) << report.format();
}

TEST(WorkflowLint, SchemalessWorkflowSkipsWF010) {
  // No relation anywhere declares fields: nothing can be validated, so an
  // unresolvable-looking tag must not fire (the Figure 2 style of spec).
  const Report report = lint_workflow_xml(
      "<SciCumulus><SciCumulusWorkflow tag=\"w\">"
      "<SciCumulusActivity tag=\"a\" type=\"MAP\" "
      "activation=\"./a.cmd %pair%\">"
      "<Relation reltype=\"Input\" name=\"in\" filename=\"f.txt\"/>"
      "<Relation reltype=\"Output\" name=\"out\"/>"
      "</SciCumulusActivity></SciCumulusWorkflow></SciCumulus>");
  EXPECT_TRUE(report.clean()) << report.format();
}

TEST(WorkflowLint, TagDeclaredElsewhereSkipsWF010) {
  // stage_b's input is schema-less but 'pair' is declared by stage_a's
  // relations, so the tag is plausibly bound downstream: no finding.
  const Report report = lint_workflow_xml(
      "<SciCumulus><SciCumulusWorkflow tag=\"w\">"
      "<SciCumulusActivity tag=\"a\" type=\"MAP\" "
      "activation=\"./a.cmd %pair%\">"
      "<Relation reltype=\"Input\" name=\"in\" filename=\"f.txt\" "
      "fields=\"pair\"/>"
      "<Relation reltype=\"Output\" name=\"mid\" fields=\"pair\"/>"
      "</SciCumulusActivity>"
      "<SciCumulusActivity tag=\"b\" type=\"MAP\" "
      "activation=\"./b.cmd %pair%\">"
      "<Relation reltype=\"Input\" name=\"mid\"/>"
      "<Relation reltype=\"Output\" name=\"out\"/>"
      "</SciCumulusActivity></SciCumulusWorkflow></SciCumulus>");
  EXPECT_TRUE(report.clean()) << report.format();
}

// ------------------------------ property: load_spec agrees with the linter

/// Rebuilds a spec DOM with one random edit at one non-root element: the
/// element dropped, duplicated or renamed, or one of its attributes
/// dropped, renamed or given a value taken from the fixture corpus.
class SpecMutator {
 public:
  SpecMutator(Rng& rng, std::vector<std::string> values)
      : rng_(rng), values_(std::move(values)) {}

  xml::Document mutate(const xml::Element& root) {
    const std::size_t elements = count(root);
    target_ = elements > 1 ? 1 + rng_.below(elements - 1) : 0;
    edit_ = static_cast<int>(rng_.below(6));
    next_ = 1;
    xml::Document doc;
    doc.root = std::make_unique<xml::Element>(root.name());
    for (const auto& [key, value] : root.attributes()) {
      doc.root->set_attribute(key, value);
    }
    for (const auto& child : root.children()) copy_into(*child, *doc.root);
    return doc;
  }

 private:
  static std::size_t count(const xml::Element& e) {
    std::size_t n = 1;
    for (const auto& child : e.children()) n += count(*child);
    return n;
  }

  template <typename Range>
  std::string pick(const Range& range) {
    const auto n = static_cast<std::uint64_t>(std::size(range));
    return std::string(*std::next(std::begin(range),
                                  static_cast<std::ptrdiff_t>(rng_.below(n))));
  }

  void copy_into(const xml::Element& src, xml::Element& dst) {
    static constexpr const char* kElements[] = {
        "SciCumulus", "database", "SciCumulusWorkflow", "SciCumulusActivity",
        "Relation",   "File"};
    static constexpr const char* kAttributes[] = {
        "tag",    "type",       "name",        "reltype", "filename",
        "fields", "activation", "templatedir", "port"};
    std::string name = src.name();
    std::vector<std::pair<std::string, std::string>> attrs = src.attributes();
    int copies = 1;
    if (next_++ == target_) {
      const auto at = [&] {
        return static_cast<std::ptrdiff_t>(rng_.below(attrs.size()));
      };
      switch (edit_) {
        case 0: copies = 0; break;
        case 1: copies = 2; break;
        case 2: name = pick(kElements); break;
        case 3: if (!attrs.empty()) attrs.erase(attrs.begin() + at()); break;
        case 4: if (!attrs.empty()) attrs[at()].first = pick(kAttributes); break;
        default: if (!attrs.empty()) attrs[at()].second = pick(values_); break;
      }
    }
    for (int c = 0; c < copies; ++c) {
      xml::Element& out = dst.add_child(name);
      for (const auto& [key, value] : attrs) out.set_attribute(key, value);
      out.set_text(src.text());
      for (const auto& child : src.children()) copy_into(*child, out);
    }
  }

  Rng& rng_;
  std::vector<std::string> values_;
  std::size_t target_ = 0;
  std::size_t next_ = 0;
  int edit_ = 0;
};

void collect_values(const xml::Element& e, std::set<std::string>& out) {
  for (const auto& attribute : e.attributes()) out.insert(attribute.second);
  for (const auto& child : e.children()) collect_values(*child, out);
}

TEST(SpecProperty, LoaderAndLinterAgreeOnMutants) {
  // Fixed seed and mutant count: the same 3,600 specs on every run.
  constexpr std::uint64_t kSeed = 0x5bec5eedULL;
  constexpr int kMutantsPerFixture = 300;
  const char* fixtures[] = {
      "bad/wf001_missing_workflow.xml", "bad/wf002_unknown_operator.xml",
      "bad/wf003_operator_arity.xml",   "bad/wf004_duplicate_tag.xml",
      "bad/wf005_schema_mismatch.xml",  "bad/wf006_cycle.xml",
      "bad/wf007_dangling_input.xml",   "bad/wf008_bad_template.xml",
      "bad/wf009_dangling_tag.xml",     "bad/wf010_undeclared_tag.xml",
      "good/workflow_sciDock.xml",      "good/workflow_splitmap.xml"};
  std::vector<xml::Document> originals;
  std::set<std::string> values = {"70000"};
  for (const char* name : fixtures) {
    originals.push_back(xml::parse(read_fixture(name)));
    collect_values(*originals.back().root, values);
  }

  Rng rng(kSeed);
  SpecMutator mutator(rng, {values.begin(), values.end()});
  std::size_t loaded = 0;
  std::set<std::string> first_rules;
  for (const xml::Document& original : originals) {
    for (int m = 0; m < kMutantsPerFixture; ++m) {
      xml::Document mutant = mutator.mutate(*original.root);
      for (auto edits = rng.below(3); edits > 0; --edits) {
        mutant = mutator.mutate(*mutant.root);
      }
      const std::string text = mutant.to_string();
      const Report report = lint_workflow_xml(text);
      std::string error;
      try {
        wf::load_spec(text);
      } catch (const ParseError& e) {
        error = e.what();
      } catch (const std::exception& e) {
        FAIL() << "load_spec threw a non-ParseError: " << e.what() << "\n"
               << text;
      }
      if (report.clean()) {
        ASSERT_EQ(error, "") << text;
        ++loaded;
        continue;
      }
      const Diagnostic& first = report.diagnostics().front();
      const std::string expected =
          "[" + first.rule + "] line " + std::to_string(first.line) + ": ";
      ASSERT_NE(error.find(expected), std::string::npos)
          << "lint: " << first.format() << "\nload_spec: '" << error << "'\n"
          << text;
      first_rules.insert(first.rule);
    }
  }
  // The corpus reaches both outcomes, and each of WF001..WF010 is the
  // first finding of some mutant.
  EXPECT_GT(loaded, 0u);
  EXPECT_EQ(first_rules.size(), 10u);
}

TEST(SqlLint, ReconcileAnnotationWithKnownMetricIsClean) {
  const Report report = lint_query(
      "-- reconciles: scidock_executor_activations_started_total\n"
      "SELECT count(*) FROM hactivation",
      prov_schema());
  EXPECT_TRUE(report.clean()) << report.format();
}

TEST(SqlLint, ReconcileAnnotationListValidatesEveryName) {
  const Report report = lint_query(
      "-- reconciles: scidock_cache_gridmaps_hits_total, nosuch_metric,\n"
      "-- reconciles: another_bad_one\n"
      "SELECT count(*) FROM hactivation",
      prov_schema());
  EXPECT_EQ(report.count("SQL008"), 2u) << report.format();
  EXPECT_NE(report.diagnostics()[0].message.find("nosuch_metric"),
            std::string::npos);
}

TEST(SqlLint, UnknownTableSuppressesColumnCascade) {
  const Report report =
      lint_query("SELECT nosuch.col FROM nosuch", prov_schema());
  expect_only_rule(report, "SQL002", "cascade suppression");
}

TEST(SqlLint, AmbiguousColumnIsSQL003) {
  // `tag` exists in both hworkflow and hactivity.
  const Report report = lint_query(
      "SELECT tag FROM hworkflow w, hactivity a WHERE w.wkfid = a.wkfid",
      prov_schema());
  expect_only_rule(report, "SQL003", "ambiguous");
  EXPECT_NE(report.diagnostics()[0].message.find("ambiguous"),
            std::string::npos);
}

TEST(SqlLint, BadExtractFieldIsSQL004) {
  const Report report = lint_query(
      "SELECT extract('century' from starttime) FROM hworkflow",
      prov_schema());
  expect_only_rule(report, "SQL004", "extract field");
}

TEST(SqlLint, NestedAggregateIsSQL005) {
  const Report report = lint_query("SELECT sum(min(attempts)) FROM hactivation",
                                   prov_schema());
  expect_only_rule(report, "SQL005", "nested aggregate");
}

TEST(SqlLint, StarOnNonCountAggregateIsSQL005) {
  const Report report =
      lint_query("SELECT min(*) FROM hactivation", prov_schema());
  expect_only_rule(report, "SQL005", "min(*)");
}

TEST(SqlLint, OrderByAliasResolvesLikeTheEngine) {
  // `dur` is a select-list alias; the engine substitutes the aliased
  // expression (PostgreSQL semantics), so this must lint clean.
  const Report report = lint_query(
      "SELECT extract('epoch' from (endtime - starttime)) dur "
      "FROM hactivation ORDER BY dur DESC",
      prov_schema());
  EXPECT_TRUE(report.clean()) << report.format();
}

TEST(SqlLint, UngroupedOrderByColumnIsSQL006) {
  const Report report = lint_query(
      "SELECT status, count(*) FROM hactivation GROUP BY status "
      "ORDER BY workload",
      prov_schema());
  expect_only_rule(report, "SQL006", "ungrouped ORDER BY");
}

TEST(SqlLint, UnqualifiedGroupByMatchesQualifiedSelect) {
  // `t.status` and `status` resolve to the same catalog column; grouping
  // must compare by identity, not spelling.
  const Report report = lint_query(
      "SELECT t.status, count(*) FROM hactivation t GROUP BY status",
      prov_schema());
  EXPECT_TRUE(report.clean()) << report.format();
}

TEST(SqlLint, SumOverTextIsSQL007) {
  const Report report =
      lint_query("SELECT sum(status) FROM hactivation", prov_schema());
  expect_only_rule(report, "SQL007", "sum(text)");
}

TEST(SqlLint, LikeAgainstNumberIsSQL007) {
  const Report report = lint_query(
      "SELECT fname FROM hfile WHERE fname LIKE 42", prov_schema());
  expect_only_rule(report, "SQL007", "LIKE number");
}

TEST(SqlLint, UpdateAndDeleteResolveAgainstCatalog) {
  EXPECT_TRUE(lint_query("DELETE FROM hvalue WHERE taskid = 3",
                         prov_schema())
                  .clean());
  const Report bad_column = lint_query(
      "UPDATE hactivation SET statuss = 'FAILED' WHERE taskid = 1",
      prov_schema());
  expect_only_rule(bad_column, "SQL003", "UPDATE unknown column");
}

TEST(SqlLint, InsertChecksTableAndColumns) {
  const Report unknown_table = lint_query(
      "INSERT INTO nosuch (a) VALUES (1)", prov_schema());
  expect_only_rule(unknown_table, "SQL002", "INSERT unknown table");
  const Report unknown_column = lint_query(
      "INSERT INTO hmachine (vmid, nosuch) VALUES (1, 2)",
      prov_schema());
  expect_only_rule(unknown_column, "SQL003", "INSERT unknown column");
}

TEST(Diagnostics, FormatIsCompilerStyle) {
  Diagnostic d{"WF003", Severity::Error, "spec.xml", 7, "bad arity"};
  EXPECT_EQ(d.format(), "spec.xml:7: error: [WF003] bad arity");
  Diagnostic no_file{"SQL001", Severity::Error, "", 0, "syntax"};
  EXPECT_EQ(no_file.format(), "error: [SQL001] syntax");
}

}  // namespace
}  // namespace scidock::lint

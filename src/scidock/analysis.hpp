#pragma once

/// \file analysis.hpp
/// Result analysis: the Table 3 statistics (favourable interactions,
/// average FEB, average RMSD per ligand) computed from workflow outputs,
/// and the paper's provenance queries (Query 1, Query 2, the Figure 5
/// histogram query) as ready-to-run SQL.

#include <string>
#include <string_view>
#include <vector>

#include "prov/prov.hpp"
#include "sql/table.hpp"
#include "wf/relation.hpp"

namespace scidock::core {

/// One Table 3 row for one engine.
struct Table3Row {
  std::string ligand;
  int total_pairs = 0;
  int favorable = 0;      ///< count of FEB < 0 ("Total Number of FEB (-)")
  double avg_feb_neg = 0.0;  ///< mean FEB over the favourable subset
  double avg_rmsd = 0.0;     ///< mean RMSD over all docked pairs
};

/// Aggregate an output relation (fields: ligand, feb, rmsd) per ligand.
std::vector<Table3Row> table3_from_relation(const wf::Relation& output);

/// Render rows as an aligned text table (the bench output format).
std::string render_table3(const std::vector<Table3Row>& ad4,
                          const std::vector<Table3Row>& vina);

// ---------------------------------------------------------------------
// The paper's queries, verbatim modulo schema-documented column names.
// ---------------------------------------------------------------------

/// §V.C histogram query: activation durations of one workflow, in end
/// order (drives Figure 5).
std::string figure5_query(long long wkfid);

/// Query 1 (Figure 10): per-activity min/max/sum/avg durations.
std::string query1(long long wkfid);

/// Query 2 (Figure 11): names, sizes and locations of the '.dlg' files
/// with their producing workflow and activity.
std::string query2();

/// Failure forensics (§V.C): activations that needed re-execution,
/// grouped by activity, most-failing first.
std::string forensics_failed_by_activity();

/// The Hg diagnosis: aborted (looping-state) activations per workload —
/// the query that pinned the paper's failures on Hg-bearing receptors.
std::string forensics_hg_aborts(int limit = 8);

/// Runtime steering: the longest FINISHED activations so far.
std::string steering_longest_activations(int limit = 5);

/// The CLI's per-ligand screening summary, an SRQuery over the final
/// output relation exposed as table `rel`.
std::string screen_summary_query();

// ---------------------------------------------------------------------
// Shipped-query registry: every SQL text the repo ships (examples, bench,
// CLI) with the catalog it runs against, so scidock-lint and the fixture
// tests can validate all of them from one place.
// ---------------------------------------------------------------------

/// Declared schema of the docking pipeline's final output relation — the
/// union of the generator's pair fields and every field a pipeline stage
/// emits, with the types wf::to_sql_table gives their values.
std::vector<sql::Column> output_relation_schema();

struct ShippedQuery {
  std::string name;
  std::string sql;
  std::string catalog;  ///< "prov" (PROV-Wf schema) or "rel" (SRQuery)
};

/// All queries shipped in bench/, examples/ and the CLI (representative
/// ids substituted for the parameterised ones).
std::vector<ShippedQuery> shipped_queries();

/// An empty database holding the tables a catalog's queries run against:
/// "prov" the PROV-Wf schema, "rel" the output relation as table `rel`.
sql::Database query_schema(std::string_view catalog);

}  // namespace scidock::core

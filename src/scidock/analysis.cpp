#include "scidock/analysis.hpp"

#include <map>

#include "prov/prov.hpp"
#include "scidock/scidock.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::core {

std::vector<Table3Row> table3_from_relation(const wf::Relation& output) {
  struct Acc {
    int total = 0;
    int favorable = 0;
    double feb_neg_sum = 0.0;
    double rmsd_sum = 0.0;
  };
  std::map<std::string, Acc> by_ligand;
  for (const wf::Tuple& t : output.tuples()) {
    const auto feb = t.get("feb");
    const auto rmsd = t.get("rmsd");
    if (!feb || !rmsd) continue;
    Acc& acc = by_ligand[t.require("ligand")];
    ++acc.total;
    const double f = parse_double(*feb, "feb");
    if (f < 0.0) {
      ++acc.favorable;
      acc.feb_neg_sum += f;
    }
    acc.rmsd_sum += parse_double(*rmsd, "rmsd");
  }
  std::vector<Table3Row> rows;
  for (const auto& [ligand, acc] : by_ligand) {
    Table3Row row;
    row.ligand = ligand;
    row.total_pairs = acc.total;
    row.favorable = acc.favorable;
    row.avg_feb_neg = acc.favorable ? acc.feb_neg_sum / acc.favorable : 0.0;
    row.avg_rmsd = acc.total ? acc.rmsd_sum / acc.total : 0.0;
    rows.push_back(row);
  }
  return rows;
}

std::string render_table3(const std::vector<Table3Row>& ad4,
                          const std::vector<Table3Row>& vina) {
  std::string out;
  out += "Ligand | FEB(-) AD4 | FEB(-) Vina | avgFEB AD4 | avgFEB Vina | "
         "avgRMSD AD4 | avgRMSD Vina\n";
  out += "-------+------------+-------------+------------+-------------+"
         "-------------+-------------\n";
  auto find = [](const std::vector<Table3Row>& rows, const std::string& lig)
      -> const Table3Row* {
    for (const Table3Row& r : rows) {
      if (r.ligand == lig) return &r;
    }
    return nullptr;
  };
  for (const Table3Row& a : ad4) {
    const Table3Row* v = find(vina, a.ligand);
    out += strformat("%-6s | %10d | %11d | %10.1f | %11.1f | %11.1f | %12.1f\n",
                     a.ligand.c_str(), a.favorable, v ? v->favorable : 0,
                     a.avg_feb_neg, v ? v->avg_feb_neg : 0.0, a.avg_rmsd,
                     v ? v->avg_rmsd : 0.0);
  }
  int total_ad4 = 0;
  int total_vina = 0;
  for (const Table3Row& r : ad4) total_ad4 += r.favorable;
  for (const Table3Row& r : vina) total_vina += r.favorable;
  out += strformat("TOTAL favourable interactions: AD4 %d, Vina %d\n",
                   total_ad4, total_vina);
  return out;
}

std::string figure5_query(long long wkfid) {
  return strformat(
      "SELECT extract ('epoch' from (t.endtime-t.starttime)) "
      "FROM hworkflow w, hactivity a, hactivation t "
      "WHERE w.wkfid = a.wkfid "
      "AND a.actid = t.actid "
      "AND w.wkfid = %lld "
      "ORDER BY t.endtime",
      wkfid);
}

std::string query1(long long wkfid) {
  return strformat(
      "SELECT a.tag, "
      "min(extract ('epoch' from (t.endtime-t.starttime))), "
      "max(extract ('epoch' from (t.endtime-t.starttime))), "
      "sum(extract ('epoch' from (t.endtime-t.starttime))), "
      "avg(extract ('epoch' from (t.endtime-t.starttime))) "
      "FROM hworkflow w, hactivity a, hactivation t "
      "WHERE w.wkfid = a.wkfid "
      "AND a.actid = t.actid "
      "AND w.wkfid = %lld "
      "GROUP BY a.tag",
      wkfid);
}

std::string query2() {
  return "SELECT w.tag, a.tag, f.fname, f.fsize, f.fdir "
         "FROM hworkflow w, hactivity a, hfile f "
         "WHERE w.wkfid = a.wkfid "
         "AND a.actid = f.actid "
         "AND f.fname LIKE '%.dlg' "
         "ORDER BY f.fileid";
}

std::string forensics_failed_by_activity() {
  return "SELECT a.tag, count(*) "
         "FROM hactivity a, hactivation t "
         "WHERE a.actid = t.actid AND t.status = 'FAILED' "
         "GROUP BY a.tag ORDER BY count(*) DESC";
}

std::string forensics_hg_aborts(int limit) {
  return strformat(
      "SELECT t.workload, count(*) "
      "FROM hactivation t WHERE t.status = 'ABORTED' "
      "GROUP BY t.workload ORDER BY count(*) DESC LIMIT %d",
      limit);
}

std::string steering_longest_activations(int limit) {
  return strformat(
      "SELECT a.tag, t.workload, "
      "extract('epoch' from (t.endtime - t.starttime)) dur "
      "FROM hactivity a, hactivation t "
      "WHERE a.actid = t.actid AND t.status = 'FINISHED' "
      "ORDER BY dur DESC LIMIT %d",
      limit);
}

std::string screen_summary_query() {
  return "SELECT ligand, count(*) pairs, sum(feb < 0) favorable, "
         "min(feb) best_feb FROM rel GROUP BY ligand ORDER BY ligand";
}

std::vector<sql::Column> output_relation_schema() {
  using sql::Type;
  return {
      // generator pair fields (data/generator.cpp build_pairs_relation)
      {"pair", Type::Text},
      {"receptor", Type::Text},
      {"ligand", Type::Text},
      {"receptor_file", Type::Text},
      {"ligand_file", Type::Text},
      {"residues", Type::Int},
      {"engine", Type::Text},
      {"workload", Type::Real},
      {"hg", Type::Int},
      // fields emitted along the pipeline (scidock.cpp make_pipeline)
      {"ligand_mol2", Type::Text},
      {"ligand_pdbqt", Type::Text},
      {"receptor_pdbqt", Type::Text},
      {"gpf_file", Type::Text},
      {"maps_prefix", Type::Text},
      {"dpf_file", Type::Text},
      {"conf_file", Type::Text},
      {"dlg_file", Type::Text},
      {"feb", Type::Real},
      {"rmsd", Type::Real},
  };
}

std::vector<ShippedQuery> shipped_queries() {
  std::vector<ShippedQuery> queries = {
      {"figure5-histogram", figure5_query(1), "prov"},
      {"query1-statistics", query1(1), "prov"},
      {"query2-dlg-files", query2(), "prov"},
      {"forensics-failed-by-activity", forensics_failed_by_activity(),
       "prov"},
      {"forensics-hg-aborts", forensics_hg_aborts(), "prov"},
      {"steering-longest-activations", steering_longest_activations(),
       "prov"},
      {"screen-summary", screen_summary_query(), "rel"},
      // Metrics <-> provenance reconciliation queries (DESIGN.md §9);
      // shipping them keeps the lint gate on their syntax.
      {"reconcile-workflow-id", prov::workflow_id_sql("SciDock"), "prov"},
      {"reconcile-activation-count", prov::activation_count_sql(1), "prov"},
      {"reconcile-activations-by-status", prov::activations_by_status_sql(1),
       "prov"},
      {"reconcile-retried-activations",
       prov::retried_activation_count_sql(1), "prov"},
      {"reconcile-finished-autogrid",
       prov::finished_activation_count_sql(1, kAutogrid), "prov"},
  };
  // The PROV-Wf invariants chaos::InvariantChecker runs (DESIGN.md §7).
  const auto ship = [&queries](const char* scope,
                               const std::vector<prov::InvariantQuery>& rules) {
    for (const prov::InvariantQuery& q : rules) {
      const std::string name =
          strformat("invariant-%s-%s", scope, q.name.c_str());
      queries.push_back({name, q.sql, "prov"});
      if (!q.keys.empty()) queries.push_back({name + "-keys", q.keys, "prov"});
    }
  };
  ship("run", prov::run_invariant_queries(1, 1));
  ship("store", prov::store_invariant_queries());
  return queries;
}

sql::Database query_schema(std::string_view catalog) {
  sql::Database db;
  if (catalog == "rel") {
    db.create_table("rel", output_relation_schema());
  } else {
    SCIDOCK_REQUIRE(catalog == "prov", "unknown query catalog '" +
                                           std::string(catalog) + "'");
    prov::ProvenanceStore::init_schema(db);
  }
  return db;
}

}  // namespace scidock::core

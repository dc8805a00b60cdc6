#include "dock/dlg.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::dock {

std::string write_dlg(const DockingResult& result) {
  std::string out;
  out += "________________________________________________________________\n";
  out += "AutoDock-compatible docking log produced by scidock\n";
  out += "RECEPTOR: " + result.receptor_name + "\n";
  out += "LIGAND: " + result.ligand_name + "\n";
  out += "ENGINE: " + result.engine_name + "\n";
  out += strformat("NUMBER OF ENERGY EVALUATIONS: %lld\n",
                   result.energy_evaluations);
  out += strformat("NUMBER OF RUNS: %d\n",
                   static_cast<int>(result.conformations.size()));
  out += "\n    RMSD TABLE\n    __________\n";
  out += "Rank | Run | FEB (kcal/mol) | RMSD (A) | Cluster\n";
  for (std::size_t i = 0; i < result.conformations.size(); ++i) {
    const Conformation& c = result.conformations[i];
    out += strformat("%4zu | %3d | %14.2f | %8.2f | %7d\n", i + 1, c.run,
                     c.feb, c.rmsd_from_input, c.cluster);
  }

  // CLUSTERING HISTOGRAM: occupancy per cluster, AD4-style bar chart.
  std::map<int, int> cluster_sizes;
  std::map<int, double> cluster_best;
  for (const Conformation& c : result.conformations) {
    ++cluster_sizes[c.cluster];
    const auto it = cluster_best.find(c.cluster);
    if (it == cluster_best.end() || c.feb < it->second) {
      cluster_best[c.cluster] = c.feb;
    }
  }
  out += "\n    CLUSTERING HISTOGRAM\n    ____________________\n";
  out += "Cluster | Lowest FEB | Occupancy\n";
  for (const auto& [cluster, size] : cluster_sizes) {
    out += strformat("%7d | %10.2f | ", cluster, cluster_best[cluster]);
    out.append(static_cast<std::size_t>(size), '#');
    out += '\n';
  }

  if (!result.conformations.empty()) {
    const Conformation& best = result.conformations.front();
    out += strformat("\nEstimated Free Energy of Binding    = %8.2f kcal/mol\n",
                     best.feb);
    out += strformat("Final Intermolecular Energy         = %8.2f kcal/mol\n",
                     best.intermolecular);
    out += strformat("Final Total Internal Energy         = %8.2f kcal/mol\n",
                     best.intramolecular);
    out += strformat("RMSD from reference structure       = %8.2f A\n",
                     best.rmsd_from_input);
  }
  out += strformat("\nMEAN_FEB %.4f\nMEAN_RMSD %.4f\nCLUSTERS %d\n",
                   result.mean_feb(), result.mean_rmsd(),
                   static_cast<int>(cluster_sizes.size()));
  return out;
}

std::string write_vina_log(const DockingResult& result) {
  std::string out;
  out += "scidock Vina-compatible log\n";
  out += "RECEPTOR: " + result.receptor_name + "\n";
  out += "LIGAND: " + result.ligand_name + "\n";
  out += "ENGINE: " + result.engine_name + "\n";
  out += strformat("NUMBER OF ENERGY EVALUATIONS: %lld\n",
                   result.energy_evaluations);
  out += "mode |   affinity | dist from best mode\n";
  out += "     | (kcal/mol) | rmsd l.b.| rmsd u.b.\n";
  out += "-----+------------+----------+----------\n";
  for (std::size_t i = 0; i < result.conformations.size(); ++i) {
    const Conformation& c = result.conformations[i];
    const double dist = result.conformations.empty()
                            ? 0.0
                            : mol::rmsd(c.coords, result.conformations[0].coords);
    out += strformat("%4zu %12.1f %10.3f %10.3f\n", i + 1, c.feb, dist, dist);
  }
  if (!result.conformations.empty()) {
    out += strformat("\nBEST_FEB %.4f\nBEST_RMSD %.4f\n",
                     result.conformations.front().feb,
                     result.conformations.front().rmsd_from_input);
  }
  std::map<int, int> clusters;
  for (const Conformation& c : result.conformations) ++clusters[c.cluster];
  out += strformat("MEAN_FEB %.4f\nMEAN_RMSD %.4f\nCLUSTERS %d\n",
                   result.mean_feb(), result.mean_rmsd(),
                   static_cast<int>(clusters.size()));
  return out;
}

std::string write_poses_pdbqt(const mol::PreparedLigand& ligand,
                              const DockingResult& result) {
  std::string out;
  for (std::size_t m = 0; m < result.conformations.size(); ++m) {
    const Conformation& c = result.conformations[m];
    out += strformat("MODEL %zu\n", m + 1);
    out += strformat("REMARK VINA RESULT: %10.3f %10.3f %10.3f\n", c.feb,
                     c.rmsd_from_input, c.rmsd_from_input);
    // Re-emit the ligand's flexible PDBQT with the docked coordinates.
    mol::Molecule posed = ligand.molecule;
    posed.set_coordinates(c.coords);
    out += mol::write_pdbqt_ligand(posed, ligand.torsions);
    out += "ENDMDL\n";
  }
  return out;
}

DlgSummary parse_docking_log(std::string_view text) {
  DlgSummary summary;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view lv = trim(line);
    auto value_after = [&lv](std::string_view prefix) -> std::string {
      return std::string(trim(lv.substr(prefix.size())));
    };
    if (starts_with(lv, "RECEPTOR:")) summary.receptor = value_after("RECEPTOR:");
    else if (starts_with(lv, "LIGAND:")) summary.ligand = value_after("LIGAND:");
    else if (starts_with(lv, "ENGINE:")) summary.engine = value_after("ENGINE:");
    else if (starts_with(lv, "Estimated Free Energy of Binding")) {
      const auto f = split_ws(lv);
      // "... = <value> kcal/mol"
      for (std::size_t i = 0; i + 1 < f.size(); ++i) {
        if (f[i] == "=") summary.best_feb = parse_finite_double(f[i + 1], "dlg FEB");
      }
    } else if (starts_with(lv, "RMSD from reference structure")) {
      const auto f = split_ws(lv);
      for (std::size_t i = 0; i + 1 < f.size(); ++i) {
        if (f[i] == "=") summary.best_rmsd = parse_finite_double(f[i + 1], "dlg RMSD");
      }
    } else if (starts_with(lv, "BEST_FEB")) {
      summary.best_feb = parse_finite_double(value_after("BEST_FEB"), "log FEB");
    } else if (starts_with(lv, "BEST_RMSD")) {
      summary.best_rmsd = parse_finite_double(value_after("BEST_RMSD"), "log RMSD");
    } else if (starts_with(lv, "MEAN_FEB")) {
      summary.mean_feb = parse_finite_double(value_after("MEAN_FEB"), "log mean FEB");
    } else if (starts_with(lv, "MEAN_RMSD")) {
      summary.mean_rmsd = parse_finite_double(value_after("MEAN_RMSD"), "log mean RMSD");
    } else if (starts_with(lv, "CLUSTERS")) {
      summary.clusters = static_cast<int>(parse_int(value_after("CLUSTERS"), "log clusters"));
    } else if (starts_with(lv, "NUMBER OF RUNS:")) {
      summary.conformations =
          static_cast<int>(parse_int(value_after("NUMBER OF RUNS:"), "log runs"));
    }
  }
  if (summary.engine.empty()) {
    throw ParseError("docking log", "missing ENGINE record");
  }
  return summary;
}

}  // namespace scidock::dock

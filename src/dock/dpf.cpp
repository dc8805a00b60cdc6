#include "dock/dpf.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::dock {

std::string DockingParameterFile::to_text() const {
  std::string out;
  out += "autodock_parameter_version 4.2\n";
  out += "outlev 1\n";
  out += "ligand " + ligand_file + "\n";
  out += "fld " + receptor_maps_prefix + ".maps.fld\n";
  out += strformat("ga_pop_size %d\n", ga_pop_size);
  out += strformat("ga_num_evals %lld\n", ga_num_evals);
  out += strformat("ga_num_generations %d\n", ga_num_generations);
  out += strformat("ga_mutation_rate %.4f\n", ga_mutation_rate);
  out += strformat("ga_crossover_rate %.4f\n", ga_crossover_rate);
  out += strformat("sw_max_its %d\n", sw_max_its);
  out += strformat("rmstol %.2f\n", rmstol);
  out += strformat("seed %llu\n", seed);
  out += strformat("ga_run %d\n", ga_runs);
  out += "analysis\n";
  return out;
}

DockingParameterFile DockingParameterFile::parse(std::string_view text) {
  DockingParameterFile dpf;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    const auto f = split_ws(line);
    if (f.empty() || f[0][0] == '#') continue;
    if (f[0] == "ligand" && f.size() >= 2) dpf.ligand_file = f[1];
    else if (f[0] == "fld" && f.size() >= 2) {
      std::string fld = f[1];
      const std::string suffix = ".maps.fld";
      if (ends_with(fld, suffix)) fld.resize(fld.size() - suffix.size());
      dpf.receptor_maps_prefix = fld;
    } else if (f[0] == "ga_pop_size" && f.size() >= 2) dpf.ga_pop_size = static_cast<int>(parse_int(f[1], "dpf"));
    else if (f[0] == "ga_num_evals" && f.size() >= 2) dpf.ga_num_evals = parse_int(f[1], "dpf");
    else if (f[0] == "ga_num_generations" && f.size() >= 2) dpf.ga_num_generations = static_cast<int>(parse_int(f[1], "dpf"));
    else if (f[0] == "ga_mutation_rate" && f.size() >= 2) dpf.ga_mutation_rate = parse_finite_double(f[1], "dpf");
    else if (f[0] == "ga_crossover_rate" && f.size() >= 2) dpf.ga_crossover_rate = parse_finite_double(f[1], "dpf");
    else if (f[0] == "sw_max_its" && f.size() >= 2) dpf.sw_max_its = static_cast<int>(parse_int(f[1], "dpf"));
    else if (f[0] == "rmstol" && f.size() >= 2) dpf.rmstol = parse_finite_double(f[1], "dpf");
    else if (f[0] == "seed" && f.size() >= 2) dpf.seed = static_cast<unsigned long long>(parse_int(f[1], "dpf"));
    else if (f[0] == "ga_run" && f.size() >= 2) dpf.ga_runs = static_cast<int>(parse_int(f[1], "dpf"));
  }
  SCIDOCK_REQUIRE(dpf.ga_runs > 0 && dpf.ga_pop_size > 1, "invalid DPF GA parameters");
  // Clustering requires a positive tolerance.
  if (dpf.rmstol <= 0.0) {
    throw ParseError("DPF", strformat("rmstol %g is not positive", dpf.rmstol));
  }
  return dpf;
}

std::string VinaConfig::to_text() const {
  std::string out;
  out += "receptor = " + receptor_file + "\n";
  out += "ligand = " + ligand_file + "\n";
  out += strformat("center_x = %.3f\ncenter_y = %.3f\ncenter_z = %.3f\n",
                   box.center.x, box.center.y, box.center.z);
  const mol::Vec3 size = box.extent();
  out += strformat("size_x = %.3f\nsize_y = %.3f\nsize_z = %.3f\n", size.x,
                   size.y, size.z);
  out += strformat("exhaustiveness = %d\n", exhaustiveness);
  out += strformat("num_modes = %d\n", num_modes);
  out += strformat("energy_range = %.2f\n", energy_range);
  out += strformat("seed = %llu\n", seed);
  return out;
}

VinaConfig VinaConfig::parse(std::string_view text) {
  VinaConfig cfg;
  std::istringstream in{std::string(text)};
  std::string line;
  mol::Vec3 size{20.0, 20.0, 20.0};
  const double spacing = cfg.box.spacing;
  std::string key, eq, value;
  while (std::getline(in, line)) {
    const auto f = split_ws(line);
    if (f.size() < 3 || f[1] != "=") continue;
    key = f[0];
    value = f[2];
    if (key == "receptor") cfg.receptor_file = value;
    else if (key == "ligand") cfg.ligand_file = value;
    else if (key == "center_x") cfg.box.center.x = parse_finite_double(value, "vina cfg");
    else if (key == "center_y") cfg.box.center.y = parse_finite_double(value, "vina cfg");
    else if (key == "center_z") cfg.box.center.z = parse_finite_double(value, "vina cfg");
    else if (key == "size_x") size.x = parse_finite_double(value, "vina cfg");
    else if (key == "size_y") size.y = parse_finite_double(value, "vina cfg");
    else if (key == "size_z") size.z = parse_finite_double(value, "vina cfg");
    else if (key == "exhaustiveness") cfg.exhaustiveness = static_cast<int>(parse_int(value, "vina cfg"));
    else if (key == "num_modes") cfg.num_modes = static_cast<int>(parse_int(value, "vina cfg"));
    else if (key == "energy_range") cfg.energy_range = parse_finite_double(value, "vina cfg");
    else if (key == "seed") cfg.seed = static_cast<unsigned long long>(parse_int(value, "vina cfg"));
  }
  cfg.box.npts = {grid_points_for_size(size.x, spacing, "vina cfg size_x"),
                  grid_points_for_size(size.y, spacing, "vina cfg size_y"),
                  grid_points_for_size(size.z, spacing, "vina cfg size_z")};
  SCIDOCK_REQUIRE(cfg.exhaustiveness > 0, "invalid Vina exhaustiveness");
  if (cfg.num_modes < 1) {
    throw ParseError("vina cfg",
                     strformat("num_modes %d is below 1", cfg.num_modes));
  }
  return cfg;
}

}  // namespace scidock::dock

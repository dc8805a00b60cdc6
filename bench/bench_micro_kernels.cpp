// Micro-kernel benchmarks (google-benchmark): the hot paths underneath
// the workflow — grid generation, energy evaluation, neighbour queries,
// torsion application, parsers and the SQL engine.
//
// After the google-benchmark tables, main() runs the kernel perf report:
// timed analytic-vs-LUT comparisons, fused-vs-separate map sampling, the
// ms per AD4 and per Vina screening map set (the pipeline's receptor
// files, box, type set and spacing) and the grid-map-reuse pipeline A/B,
// with two acceptance gates (LUT >= 3x on the AD4 pair kernel; grid-map
// reuse cuts the AutoGrid stage by >= 30%). Wall-clock gates, so the binary runs
// serially in `ci/check.sh perf`, never under `ctest -j`. The cache
// counters the A/B prints are asserted exactly by the kernels and obs
// test suites.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "data/generator.hpp"
#include "data/table2.hpp"
#include "dock/autogrid.hpp"
#include "dock/energy_lut.hpp"
#include "mol/charges.hpp"
#include "dock/energy.hpp"
#include "dock/vina.hpp"
#include "mol/io_pdb.hpp"
#include "mol/io_pdbqt.hpp"
#include "mol/prepare.hpp"
#include "obs/obs.hpp"
#include "scidock/analysis.hpp"
#include "scidock/experiment.hpp"
#include "scidock/scidock.hpp"
#include "sql/engine.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "vfs/vfs.hpp"
#include "wf/spec.hpp"
#include "xml/xml.hpp"

namespace {

using namespace scidock;

data::GeneratorOptions bench_opts() {
  data::GeneratorOptions o;
  o.min_residues = 24;
  o.max_residues = 48;
  o.hg_fraction = 0.0;
  return o;
}

struct DockFixture {
  mol::PreparedReceptor receptor;
  mol::PreparedLigand ligand;
  dock::GridBox box;
  dock::GridMapSet vina_maps;  ///< the ligand's types, Vina scoring

  static const DockFixture& get() {
    static const DockFixture fixture = [] {
      const auto opts = bench_opts();
      mol::PreparedReceptor rec =
          mol::prepare_receptor(data::make_receptor("2HHN", opts));
      mol::PreparedLigand lig = mol::prepare_ligand(data::make_ligand("0E6"));
      dock::GridBox box =
          dock::GridBox::around(rec.molecule.center(), 10.0, 0.55);
      mol::Molecule perceived = lig.molecule;
      perceived.perceive();
      dock::GridMapSet vina_maps =
          dock::GridMapCalculator(rec.molecule)
              .calculate(box, perceived.ad_types_present(),
                         dock::ScoringFunction::Vina);
      return DockFixture{std::move(rec), std::move(lig), box,
                         std::move(vina_maps)};
    }();
    return fixture;
  }
};

/// AutoGrid at the pipeline's shape: a receptor of the default dataset
/// read back through its PDB and PDBQT files as the AutoGrid activity
/// reads it, and the screening GPF at 0.55 Å with the type set of a
/// campaign over the 42 Table 2 ligands (their census).
struct ScreeningFixture {
  mol::PreparedReceptor receptor;
  dock::GridParameterFile gpf;

  static const ScreeningFixture& get() {
    static const ScreeningFixture fixture = [] {
      mol::PreparedReceptor rec = mol::read_prepared_receptor(
          mol::prepare_receptor(
              mol::read_pdb(mol::write_pdb(data::make_receptor("2HHN")), "2HHN"))
              .pdbqt);
      const mol::PreparedLigand lig = mol::prepare_ligand(data::make_ligand("0E6"));
      vfs::SharedFileSystem fs;
      data::stage_dataset(fs, "/bench", {}, data::table2_ligands());
      std::vector<std::string> ligand_files;
      for (const std::string& code : data::table2_ligands()) {
        ligand_files.push_back("/bench/input/" + code + ".sdf");
      }
      dock::GridParameterFile gpf = dock::make_screening_gpf(
          rec.molecule, lig.molecule, 4.0, 0.55,
          core::ligand_type_census(fs, ligand_files));
      return ScreeningFixture{std::move(rec), std::move(gpf)};
    }();
    return fixture;
  }
};

/// Arg 0: the AD4 screening set; arg 1: the Vina one.
void BM_AutogridMapGeneration(benchmark::State& state) {
  const ScreeningFixture& fx = ScreeningFixture::get();
  const dock::GridMapCalculator calc(fx.receptor.molecule);
  const auto scoring = state.range(0) == 0 ? dock::ScoringFunction::Ad4
                                           : dock::ScoringFunction::Vina;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        calc.calculate(fx.gpf.box, fx.gpf.ligand_types, scoring));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fx.gpf.box.total_points()));
}
BENCHMARK(BM_AutogridMapGeneration)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// On the screening census set (11 maps at 0.55 Å), as the pipeline docks.
void BM_Ad4GridEnergyEvaluation(benchmark::State& state) {
  const ScreeningFixture& sfx = ScreeningFixture::get();
  const DockFixture& fx = DockFixture::get();
  const dock::GridMapSet maps =
      dock::GridMapCalculator(sfx.receptor.molecule)
          .calculate(sfx.gpf.box, sfx.gpf.ligand_types);
  const dock::Ad4EnergyModel model(maps, fx.ligand);
  Rng rng(1);
  dock::DockPose pose = dock::DockPose::random(
      sfx.gpf.box, model.reference_center(), fx.ligand.torsions.torsion_count(), rng);
  for (auto _ : state) {
    pose.mutate(0.1, 0.05, 0.1, rng);
    benchmark::DoNotOptimize(model(pose));
  }
}
BENCHMARK(BM_Ad4GridEnergyEvaluation)->Unit(benchmark::kMicrosecond);

void BM_VinaGridEnergyEvaluation(benchmark::State& state) {
  const DockFixture& fx = DockFixture::get();
  const dock::VinaEnergyModel model(fx.vina_maps, fx.ligand);
  Rng rng(1);
  dock::DockPose pose = dock::DockPose::random(
      fx.box, model.reference_center(), fx.ligand.torsions.torsion_count(), rng);
  for (auto _ : state) {
    pose.mutate(0.1, 0.05, 0.1, rng);
    benchmark::DoNotOptimize(model(pose));
  }
}
BENCHMARK(BM_VinaGridEnergyEvaluation)->Unit(benchmark::kMicrosecond);

void BM_NeighborListQuery(benchmark::State& state) {
  const DockFixture& fx = DockFixture::get();
  const dock::NeighborList nl(fx.receptor.molecule, 8.0);
  Rng rng(2);
  double acc = 0.0;
  for (auto _ : state) {
    const mol::Vec3 q{rng.uniform(-10, 10), rng.uniform(-10, 10),
                      rng.uniform(-10, 10)};
    nl.for_each_within(q, [&acc](int, double d2) { acc += d2; });
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_NeighborListQuery);

/// apply_into with reused buffers, as an energy evaluation runs it.
void BM_TorsionTreeApply(benchmark::State& state) {
  const DockFixture& fx = DockFixture::get();
  const auto ref = fx.ligand.molecule.coordinates();
  const mol::Vec3 center = fx.ligand.torsions.root_center(ref);
  Rng rng(3);
  dock::DockPose pose = dock::DockPose::random(
      fx.box, center, fx.ligand.torsions.torsion_count(), rng);
  std::vector<mol::RigidFrame> frames;
  std::vector<mol::Vec3> out;
  for (auto _ : state) {
    fx.ligand.torsions.apply_into(ref, center, pose.rigid, pose.torsions,
                                  frames, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TorsionTreeApply);

void BM_PdbParse(benchmark::State& state) {
  const std::string text = mol::write_pdb(data::make_receptor("1HUC", bench_opts()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mol::read_pdb(text, "1HUC"));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_PdbParse)->Unit(benchmark::kMicrosecond);

void BM_PdbqtLigandRoundTrip(benchmark::State& state) {
  const DockFixture& fx = DockFixture::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mol::read_pdbqt(fx.ligand.pdbqt));
  }
}
BENCHMARK(BM_PdbqtLigandRoundTrip);

void BM_GasteigerCharges(benchmark::State& state) {
  const mol::Molecule lig = data::make_ligand("042");
  for (auto _ : state) {
    mol::Molecule copy = lig;
    mol::assign_gasteiger_charges(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_GasteigerCharges);

void BM_XmlSpecParse(benchmark::State& state) {
  const std::string xml = wf::save_spec(core::scidock_workflow_def());
  for (auto _ : state) {
    benchmark::DoNotOptimize(wf::load_spec(xml));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_XmlSpecParse);

void BM_SqlQuery1OverProvenance(benchmark::State& state) {
  // A provenance store with ~7k activation rows, as after a 1k-pair run.
  prov::ProvenanceStore store;
  const long long wkfid = store.begin_workflow("SciDock", "", "/x/", 0.0);
  Rng rng(7);
  std::vector<long long> actids;
  for (const char* tag : {"babel", "prepligand", "prepreceptor", "gpfprep",
                          "autogrid", "dockfilter", "autodock4"}) {
    actids.push_back(store.register_activity(wkfid, tag, "./cmd", "MAP"));
  }
  double t = 0.0;
  for (int i = 0; i < 7000; ++i) {
    const long long id = store.begin_activation(
        actids[static_cast<std::size_t>(i) % actids.size()], wkfid, t, 1, "p");
    t += rng.uniform(0.5, 3.0);
    store.end_activation(id, t, prov::kStatusFinished, 0, 1);
  }
  const std::string query = core::query1(wkfid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.query(query));
  }
}
BENCHMARK(BM_SqlQuery1OverProvenance)->Unit(benchmark::kMillisecond);

void BM_SolisWetsLocalSearch(benchmark::State& state) {
  const DockFixture& fx = DockFixture::get();
  const dock::VinaEnergyModel model(fx.vina_maps, fx.ligand);
  Rng rng(5);
  for (auto _ : state) {
    dock::DockPose pose = dock::DockPose::random(
        fx.box, model.reference_center(), fx.ligand.torsions.torsion_count(),
        rng);
    double energy = 0.0;
    benchmark::DoNotOptimize(dock::solis_wets(pose, model, rng, 30, energy));
  }
}
BENCHMARK(BM_SolisWetsLocalSearch)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------------------
// Kernel perf report with acceptance gates.
// ------------------------------------------------------------------

/// Wall-time `body` (which evaluates `evals_per_rep` kernel calls),
/// growing the repetition count until the measurement window is long
/// enough to trust, and keeping the *minimum* per-rep time across
/// windows (cancels scheduler noise on shared machines).
template <typename F>
double ns_per_eval(std::size_t evals_per_rep, F&& body) {
  using clock = std::chrono::steady_clock;
  body();  // warm-up (touch tables, fault pages)
  long long reps = 1;
  double best_s = 1e300;
  for (int window = 0; window < 64; ++window) {
    const auto t0 = clock::now();
    for (long long r = 0; r < reps; ++r) body();
    const double s =
        std::chrono::duration<double>(clock::now() - t0).count();
    if (s < 0.02) {
      reps *= 4;
      continue;
    }
    best_s = std::min(best_s, s / static_cast<double>(reps));
    if (window >= 2 && best_s < 1e299) break;
  }
  return best_s * 1e9 / static_cast<double>(evals_per_rep);
}

/// Interleaved variant for ratio gates: alternates measurement windows
/// across the competing bodies round-robin, keeping each body's minimum
/// per-rep time — so frequency drift or a noisy co-tenant slows every
/// competitor in the same windows instead of skewing the ratio that the
/// gate checks.
std::vector<double> interleaved_ns_per_eval(
    std::size_t evals_per_rep,
    const std::vector<std::function<void()>>& bodies) {
  using clock = std::chrono::steady_clock;
  const std::size_t n = bodies.size();
  std::vector<long long> reps(n, 1);
  std::vector<double> best(n, 1e300);
  for (const auto& body : bodies) body();  // warm-up
  for (int round = 0; round < 64; ++round) {
    bool settled = true;
    for (std::size_t i = 0; i < n; ++i) {
      const auto t0 = clock::now();
      for (long long r = 0; r < reps[i]; ++r) bodies[i]();
      const double s =
          std::chrono::duration<double>(clock::now() - t0).count();
      if (s < 0.02) {
        reps[i] *= 4;
        settled = false;
        continue;
      }
      best[i] = std::min(best[i], s / static_cast<double>(reps[i]));
    }
    if (round >= 3 && settled) break;
  }
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = best[i] * 1e9 / static_cast<double>(evals_per_rep);
  }
  return out;
}

// The pipeline A/B's screen: small enough for a quick serial run, with
// every receptor's map set shared by all of its ligands.
constexpr std::ptrdiff_t kPipelineReceptors = 3;
constexpr std::ptrdiff_t kPipelineLigands = 8;

struct PairSample {
  mol::AdType ti, tj;
  double qi, qj;
  double r2;
};

std::vector<PairSample> make_pair_samples() {
  const auto& types = dock::screening_ligand_types();
  Rng rng(17);
  std::vector<PairSample> samples(4096);
  for (PairSample& s : samples) {
    s.ti = types[rng.below(types.size())];
    s.tj = types[rng.below(types.size())];
    s.qi = rng.uniform(-0.5, 0.5);
    s.qj = rng.uniform(-0.5, 0.5);
    const double r = rng.uniform(1.0, 8.0);
    s.r2 = r * r;
  }
  return samples;
}

/// One "baseline vs measured" line. The baselines are this repo's own
/// reference kernels (analytic terms, separate map samples, reuse off),
/// not figures from the paper.
void print_baseline(const std::string& what, const std::string& baseline,
                    const std::string& measured) {
  std::printf("  %-42s baseline: %-14s measured: %s\n", what.c_str(),
              baseline.c_str(), measured.c_str());
}

int run_kernel_report() {
  bench::print_header("SciDock bench: docking kernels",
                      "perf_opt acceptance: LUT >= 3x, AutoGrid stage -30% "
                      "with grid-map reuse");
  int failures = 0;
  const auto gate = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::printf("GATE FAILED: %s\n", what);
      ++failures;
    }
  };

  // ---- pairwise scoring: analytic vs radial LUT -------------------
  const auto samples = make_pair_samples();
  const dock::Ad4Weights ad4_w;
  const auto ad4_tables = dock::Ad4PairTables::shared(ad4_w);
  // Analytic vs LUT, interleaved: the gate below is their ratio.
  const std::vector<double> ad4_ns = interleaved_ns_per_eval(
      samples.size(),
      {[&] {
         double acc = 0.0;
         for (const PairSample& s : samples) {
           acc += dock::ad4_pair_energy(s.ti, s.qi, s.tj, s.qj,
                                        std::sqrt(s.r2), ad4_w);
         }
         benchmark::DoNotOptimize(acc);
       },
       [&] {
         double acc = 0.0;
         for (const PairSample& s : samples) {
           acc += ad4_tables->pair_energy(s.ti, s.qi, s.tj, s.qj, s.r2);
         }
         benchmark::DoNotOptimize(acc);
       }});
  const double ad4_analytic_ns = ad4_ns[0];
  const double ad4_lut_ns = ad4_ns[1];
  const double ad4_speedup = ad4_analytic_ns / ad4_lut_ns;
  print_baseline("AD4 pair kernel ns/eval",
                 strformat("%.1f analytic", ad4_analytic_ns),
                 strformat("%.1f LUT (%.1fx)", ad4_lut_ns, ad4_speedup));
  gate(ad4_speedup >= 3.0, "AD4 LUT must be >= 3x faster than analytic");

  const dock::VinaWeights vina_w;
  const auto vina_tables = dock::VinaPairTables::shared(vina_w);
  const double vina_analytic_ns = ns_per_eval(samples.size(), [&] {
    double acc = 0.0;
    for (const PairSample& s : samples) {
      acc += dock::vina_pair_energy(s.ti, s.tj, std::sqrt(s.r2), vina_w);
    }
    benchmark::DoNotOptimize(acc);
  });
  const double vina_lut_ns = ns_per_eval(samples.size(), [&] {
    double acc = 0.0;
    for (const PairSample& s : samples) {
      acc += vina_tables->pair_energy(s.ti, s.tj, s.r2);
    }
    benchmark::DoNotOptimize(acc);
  });
  print_baseline(
      "Vina pair kernel ns/eval", strformat("%.1f analytic", vina_analytic_ns),
      strformat("%.1f LUT (%.1fx)", vina_lut_ns,
                vina_analytic_ns / vina_lut_ns));

  // ---- fused trilinear sampling vs three separate samples ---------
  const DockFixture& fx = DockFixture::get();
  const dock::GridMapCalculator fx_calc(fx.receptor.molecule);
  mol::Molecule fx_lig = fx.ligand.molecule;
  fx_lig.perceive();
  const dock::GridMapSet fused_maps =
      fx_calc.calculate(fx.box, fx_lig.ad_types_present());
  const dock::GridMap& m0 = fused_maps.affinity[0].second;
  std::vector<mol::Vec3> points;
  {
    Rng rng(23);
    const mol::Aabb b = fx.box.bounds();
    for (int i = 0; i < 2048; ++i) {
      points.push_back({rng.uniform(b.lo.x, b.hi.x), rng.uniform(b.lo.y, b.hi.y),
                        rng.uniform(b.lo.z, b.hi.z)});
    }
  }
  const std::vector<double> sample3_ns = interleaved_ns_per_eval(
      points.size(),
      {[&] {
         double acc = 0.0;
         for (const mol::Vec3& p : points) {
           acc += m0.sample(p) + fused_maps.electrostatic.sample(p) +
                  fused_maps.desolvation.sample(p);
         }
         benchmark::DoNotOptimize(acc);
       },
       [&] {
         double acc = 0.0;
         for (const mol::Vec3& p : points) {
           const dock::TrilinearSampler s(fx.box, p);
           if (s.in_box()) {
             acc += s.apply(m0) + s.apply(fused_maps.electrostatic) +
                    s.apply(fused_maps.desolvation);
           }
         }
         benchmark::DoNotOptimize(acc);
       }});
  const double unfused_ns = sample3_ns[0];
  const double fused_ns = sample3_ns[1];
  print_baseline("3-map sampling ns/point",
                 strformat("%.1f separate", unfused_ns),
                 strformat("%.1f fused (%.1fx)", fused_ns,
                           unfused_ns / fused_ns));

  // ---- AutoGrid: one screening map set per engine -----------------
  const ScreeningFixture& sfx = ScreeningFixture::get();
  const dock::GridMapCalculator screen_calc(sfx.receptor.molecule);
  for (const auto& [scoring, label] :
       {std::pair{dock::ScoringFunction::Ad4, "AutoGrid AD4 screening set"},
        std::pair{dock::ScoringFunction::Vina, "AutoGrid Vina screening set"}}) {
    double best_s = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(screen_calc.calculate(
          sfx.gpf.box, sfx.gpf.ligand_types, scoring));
      best_s = std::min(best_s, std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count());
    }
    print_baseline(label, "-", strformat("%.0f ms", best_s * 1e3));
  }

  // ---- pipeline A/B: grid-map reuse off vs on ---------------------
  // Small structures keep the screen quick; the reuse machinery
  // (canonical GPF -> single-flight cache) is identical.
  core::ScidockOptions popts;
  popts.dataset.min_residues = 12;
  popts.dataset.max_residues = 30;
  popts.dataset.min_ligand_atoms = 8;
  popts.dataset.max_ligand_atoms = 14;
  popts.dataset.hg_fraction = 0.0;
  popts.ad4_params = {.ga_runs = 1, .ga_pop_size = 10, .ga_num_evals = 300,
                      .ga_num_generations = 10, .sw_max_its = 15};
  popts.vina_exhaustiveness = 1;
  popts.vina_steps_per_chain = 8;
  popts.grid_spacing = 0.8;  // coarser maps keep the reuse-off run quick
  const std::vector<std::string> receptors(
      data::table2_receptors().begin(),
      data::table2_receptors().begin() + kPipelineReceptors);
  const std::vector<std::string> ligands(
      data::table2_ligands().begin(),
      data::table2_ligands().begin() + kPipelineLigands);
  const int threads = 8;

  const auto run = [&](bool reuse, obs::Observability obs) {
    core::ScidockOptions o = popts;
    o.reuse_grid_maps = reuse;
    core::Experiment exp = core::make_experiment(receptors, ligands, 0, o);
    return core::run_native(exp, threads, "kernel-bench", obs);
  };

  const wf::NativeReport off_report = run(false, obs::Observability{});
  obs::MetricsRegistry metrics;
  const wf::NativeReport on_report =
      run(true, obs::Observability{nullptr, &metrics});
  const double stage_off =
      off_report.per_activity_seconds.at(core::kAutogrid).sum();
  const double stage_on =
      on_report.per_activity_seconds.at(core::kAutogrid).sum();
  const double reduction_pct = 100.0 * (1.0 - stage_on / stage_off);
  std::printf("\npipeline A/B: %zu pairs, %d threads\n",
              receptors.size() * ligands.size(), threads);
  print_baseline("AutoGrid stage seconds (sum)",
                 strformat("%.2f reuse off", stage_off),
                 strformat("%.2f reuse on (-%.0f%%)", stage_on,
                           reduction_pct));
  print_baseline(
      "grid-map cache", "-",
      strformat("%lld hit / %lld miss / %lld wait",
                metrics.counter_value(obs::kCacheGridmapsHits),
                metrics.counter_value(obs::kCacheGridmapsMisses),
                metrics.counter_value(obs::kCacheGridmapsInflightWaits)));
  gate(reduction_pct >= 30.0,
       "grid-map reuse must cut the AutoGrid stage by >= 30%");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_kernel_report();
}

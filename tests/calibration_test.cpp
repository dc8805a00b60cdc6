// Calibration regression tests: the cloud cost model is tuned so the
// simulated experiments land on the paper's headline numbers; these
// tests pin that calibration so refactors cannot silently drift it.

#include <gtest/gtest.h>

#include "cloud/cost_model.hpp"
#include "cloud/vm.hpp"
#include "data/table2.hpp"
#include "obs/metrics.hpp"
#include "scidock/experiment.hpp"

namespace scidock {
namespace {

TEST(Calibration, Ad4TwoCoreTetMatchesPaperBallpark) {
  // Paper: 10,000 pairs in 12.5 days on 2 cores => ~216 s of chain per
  // pair. Allow +-20% (failures and staging ride on top of chain means).
  core::ScidockOptions options;
  options.engine_mode = core::EngineMode::ForceAd4;
  auto exp = core::make_experiment(data::table2_receptors(),
                                   data::table2_ligands(), 2000, options);
  const wf::SimReport r = core::run_simulated(exp, 2);
  const double serial_per_pair = r.total_execution_time_s * 2.0 / 2000.0;
  EXPECT_GT(serial_per_pair, 216.0 * 0.8);
  EXPECT_LT(serial_per_pair, 216.0 * 1.25);
}

TEST(Calibration, VinaWorkflowIsFasterThanAd4) {
  // Paper: 9 days vs 12.5 days on 2 cores => Vina chain ~0.72x of AD4's.
  core::ScidockOptions ad4_opts;
  ad4_opts.engine_mode = core::EngineMode::ForceAd4;
  auto ad4_exp = core::make_experiment(data::table2_receptors(),
                                       data::table2_ligands(), 1000, ad4_opts);
  core::ScidockOptions vina_opts;
  vina_opts.engine_mode = core::EngineMode::ForceVina;
  auto vina_exp = core::make_experiment(data::table2_receptors(),
                                        data::table2_ligands(), 1000, vina_opts);
  const double ad4 =
      core::run_simulated(ad4_exp, 4).total_execution_time_s;
  const double vina =
      core::run_simulated(vina_exp, 4).total_execution_time_s;
  EXPECT_LT(vina, ad4);
  EXPECT_NEAR(vina / ad4, 9.0 / 12.5, 0.12);
}

TEST(Calibration, ImprovementAt32CoresNearPaperHeadline) {
  // Paper Section VI: 95.4% (AD4) improvement at 32 cores vs one core.
  core::ScidockOptions options;
  options.engine_mode = core::EngineMode::ForceAd4;
  auto exp = core::make_experiment(data::table2_receptors(),
                                   data::table2_ligands(), 2000, options);
  const double tet2 = core::run_simulated(exp, 2).total_execution_time_s;
  const double tet32 = core::run_simulated(exp, 32).total_execution_time_s;
  const double improvement = 100.0 * (1.0 - tet32 / (2.0 * tet2));
  EXPECT_GT(improvement, 92.0);
  EXPECT_LT(improvement, 98.5);
}

TEST(Calibration, EfficiencyDegradesPast32Cores) {
  // Paper Figure 9: efficiency visibly decreases from 32 to 128 cores.
  core::ScidockOptions options;
  auto exp = core::make_experiment(data::table2_receptors(),
                                   data::table2_ligands(), 3000, options);
  const double tet32 = core::run_simulated(exp, 32).total_execution_time_s;
  const double tet128 = core::run_simulated(exp, 128).total_execution_time_s;
  const double eff_ratio = (tet32 * 32.0) / (tet128 * 128.0);
  EXPECT_LT(tet128, tet32);        // still a gain from more cores
  EXPECT_LT(eff_ratio, 0.9);       // but efficiency clearly degraded
}

TEST(Calibration, FailureRateNearTenPercent) {
  // "Each execution of SciDock contains about 10% of activity execution
  // failures" (Section IV.B).
  core::ScidockOptions options;
  auto exp = core::make_experiment(data::table2_receptors(),
                                   data::table2_ligands(), 1000, options);
  const wf::SimReport r = core::run_simulated(exp, 16);
  const double rate =
      static_cast<double>(r.activations_failed) /
      static_cast<double>(r.activations_finished + r.activations_failed);
  EXPECT_NEAR(rate, 0.10, 0.03);
}

TEST(Calibration, ElasticAd4CampaignIsPinned) {
  // Exact simulator output for a fixed seed. The elastic run reaches the
  // cluster's boot-latency and VM-jitter draws, the greedy scheduler's
  // fast-VM threshold, the serial scheduler's planning overhead and the
  // shared-FS staging prices, so a drift in any of them moves these
  // numbers.
  core::ScidockOptions options;
  options.engine_mode = core::EngineMode::ForceAd4;
  auto exp = core::make_experiment(data::table2_receptors(),
                                   data::table2_ligands(), 300, options);
  wf::SimExecutorOptions sim = core::default_sim_options(8, 7);
  sim.elasticity = true;
  sim.min_vms = 1;
  sim.max_vms = 6;
  sim.elastic_vm_type = cloud::vm_type_m3_2xlarge();
  sim.elasticity_period_s = 37.0;
  const wf::SimReport r = core::run_simulated(exp, 8, nullptr, sim);
  EXPECT_DOUBLE_EQ(r.total_execution_time_s, 3106.192706520621);
  EXPECT_DOUBLE_EQ(r.scheduling_overhead_s, 2757.3169563533784);
  EXPECT_DOUBLE_EQ(r.data_staging_s, 534.35230463999449);
  EXPECT_DOUBLE_EQ(r.cloud_cost_usd, 5.4);
  EXPECT_EQ(r.peak_alive_vms, 6);
  EXPECT_EQ(r.activations_finished, 2304);
  EXPECT_EQ(r.activations_failed, 244);
  EXPECT_EQ(r.activations_hung, 29);
}

TEST(Calibration, SchedulerSeriesArePinned) {
  // The scheduler's placement series for `scidock_cli sweep --engine ad4
  // --pairs 2500 --cores 8`. The mean queue length counts the ready
  // queue before each pick and the overhead charges the serial planner
  // per pick (Figures 8-9), so a change in what the policy picks or when
  // it counts moves these numbers.
  core::ScidockOptions options;
  options.engine_mode = core::EngineMode::ForceAd4;
  auto exp = core::make_experiment(data::table2_receptors(),
                                   data::table2_ligands(), 2500, options);
  obs::MetricsRegistry metrics;
  wf::SimExecutorOptions sim;
  sim.obs.metrics = &metrics;
  core::run_simulated(exp, 8, nullptr, sim);
  EXPECT_EQ(metrics.counter_value("scidock_sched_picks_total"), 21513);
  EXPECT_EQ(metrics.counter_value("scidock_sched_reexecution_picks_total"),
            2255);
  EXPECT_DOUBLE_EQ(metrics.gauge("scidock_sched_mean_queue_length").value(),
                   1854.1778459536094);
  EXPECT_DOUBLE_EQ(metrics.gauge("scidock_sched_overhead_seconds").value(),
                   5661.3811165670031);
}

TEST(Calibration, ReceptorPrepAveragesTenSeconds) {
  // "The third activity (Receptor preparation) consumes approximately 10
  // seconds" (Section V.C).
  const cloud::CostModel model = cloud::CostModel::scidock_default();
  EXPECT_NEAR(model.cost("prepreceptor").mean_s, 10.0, 1.0);
}

}  // namespace
}  // namespace scidock

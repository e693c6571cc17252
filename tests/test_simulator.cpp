// Tests for the event-driven circuit-switched simulator, including the
// key validation property: dynamically observed SNR is never worse than
// the static worst-case bound of the same mapping.

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "model/evaluation.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/generator.hpp"

namespace phonoc {
namespace {

SimulationOptions fast_sim() {
  SimulationOptions options;
  options.duration_ns = 20000.0;
  options.arrivals_per_us = 1.0;
  return options;
}

TEST(Simulator, DeterministicForSameSeed) {
  ExperimentSpec spec;
  spec.benchmark = "mwd";
  const auto problem = make_experiment(spec);
  const auto mapping = Mapping::identity(problem.task_count(),
                                         problem.tile_count());
  const auto a = simulate(problem.network(), problem.cg(), mapping,
                          fast_sim());
  const auto b = simulate(problem.network(), problem.cg(), mapping,
                          fast_sim());
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.worst_snr_db, b.worst_snr_db);
  EXPECT_DOUBLE_EQ(a.latency_ns.mean(), b.latency_ns.mean());
}

TEST(Simulator, DeliversTraffic) {
  ExperimentSpec spec;
  spec.benchmark = "pip";
  const auto problem = make_experiment(spec);
  const auto mapping = Mapping::identity(problem.task_count(),
                                         problem.tile_count());
  const auto result = simulate(problem.network(), problem.cg(), mapping,
                               fast_sim());
  EXPECT_GT(result.offered, 0u);
  EXPECT_GT(result.delivered, 0u);
  EXPECT_LE(result.delivered, result.offered);
  EXPECT_GT(result.delivered_gbps, 0.0);
  EXPECT_GT(result.mean_link_utilization, 0.0);
  EXPECT_LE(result.mean_link_utilization, 1.0);
}

TEST(Simulator, LatencyBoundedBelowByServiceTime) {
  SimulationOptions options = fast_sim();
  ExperimentSpec spec;
  spec.benchmark = "pip";
  const auto problem = make_experiment(spec);
  const auto mapping = Mapping::identity(problem.task_count(),
                                         problem.tile_count());
  const auto result = simulate(problem.network(), problem.cg(), mapping,
                               options);
  const double service_ns =
      options.setup_ns + options.payload_bits / options.line_rate_gbps;
  EXPECT_GE(result.latency_ns.min(), service_ns - 1e-9);
  EXPECT_GE(result.wait_ns.min(), 0.0);
  // latency = wait + service exactly, transmission by transmission.
  EXPECT_NEAR(result.latency_ns.mean(), result.wait_ns.mean() + service_ns,
              1e-6);
}

TEST(Simulator, HigherLoadMeansMoreWaiting) {
  ExperimentSpec spec;
  spec.benchmark = "mpeg4";  // hub traffic: contention guaranteed
  const auto problem = make_experiment(spec);
  const auto mapping = Mapping::identity(problem.task_count(),
                                         problem.tile_count());
  SimulationOptions light = fast_sim();
  light.arrivals_per_us = 0.2;
  SimulationOptions heavy = fast_sim();
  heavy.arrivals_per_us = 5.0;
  const auto l = simulate(problem.network(), problem.cg(), mapping, light);
  const auto h = simulate(problem.network(), problem.cg(), mapping, heavy);
  EXPECT_GT(h.offered, l.offered);
  EXPECT_GE(h.wait_ns.mean(), l.wait_ns.mean());
}

/// The central validation: per-transmission SNR under dynamic traffic
/// can never fall below the static all-edges-active worst case.
class SimulatorBoundSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(SimulatorBoundSweep, DynamicSnrBoundedByStaticWorstCase) {
  ExperimentSpec spec;
  spec.benchmark = GetParam();
  const auto problem = make_experiment(spec);
  Rng rng(7);
  const auto mapping =
      Mapping::random(problem.task_count(), problem.tile_count(), rng);
  const auto static_result = evaluate_mapping(
      problem.network(), problem.cg(), mapping.assignment());
  SimulationOptions options = fast_sim();
  options.arrivals_per_us = 4.0;  // stress co-activation
  const auto dynamic_result =
      simulate(problem.network(), problem.cg(), mapping, options);
  ASSERT_GT(dynamic_result.delivered, 0u);
  EXPECT_GE(dynamic_result.worst_snr_db,
            static_result.worst_snr_db - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Apps, SimulatorBoundSweep,
                         ::testing::Values("pip", "mwd", "mpeg4", "vopd"));

/// With two communications, a co-active attacker is the only noise a
/// victim can see, so whenever heavy traffic makes the two circuits
/// overlap, the simulated worst SNR equals the static worst case
/// exactly: the simulator's pair noise must agree with the scalar
/// oracle bit for bit.
TEST(Simulator, TwoCoActiveEdgesReachTheStaticWorstCaseExactly) {
  CommGraph cg("pairs");
  for (const char* task : {"a", "b", "c", "d"}) cg.add_task(task);
  cg.add_communication("a", "b", 64);
  cg.add_communication("c", "d", 64);
  const auto net = make_network(TopologyKind::Mesh, 3, "crux");
  const double ceiling = net->options().snr_ceiling_db;
  SimulationOptions options;
  options.duration_ns = 20000.0;
  options.arrivals_per_us = 20.0;
  Rng rng(5);
  int crosstalk_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto mapping = Mapping::random(4, net->tile_count(), rng);
    const auto dynamic_result = simulate(*net, cg, mapping, options);
    if (dynamic_result.worst_snr_db == ceiling) continue;  // never co-active
    ++crosstalk_seen;
    const auto static_result =
        evaluate_mapping(*net, cg, mapping.assignment());
    EXPECT_EQ(dynamic_result.worst_snr_db, static_result.worst_snr_db)
        << "trial " << trial;
  }
  EXPECT_GT(crosstalk_seen, 0);
}

TEST(Simulator, ConflictingCircuitsNeverOverlap) {
  // Two tasks sending to the same destination must serialize (ejection
  // port conflict): with only these two edges, the destination's wait
  // statistics must show blocking under heavy load.
  CommGraph cg("converge");
  cg.add_task("a");
  cg.add_task("b");
  cg.add_task("sink");
  cg.add_communication("a", "sink", 64);
  cg.add_communication("b", "sink", 64);
  const auto net = make_network(TopologyKind::Mesh, 2, "crux");
  const auto mapping = Mapping::identity(3, 4);
  SimulationOptions options;
  options.duration_ns = 50000.0;
  options.arrivals_per_us = 20.0;  // far beyond the circuit capacity
  const auto result = simulate(*net, cg, mapping, options);
  EXPECT_GT(result.wait_ns.max(), 0.0);
  // And the SNR of serialized circuits sharing no compatible overlap
  // with anything else is the ceiling.
  EXPECT_DOUBLE_EQ(result.worst_snr_db, net->options().snr_ceiling_db);
}

TEST(Simulator, EdgelessGraphIsQuiet) {
  CommGraph cg("silent");
  cg.add_task("only");
  const auto net = make_network(TopologyKind::Mesh, 2, "crux");
  const auto result = simulate(*net, cg, Mapping::identity(1, 4), {});
  EXPECT_EQ(result.offered, 0u);
  EXPECT_EQ(result.delivered, 0u);
  EXPECT_DOUBLE_EQ(result.worst_snr_db, net->options().snr_ceiling_db);
}

TEST(Simulator, RejectsBadOptions) {
  const auto net = make_network(TopologyKind::Mesh, 2, "crux");
  const auto cg = pipeline_cg(3);
  const auto mapping = Mapping::identity(3, 4);
  SimulationOptions bad;
  bad.duration_ns = 0.0;
  EXPECT_THROW((void)simulate(*net, cg, mapping, bad), InvalidArgument);
  SimulationOptions warm;
  warm.warmup_ns = warm.duration_ns + 1.0;
  EXPECT_THROW((void)simulate(*net, cg, mapping, warm), InvalidArgument);
}

TEST(Simulator, WarmupExcludesEarlyTransmissions) {
  ExperimentSpec spec;
  spec.benchmark = "pip";
  const auto problem = make_experiment(spec);
  const auto mapping = Mapping::identity(problem.task_count(),
                                         problem.tile_count());
  SimulationOptions all = fast_sim();
  SimulationOptions warmed = fast_sim();
  warmed.warmup_ns = all.duration_ns / 2.0;
  const auto a = simulate(problem.network(), problem.cg(), mapping, all);
  const auto w = simulate(problem.network(), problem.cg(), mapping, warmed);
  EXPECT_EQ(a.offered, w.offered);       // same arrivals
  EXPECT_LT(w.delivered, a.delivered);   // fewer measured
}

}  // namespace
}  // namespace phonoc

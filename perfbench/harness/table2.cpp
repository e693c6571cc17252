/// \file table2.cpp
/// \brief Workload `table2_sweep`: the paper's Table II grid through an
/// in-process BatchEngine, repeated for the timed window.
///
/// 8 apps x {mesh, torus} x {snr, loss} x {rs, ga, sa, tabu, rpbla} at a
/// fixed evaluation budget: 160 cells whose CPU splits between the
/// scalar path (rs), the incremental path (sa/tabu/rpbla) and the batch
/// kernel (ga). The seed picks the optimizer seed. The fleet and the
/// service stay idle.

#include "common.hpp"
#include "core/engine.hpp"
#include "core/evaluator.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace phonoc;

namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::uint64_t kEvalBudget = 2000;
constexpr double kSloSeconds = 0.1;

SweepSpec table2_spec(std::uint64_t seed) {
  SweepSpec spec;
  spec.add_all_benchmarks()
      .add_topology(TopologyKind::Mesh)
      .add_topology(TopologyKind::Torus)
      .add_goal(OptimizationGoal::Snr)
      .add_goal(OptimizationGoal::InsertionLoss)
      .add_optimizers(optimizer_names())
      .add_budget(kEvalBudget)
      .add_seed(derive_seed(seed, 1) % 1'000'000);
  return spec;
}

struct Reference {
  std::vector<std::string> canonical;
  std::vector<CellResult> cells;
  std::uint64_t logical = 0, physical = 0, hits = 0, misses = 0;
};

/// The sequential in-process reference: every cell through Engine on a
/// caller-owned Evaluator, so the memo counters survive the run.
Reference sequential_reference(const SweepSpec& spec, const Problems& problems) {
  obs::TraceSpan span("core", "reference");
  Reference ref;
  const EvaluatorOptions options{};
  for (const SweepCell& cell : expand(spec)) {
    const MappingProblem& problem =
        *problems.at({cell.workload, cell.topology, cell.goal});
    Evaluator evaluator(problem, options);
    CellResult result;
    result.cell = cell;
    result.seed = spec.seeds[cell.seed];
    result.run = Engine(problem, options)
                     .run_with(evaluator, spec.optimizers[cell.optimizer],
                               spec.budgets[cell.budget], result.seed);
    ref.logical += evaluator.evaluation_count();
    ref.physical += evaluator.physical_evaluation_count();
    ref.hits += evaluator.cache_hit_count();
    ref.misses += evaluator.cache_miss_count();
    ref.canonical.push_back(canonical_cell(result));
    ref.cells.push_back(std::move(result));
  }
  return ref;
}

}  // namespace

Outcome run_table2_sweep(const Args& args) {
  Outcome outcome;

  // Correctness gate: every pass, the warm one included, must be
  // bit-identical to the sequential reference. Each pass is compared as
  // soon as it returns, outside its own timing, and then dropped, so
  // memory does not grow with the number of passes.
  const SweepSpec grid = table2_spec(args.seed);
  const Reference ref =
      sequential_reference(grid, build_sweep_problems(grid, expand(grid)));
  std::vector<CellResult> pass;
  const auto check = [&] {
    for (std::size_t i = 0; i < pass.size(); ++i) {
      ++outcome.attempted;
      if (pass[i].status != CellStatus::Ok)
        outcome.mismatch("cell " + std::to_string(i) +
                         " failed: " + pass[i].error);
      else if (canonical_cell(pass[i]) != ref.canonical[i])
        outcome.mismatch("cell " + std::to_string(i) +
                         " differs from the sequential reference");
    }
  };

  // The program's set-up: the grid (the eight benchmark task graphs)
  // and the engine. BatchEngine builds the problems inside every run,
  // so problem building is part of each timed pass, not of the set-up.
  SweepSpec spec;
  std::unique_ptr<BatchEngine> engine;
  const std::vector<double> setup_times = warm_up(kWorkers, [&] {
    obs::TraceSpan span("setup", "engine");
    const Timer timer;
    spec = table2_spec(args.seed);
    BatchOptions options;
    options.workers = kWorkers;
    engine = std::make_unique<BatchEngine>(options);
    return timer.elapsed_seconds();
  });
  {
    obs::TraceSpan span("bench", "warm_pass");
    pass = engine->run(spec);
  }
  check();

  std::vector<double> pass_walls, busy_shares, cell_seconds;
  OptimizerRates rates;
  const Timer window;
  while (window.elapsed_seconds() < args.seconds || pass_walls.size() < 3) {
    {
      obs::TraceSpan span("exec", "pass");
      const Timer timer;
      pass = engine->run(spec);
      pass_walls.push_back(timer.elapsed_seconds());
    }
    check();
    double cpu = 0.0;
    for (const CellResult& cell : pass) {
      cpu += cell.seconds;
      cell_seconds.push_back(cell.seconds);
      rates.add(spec.optimizers[cell.cell.optimizer], cell);
    }
    busy_shares.push_back(cpu / (double(kWorkers) * pass_walls.back()));
  }

  std::uint64_t evals_per_pass = 0;
  RunningStats snr;
  for (const CellResult& cell : ref.cells) {
    evals_per_pass += cell.run.search.evaluations;
    if (spec.goals[cell.cell.goal] == OptimizationGoal::Snr)
      snr.add(cell.run.best_evaluation.worst_snr_db);
  }

  outcome.set("setup_s", quantile(setup_times, 0.5));
  outcome.set("evals_per_s",
              double(evals_per_pass) / quantile(pass_walls, 0.5));
  // The whole grid is the one request of this workload, and a bulk one.
  outcome.set("latency_p50_s", quantile(pass_walls, 0.5));
  outcome.set("latency_p99_s", quantile(pass_walls, 0.99));
  outcome.set("bulk_latency_p50_s", quantile(pass_walls, 0.5));
  outcome.set("slo_attainment", share_within(cell_seconds, kSloSeconds));
  outcome.set("solution_snr_db", snr.mean());

  report_common_layers(spec, pass, args.seed, args.trace, outcome);
  rates.report(outcome);
  outcome.set("core.memo_hit_ratio",
              double(ref.hits) / double(std::max<std::uint64_t>(
                                     1, ref.hits + ref.misses)));
  outcome.set("core.physical_per_logical",
              double(ref.physical) /
                  double(std::max<std::uint64_t>(1, ref.logical)));
  outcome.set("exec.cell_p50_s", quantile(cell_seconds, 0.5));
  outcome.set("exec.cell_max_s", quantile(cell_seconds, 1.0));
  outcome.set("exec.pool_busy_share", quantile(busy_shares, 0.5));
  outcome.idle_layers = {"sched", "service"};
  outcome.set("peak_rss_mb", peak_rss_mb());
  return outcome;
}

}  // namespace perfbench

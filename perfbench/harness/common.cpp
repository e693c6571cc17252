#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>
#include <sstream>
#include <thread>

#include "exec/serialize.hpp"
#include "model/batch_eval.hpp"
#include "model/evaluation.hpp"
#include "model/incremental.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace phonoc;

void Outcome::mismatch(std::string what) {
  ++failed;
  correct = false;
  if (mismatches.size() < 8) mismatches.push_back(std::move(what));
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double share_within(const std::vector<double>& values, double limit) {
  if (values.empty()) return 1.0;
  const auto n = std::count_if(values.begin(), values.end(),
                               [limit](double v) { return v <= limit; });
  return double(n) / double(values.size());
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

/// One warm-up unit: a dependent floating-point chain per thread, long
/// enough (~0.1 s warm) that thread start-up is noise.
double warm_unit(std::size_t threads) {
  const Timer timer;
  std::vector<std::thread> pool;
  std::vector<double> sinks(threads, 0.0);
  for (std::size_t t = 0; t < threads; ++t)
    pool.emplace_back([&sinks, t] {
      double x = 1.0 + double(t);
      for (int i = 0; i < 40'000'000; ++i) x = x * 0.999999937 + 1e-7;
      sinks[t] = x;
    });
  for (auto& thread : pool) thread.join();
  volatile double sink = std::accumulate(sinks.begin(), sinks.end(), 0.0);
  (void)sink;
  return timer.elapsed_seconds();
}

}  // namespace

std::vector<double> warm_up(std::size_t threads,
                            const std::function<double()>& set_up) {
  {
    obs::TraceSpan span("bench", "warm_up");
    const Timer timer;
    std::vector<double> units;
    while (timer.elapsed_seconds() < 8.0) {
      units.push_back(warm_unit(threads));
      if (timer.elapsed_seconds() < 1.5 || units.size() < 3) continue;
      const auto last = units.end() - 3;
      const auto [lo, hi] = std::minmax_element(last, units.end());
      if (*hi <= *lo * 1.03) break;
    }
  }
  std::vector<double> setup_times;
  for (int rep = 0; rep < 61; ++rep) {
    {
      obs::TraceSpan span("bench", "warm_up");
      (void)warm_unit(threads);
    }
    setup_times.push_back(set_up());
  }
  return setup_times;
}

std::string canonical_cell(const CellResult& result) {
  CellResult copy = result;
  copy.seconds = 0.0;
  copy.run.search.seconds = 0.0;
  std::ostringstream out;
  write_cell_result(out, copy);
  return out.str();
}

namespace {

/// Problems of a grid plus one BatchEvalPlan each, for the probes.
struct ProblemSet {
  std::map<SweepProblemKey, std::shared_ptr<const MappingProblem>> problems;
  std::vector<std::shared_ptr<const BatchEvalPlan>> plans;
  double problem_build_s = 0.0;
  double plan_build_ms = 0.0;  ///< mean per plan
};

ProblemSet build_problem_set(const SweepSpec& spec) {
  ProblemSet set;
  {
    obs::TraceSpan span("setup", "build_problems");
    const Timer timer;
    set.problems = build_sweep_problems(spec, expand(spec));
    set.problem_build_s = timer.elapsed_seconds();
  }
  obs::TraceSpan span("model", "plan_build");
  const Timer timer;
  for (const auto& [key, problem] : set.problems)
    set.plans.push_back(std::make_shared<const BatchEvalPlan>(
        problem->network(), problem->cg()));
  set.plan_build_ms =
      timer.elapsed_ms() / double(std::max<std::size_t>(1, set.plans.size()));
  return set;
}

struct KernelTimes {
  double scalar_us_per_eval = 0.0;
  double batch_us_per_eval = 0.0;
  double delta_us_per_swap = 0.0;
};

struct CodecTimes {
  double bytes_per_cell = 0.0;
  double us_per_cell = 0.0;
};

constexpr std::size_t kProbeMappings = 64;
constexpr std::size_t kProbeSwaps = 256;

bool same_point(double a_snr, double a_loss, double b_snr, double b_loss) {
  return std::memcmp(&a_snr, &b_snr, sizeof a_snr) == 0 &&
         std::memcmp(&a_loss, &b_loss, sizeof a_loss) == 0;
}

KernelTimes probe_kernels(const ProblemSet& set, std::uint64_t seed,
                          Outcome& outcome) {
  std::vector<double> scalar_reps, batch_reps, delta_reps;
  for (int rep = 0; rep < 3; ++rep) {
    double scalar_s = 0.0, batch_s = 0.0, delta_s = 0.0;
    std::size_t evals = 0, swaps = 0;
    std::size_t plan_index = 0;
    for (const auto& [key, problem] : set.problems) {
      const auto& plan = set.plans[plan_index++];
      const NetworkModel& net = problem->network();
      const CommGraph& cg = problem->cg();
      const std::size_t tasks = problem->task_count();
      const std::size_t tiles = problem->tile_count();
      Rng rng(derive_seed(seed, 1000 + plan_index));
      std::vector<TileId> flat;
      for (std::size_t m = 0; m < kProbeMappings; ++m) {
        const Mapping mapping = Mapping::random(tasks, tiles, rng);
        flat.insert(flat.end(), mapping.assignment().begin(),
                    mapping.assignment().end());
      }

      std::vector<EvaluationResult> scalar(kProbeMappings);
      {
        obs::TraceSpan span("model", "scalar_probe");
        const Timer timer;
        for (std::size_t m = 0; m < kProbeMappings; ++m)
          scalar[m] = evaluate_mapping(
              net, cg, std::span(flat).subspan(m * tasks, tasks));
        scalar_s += timer.elapsed_seconds();
      }
      std::vector<BatchPoint> batch(kProbeMappings);
      {
        obs::TraceSpan span("model", "batch_probe");
        BatchEvaluator kernel(plan);
        const Timer timer;
        kernel.evaluate(flat, kProbeMappings, batch);
        batch_s += timer.elapsed_seconds();
      }
      evals += kProbeMappings;
      for (std::size_t m = 0; m < kProbeMappings; ++m)
        if (!same_point(scalar[m].worst_snr_db, scalar[m].worst_loss_db,
                        batch[m].worst_snr_db, batch[m].worst_loss_db))
          outcome.mismatch("batch kernel differs from evaluate_mapping");

      IncrementalEvaluation delta(net, cg);
      delta.reset(std::span(flat).subspan(0, tasks));
      std::vector<std::pair<TileId, TileId>> moves;
      for (std::size_t s = 0; s < kProbeSwaps; ++s) {
        const auto a = static_cast<TileId>(rng.next_below(tiles));
        auto b = static_cast<TileId>(rng.next_below(tiles - 1));
        if (b >= a) ++b;
        moves.emplace_back(a, b);
      }
      {
        obs::TraceSpan span("model", "delta_probe");
        const Timer timer;
        for (const auto& [a, b] : moves) {
          delta.propose_swap(a, b);
          delta.revert();
        }
        delta_s += timer.elapsed_seconds();
      }
      swaps += moves.size();
      // Spot-check the delta kernel against a full evaluation.
      delta.propose_swap(moves.front().first, moves.front().second);
      const std::vector<TileId> after(delta.assignment().begin(),
                                      delta.assignment().end());
      const EvaluationView view = delta.view();
      const EvaluationResult full = evaluate_mapping(net, cg, after);
      if (!same_point(view.worst_snr_db, view.worst_loss_db,
                      full.worst_snr_db, full.worst_loss_db))
        outcome.mismatch("incremental kernel differs from evaluate_mapping");
      delta.revert();
    }
    scalar_reps.push_back(scalar_s * 1e6 / double(evals));
    batch_reps.push_back(batch_s * 1e6 / double(evals));
    delta_reps.push_back(delta_s * 1e6 / double(swaps));
  }
  return {quantile(scalar_reps, 0.5), quantile(batch_reps, 0.5),
          quantile(delta_reps, 0.5)};
}

CodecTimes probe_cell_codec(const std::vector<CellResult>& cells,
                            Outcome& outcome) {
  obs::TraceSpan span("exec", "codec_probe");
  std::vector<double> reps;
  std::size_t bytes = 0;
  for (int rep = 0; rep < 5; ++rep) {
    bytes = 0;
    const Timer timer;
    for (const CellResult& cell : cells) {
      std::ostringstream out;
      write_cell_result(out, cell);
      const std::string text = out.str();
      bytes += text.size();
      std::istringstream in(text);
      const auto back = read_cell_result(in);
      if (!back || back->cell.index != cell.cell.index)
        outcome.mismatch("cell block did not round-trip");
    }
    reps.push_back(timer.elapsed_seconds() * 1e6 /
                   double(std::max<std::size_t>(1, cells.size())));
  }
  return {double(bytes) / double(std::max<std::size_t>(1, cells.size())),
          quantile(reps, 0.5)};
}

}  // namespace

void report_common_layers(const SweepSpec& spec,
                          const std::vector<CellResult>& cells,
                          std::uint64_t seed, bool trace, Outcome& outcome) {
  if (!trace) return;
  std::vector<double> problem_reps, plan_reps;
  ProblemSet set;
  for (int rep = 0; rep < 3; ++rep) {
    set = build_problem_set(spec);
    problem_reps.push_back(set.problem_build_s);
    plan_reps.push_back(set.plan_build_ms);
  }
  outcome.set("setup.problem_build_s", quantile(problem_reps, 0.5));
  outcome.set("model.plan_build_ms", quantile(plan_reps, 0.5));
  const KernelTimes kernels = probe_kernels(set, seed, outcome);
  outcome.set("model.scalar_us_per_eval", kernels.scalar_us_per_eval);
  outcome.set("model.batch_us_per_eval", kernels.batch_us_per_eval);
  outcome.set("model.delta_us_per_swap", kernels.delta_us_per_swap);
  const CodecTimes codec = probe_cell_codec(cells, outcome);
  outcome.set("exec.cell_bytes", codec.bytes_per_cell);
  outcome.set("exec.serialize_us_per_cell", codec.us_per_cell);
}

void OptimizerRates::add(const std::string& optimizer,
                         const CellResult& cell) {
  auto& [evals, seconds] = sums_[optimizer];
  evals += double(cell.run.search.evaluations);
  seconds += cell.seconds;
}

void OptimizerRates::report(Outcome& outcome) const {
  for (const std::string& name : optimizer_names()) {
    const auto it = sums_.find(name);
    const bool seen = it != sums_.end() && it->second.second > 0.0;
    outcome.set("mapping." + name + ".evals_per_s",
                seen ? it->second.first / it->second.second : 0.0);
  }
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  // SplitMix64 finalizer over (seed, k): independent streams per k.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + k + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const std::vector<std::string>& optimizer_names() {
  static const std::vector<std::string> names{"rs", "ga", "sa", "tabu",
                                              "rpbla"};
  return names;
}

}  // namespace perfbench

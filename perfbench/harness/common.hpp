#pragma once
/// \file common.hpp
/// \brief Shared pieces of the benchmark harness: the result record,
/// the warm-up that also times the set-up, and the layer probes every
/// workload runs on its own inputs.
///
/// The harness measures each layer from outside, by timing calls into
/// its public functions; it adds no code to the library. Spans recorded
/// here use the library's own obs tracer, with the layer name as the
/// category, so a traced run's Chrome trace holds the benchmark's layer
/// spans next to the library's own exec/sched/service spans.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "exec/batch_engine.hpp"
#include "util/stats.hpp"

namespace perfbench {

/// Command-line arguments of one harness run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace output (trace runs only)
};

/// What one workload run reports. `metrics` holds end-to-end and
/// per-layer values by name; a layer the workload does not exercise is
/// listed in `idle_layers` instead, and reads 0.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the run cannot stand for the workload (an open-loop
  /// generator that fell behind its schedule, a growing backlog).
  bool valid = true;
  std::string invalid_reason;
  std::vector<std::string> mismatches;  ///< first few, for diagnostics
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> idle_layers;

  void set(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void mismatch(std::string what);
};

using Problems =
    std::map<phonoc::SweepProblemKey,
             std::shared_ptr<const phonoc::MappingProblem>>;

/// Steady-clock time in seconds (the open-loop schedule's time base).
[[nodiscard]] double now_seconds();

/// Share of `values` at or below `limit` (1 for an empty sample).
[[nodiscard]] double share_within(const std::vector<double>& values,
                                  double limit);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Run untimed multi-threaded work on `threads` threads until the time
/// of one unit settles: a vCPU left idle for a couple of seconds runs
/// the first ~1.5 s of multi-threaded work at about half speed, which
/// would otherwise land inside the timed window. Then run 61 more units
/// with one call of `set_up` after each, and return what those calls
/// return: the set-up is timed on warm CPUs, and spread over about six
/// seconds rather than done in one burst, because the speed of a shared
/// VM drifts from one second to the next. Only one per unit, so that every
/// set-up starts from the same state: a second set-up right after the
/// first runs on caches the first has filled, and takes ~40% less.
std::vector<double> warm_up(std::size_t threads,
                            const std::function<double()>& set_up);

/// A cell with its timing fields zeroed, rendered in the wire format:
/// two cells are bit-identical exactly when these strings are equal.
[[nodiscard]] std::string canonical_cell(const phonoc::CellResult& result);

/// The setup, model and cell-encoding per-layer metrics every workload
/// reports; they run only in traced runs. Problem building is timed on
/// `spec`'s problems, as a probe: no workload hands these problems to
/// the program, which builds its own inside every unit. The kernel and
/// codec probes time the scalar, batch and incremental kernels on 64
/// random mappings (and 256 swaps) per problem, and write plus read back
/// every cell of `cells`, each the median of a few repetitions.
/// Disagreements between the kernels, or a cell that does not
/// round-trip, count as mismatches.
void report_common_layers(const phonoc::SweepSpec& spec,
                          const std::vector<phonoc::CellResult>& cells,
                          std::uint64_t seed, bool trace, Outcome& outcome);

/// Per-optimizer logical evaluations per cell-second (mapping layer).
class OptimizerRates {
 public:
  void add(const std::string& optimizer, const phonoc::CellResult& cell);
  /// mapping.<name>.evals_per_s for rs/ga/sa/tabu/rpbla (0 when unseen).
  void report(Outcome& outcome) const;

 private:
  std::map<std::string, std::pair<double, double>> sums_;  // evals, seconds
};

/// Derive the workload's per-run seed stream element `k` from `seed`.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k);

/// The optimizers Table II compares, plus the two move-based ones.
[[nodiscard]] const std::vector<std::string>& optimizer_names();

Outcome run_table2_sweep(const Args& args);
Outcome run_fig3_fleet(const Args& args);
Outcome run_service_mixed(const Args& args);

}  // namespace perfbench

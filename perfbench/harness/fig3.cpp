/// \file fig3.cpp
/// \brief Workload `fig3_fleet`: the paper's Fig. 3 sampling grid
/// through sched::Scheduler over a two-host TCP fleet.
///
/// 8 apps x 16 seeds of random-mapping sampling cells (2000 samples
/// each), dealt to two in-process serve_connection workers behind real
/// 127.0.0.1 TcpListeners with 2 exec threads each. Cells stay small so
/// the wire shows: accepted sockets do not set TCP_NODELAY, and loopback
/// socketpairs would hide that. The seed picks the sampling seeds.

#include <atomic>
#include <thread>

#include "common.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "sched/service.hpp"
#include "sched/transport.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace phonoc;

namespace {

constexpr std::size_t kHosts = 2;
constexpr std::size_t kExecThreads = 2;
constexpr std::size_t kSeedsPerApp = 16;
constexpr std::uint64_t kSamplesPerCell = 2000;
constexpr double kSloSeconds = 0.1;

SweepSpec fig3_spec(std::uint64_t seed) {
  SweepSpec spec;
  spec.add_all_benchmarks()
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr);
  for (std::size_t s = 0; s < kSeedsPerApp; ++s)
    spec.add_seed(derive_seed(seed, 100 + s) % 1'000'000'000);
  SamplingSpec sampling;
  sampling.samples_per_cell = kSamplesPerCell;
  spec.use_sampling(sampling);
  return spec;
}

/// Two worker hosts served from this process over real TCP: each host
/// is a listener plus one thread running serve_connection on every
/// accepted scheduler dial, exactly what `phonoc_workerd` does.
class Fleet {
 public:
  Fleet() {
    for (std::size_t h = 0; h < kHosts; ++h)
      listeners_.push_back(std::make_unique<TcpListener>(0));
    for (auto& listener : listeners_)
      threads_.emplace_back([this, &listener] { serve(*listener); });
  }
  ~Fleet() {
    stop_.store(true);
    for (auto& thread : threads_) thread.join();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] std::vector<std::string> endpoints() const {
    std::vector<std::string> out;
    for (const auto& listener : listeners_)
      out.push_back("127.0.0.1:" + std::to_string(listener->port()));
    return out;
  }

  /// Dial every host and complete the scheduler handshake once.
  void handshake() const {
    obs::TraceSpan span("sched", "handshake_probe");
    TcpTransport transport;
    for (const std::string& endpoint : endpoints()) {
      auto conn = transport.connect(endpoint);
      conn->send(kSchedHello);
      const auto reply = conn->recv(10.0);
      if (reply.status != Connection::RecvStatus::Ok ||
          reply.payload.rfind(kSchedHello, 0) != 0)
        throw ExecError("fleet host " + endpoint + " failed the handshake");
      conn->send(kSchedQuit);
      conn->close();
    }
  }

 private:
  void serve(TcpListener& listener) {
    ServiceOptions options;
    options.advertised_capacity = kExecThreads;
    options.exec_threads = kExecThreads;
    while (!stop_.load()) {
      auto conn = listener.accept_for(0.01);
      if (conn) (void)serve_connection(*conn, options);
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<std::unique_ptr<TcpListener>> listeners_;
  std::vector<std::thread> threads_;
};

/// Per-app merged distributions of one grid (seed is the innermost
/// dimension, so each app's cells are contiguous).
std::vector<DistributionResult> merge_by_app(
    const SweepSpec& spec, const std::vector<CellResult>& cells) {
  std::vector<DistributionResult> out;
  const std::size_t per_app = spec.seeds.size();
  for (std::size_t app = 0; app < spec.workloads.size(); ++app)
    out.push_back(merge_cell_distributions(cells, app * per_app, per_app));
  return out;
}

}  // namespace

Outcome run_fig3_fleet(const Args& args) {
  Outcome outcome;

  // The program's set-up: the grid, the fleet listening, and every host
  // answering the scheduler handshake. Each host builds its problems
  // inside every shard, so problem building is part of each timed pass.
  SweepSpec spec;
  std::unique_ptr<Fleet> fleet;
  const std::vector<double> setup_times =
      warm_up(kHosts * kExecThreads, [&] {
        fleet.reset();
        obs::TraceSpan span("setup", "fleet");
        const Timer timer;
        spec = fig3_spec(args.seed);
        fleet = std::make_unique<Fleet>();
        fleet->handshake();
        return timer.elapsed_seconds();
      });

  SchedulerOptions options;
  options.hosts = fleet->endpoints();
  const Scheduler scheduler(options);
  std::vector<ScheduleResult> passes;
  {
    obs::TraceSpan span("bench", "warm_pass");
    passes.push_back(scheduler.run(spec));
  }
  std::vector<double> pass_walls;
  const Timer window;
  while (window.elapsed_seconds() < args.seconds || pass_walls.size() < 3) {
    obs::TraceSpan span("sched", "pass");
    const Timer timer;
    passes.push_back(scheduler.run(spec));
    pass_walls.push_back(timer.elapsed_seconds());
  }

  // Correctness gate, outside the timed window: every pass's merged
  // distributions must be identical to an in-process run of the grid.
  std::vector<DistributionResult> reference;
  {
    obs::TraceSpan span("exec", "reference");
    BatchOptions in_process;
    in_process.workers = kHosts * kExecThreads;
    reference = merge_by_app(spec, BatchEngine(in_process).run(spec));
  }
  std::vector<double> cell_seconds, busy_shares, pool_shares, shard_counts;
  std::size_t retries = 0, steals = 0, speculations = 0, duplicates = 0;
  std::size_t answered = 0, kept = 0;
  std::vector<CellResult> last_cells;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const ScheduleResult& pass = passes[p];
    outcome.attempted += pass.results.size();
    bool all_ok = true;
    for (const CellResult& cell : pass.results)
      if (cell.status != CellStatus::Ok) {
        all_ok = false;
        outcome.mismatch("cell " + std::to_string(cell.cell.index) +
                         " failed: " + cell.error);
      }
    if (all_ok) {
      const auto merged = merge_by_app(spec, pass.results);
      for (std::size_t app = 0; app < merged.size(); ++app)
        if (!identical_distributions(merged[app], reference[app]))
          outcome.mismatch("pass " + std::to_string(p) + " app " +
                           std::to_string(app) +
                           " differs from the in-process distribution");
    }
    if (p == 0) continue;  // the warm pass is checked, not timed
    double cpu = 0.0, host_wall = 0.0, shards = 0.0;
    for (const HostReport& host : pass.hosts) {
      cpu += host.cpu_seconds;
      host_wall += host.wall_seconds * double(kExecThreads);
      shards += double(host.shards);
      steals += host.steals;
      duplicates += host.duplicates;
      answered += host.cells_ok + host.cells_failed + host.duplicates;
      kept += host.cells_ok + host.cells_failed;
    }
    busy_shares.push_back(host_wall > 0.0 ? cpu / host_wall : 0.0);
    pool_shares.push_back(
        cpu / (double(kHosts * kExecThreads) * pass_walls[p - 1]));
    shard_counts.push_back(shards);
    retries += pass.pool.retries;
    speculations += pass.pool.speculations;
    for (const CellResult& cell : pass.results)
      cell_seconds.push_back(cell.seconds);
    last_cells = pass.results;
  }

  RunningStats snr;
  for (const DistributionResult& app : reference)
    snr.add(app.find("snr_db")->stats.mean());

  outcome.set("setup_s", quantile(setup_times, 0.5));
  outcome.set("evals_per_s", double(cell_count(spec) * kSamplesPerCell) /
                                 quantile(pass_walls, 0.5));
  // The whole grid is the one request of this workload, and a bulk one.
  outcome.set("latency_p50_s", quantile(pass_walls, 0.5));
  outcome.set("latency_p99_s", quantile(pass_walls, 0.99));
  outcome.set("bulk_latency_p50_s", quantile(pass_walls, 0.5));
  outcome.set("slo_attainment", share_within(cell_seconds, kSloSeconds));
  outcome.set("solution_snr_db", snr.mean());

  report_common_layers(spec, last_cells, args.seed, args.trace, outcome);
  outcome.set("exec.cell_p50_s", quantile(cell_seconds, 0.5));
  outcome.set("exec.cell_max_s", quantile(cell_seconds, 1.0));
  outcome.set("exec.pool_busy_share", quantile(pool_shares, 0.5));
  outcome.set("sched.host_busy_share", quantile(busy_shares, 0.5));
  outcome.set("sched.shards", quantile(shard_counts, 0.5));
  outcome.set("sched.retries", double(retries));
  outcome.set("sched.steals", double(steals));
  outcome.set("sched.speculations", double(speculations));
  outcome.set("sched.duplicates", double(duplicates));
  outcome.set("sched.useful_share",
              double(kept) / double(std::max<std::size_t>(1, answered)));
  outcome.idle_layers = {"mapping", "core", "service"};
  outcome.set("peak_rss_mb", peak_rss_mb());
  return outcome;
}

}  // namespace perfbench

/// \file service.cpp
/// \brief Workload `service_mixed`: a phonocd ServiceServer on
/// 127.0.0.1 driven open-loop by one generator thread over four client
/// connections.
///
/// The mix follows independent users: a seeded Poisson schedule of
/// interactive requests — single-frame `evaluate`s of a random mapping
/// and 1-cell Optimize `request`s whose reply takes three frames — plus
/// 8-cell bulk sweeps. Most bulk sweeps reuse four problem sets, so
/// the problem cache and the memo bank hit; one in eight carries a
/// freshly generated random_cg, so the problem cache misses on it.
/// Latency is timed from each request's scheduled send, so a stall in
/// the generator or the server is charged to every request behind it.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "common.hpp"
#include "obs/trace.hpp"
#include "sched/transport.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/generator.hpp"

namespace perfbench {

using namespace phonoc;

namespace {

constexpr std::size_t kConnections = 4;
constexpr std::size_t kBrokerConcurrency = 2;  // broker workers
constexpr std::size_t kPoolWorkers = 2;        // cell pool of bulk requests
constexpr double kInteractivePerSecond = 150.0;
constexpr double kEvaluateShare = 0.25;  // of interactive arrivals
constexpr double kBulkPerSecond = 16.0;
constexpr std::uint64_t kCellBudget = 100;
constexpr std::size_t kCellSeeds = 3;  // 1-cell pool: 8 apps x 5 optimizers x 3
constexpr std::uint64_t kBulkBudget = 300;
constexpr std::size_t kBulkPool = 4;
constexpr double kFreshBulkShare = 1.0 / 8.0;
constexpr double kWarmSeconds = 1.5;
constexpr double kSloSeconds = 0.1;
constexpr double kMaxSendLag = 0.025;

enum class Kind { Evaluate, Cell, Bulk };

/// The requests a run can send, generated from the seed: the program
/// sees only these specs and mappings.
struct Catalog {
  std::vector<SweepSpec> evaluate;  ///< one per app: mesh, snr
  std::vector<SweepSpec> cell;      ///< one-cell Optimize requests
  std::vector<SweepSpec> bulk;      ///< reused pool first, then fresh ones
};

SweepSpec one_cell_spec(const std::string& app, TopologyKind topology,
                        const std::string& optimizer, std::uint64_t budget,
                        std::uint64_t seed) {
  SweepSpec spec;
  spec.add_benchmark(app)
      .add_topology(topology)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizer(optimizer)
      .add_budget(budget)
      .add_seed(seed);
  return spec;
}

/// An 8-cell bulk sweep: every app of `spec` on every listed topology,
/// goal, optimizer and seed.
SweepSpec bulk_spec(SweepSpec spec, const std::vector<TopologyKind>& topologies,
                    const std::vector<OptimizationGoal>& goals,
                    const std::vector<std::string>& optimizers,
                    std::uint64_t seed) {
  for (const TopologyKind topology : topologies) spec.add_topology(topology);
  for (const OptimizationGoal goal : goals) spec.add_goal(goal);
  return spec.add_optimizers(optimizers).add_budget(kBulkBudget).add_seed(seed);
}

Catalog make_catalog(std::uint64_t seed) {
  Catalog catalog;
  const auto apps = benchmark_names();
  for (const std::string& app : apps)
    catalog.evaluate.push_back(
        one_cell_spec(app, TopologyKind::Mesh, "rs", 1, 1));
  for (std::size_t r = 0; r < kCellSeeds; ++r)
    for (std::size_t a = 0; a < apps.size(); ++a)
      for (std::size_t o = 0; o < optimizer_names().size(); ++o)
        catalog.cell.push_back(one_cell_spec(
            apps[a], (a + o + r) % 2 ? TopologyKind::Torus : TopologyKind::Mesh,
            optimizer_names()[o], kCellBudget,
            derive_seed(seed, 200 + catalog.cell.size()) % 1'000'000));
  // The reused pool: all eight apps under one (topology, goal,
  // optimizer) each, every combination's topology and optimizer used
  // twice.
  const TopologyKind mesh = TopologyKind::Mesh, torus = TopologyKind::Torus;
  const OptimizationGoal snr = OptimizationGoal::Snr,
                         loss = OptimizationGoal::InsertionLoss;
  const std::tuple<TopologyKind, OptimizationGoal, const char*> pool[] = {
      {mesh, snr, "ga"}, {torus, snr, "rpbla"},
      {mesh, loss, "rpbla"}, {torus, loss, "ga"}};
  for (const auto& [topology, goal, optimizer] : pool) {
    SweepSpec spec;
    spec.add_all_benchmarks();
    catalog.bulk.push_back(
        bulk_spec(std::move(spec), {topology}, {goal}, {optimizer},
                  derive_seed(seed, 400 + catalog.bulk.size()) % 1'000'000));
  }
  return catalog;
}

/// One request of the schedule and what came back for it. The
/// generator writes `sent`, the connection's reader writes the reply
/// fields; no field is written by both.
struct Record {
  Kind kind = Kind::Cell;
  std::size_t spec = 0;  ///< index into the catalog list of its kind
  std::size_t conn = 0;
  bool timed = false;    ///< inside the measured window
  std::string id;
  std::string payload;
  std::vector<TileId> assignment;  ///< Evaluate only
  double due = 0.0;   ///< scheduled send (steady seconds)
  double sent = 0.0;
  double done = -1.0;  ///< terminal frame arrival; < 0 while outstanding
  bool ok = false;
  std::string error;
  std::vector<CellResult> cells;
  double fitness = 0.0, snr_db = 0.0, loss_db = 0.0;
};

/// Builds the seeded open-loop schedule of one phase.
class ScheduleBuilder {
 public:
  ScheduleBuilder(Catalog& catalog, std::uint64_t seed)
      : catalog_(catalog), rng_(seed) {}

  /// Append one phase's arrivals; `due` is relative to the phase start.
  /// Each kind's count is fixed by its rate, and its arrival times are
  /// uniform order statistics over the phase — a Poisson process
  /// conditioned on that count — so the offered work does not vary from
  /// seed to seed, only its order and timing do.
  void add_phase(std::vector<Record>& records, double seconds, bool timed) {
    enum Pick { Evaluate, Cell, ReusedBulk, FreshBulk };
    const auto count = [seconds](double per_second) {
      return static_cast<std::size_t>(std::llround(per_second * seconds));
    };
    const std::size_t bulk = count(kBulkPerSecond);
    const std::size_t fresh = static_cast<std::size_t>(
        std::llround(double(bulk) * kFreshBulkShare));
    std::vector<std::pair<double, Pick>> arrivals;
    const auto add = [&](std::size_t n, Pick pick) {
      for (std::size_t i = 0; i < n; ++i)
        arrivals.emplace_back(rng_.next_double() * seconds, pick);
    };
    add(count(kInteractivePerSecond * kEvaluateShare), Evaluate);
    add(count(kInteractivePerSecond * (1.0 - kEvaluateShare)), Cell);
    add(bulk - fresh, ReusedBulk);
    add(fresh, FreshBulk);
    std::sort(arrivals.begin(), arrivals.end());
    for (const auto& [t, pick] : arrivals) {
      Record record;
      record.timed = timed;
      record.due = t;
      // Interactive users share the first connections round-robin; the
      // bulk user has the last one to itself.
      record.conn = pick == ReusedBulk || pick == FreshBulk
                        ? kConnections - 1
                        : records.size() % (kConnections - 1);
      if (pick == Evaluate) make_evaluate(record);
      if (pick == Cell) make_cell(record);
      if (pick == ReusedBulk || pick == FreshBulk)
        make_bulk(record, pick == FreshBulk);
      record.id = "ecb"[int(record.kind)] + std::to_string(records.size());
      record.payload = payload(record);
      records.push_back(std::move(record));
    }
  }

 private:
  void make_evaluate(Record& record) {
    record.kind = Kind::Evaluate;
    record.spec = rng_.next_below(catalog_.evaluate.size());
    const SweepSpec& spec = catalog_.evaluate[record.spec];
    const std::size_t tasks = spec.workloads[0].cg.task_count();
    const std::size_t side = resolved_side(spec, 0, 0);
    const Mapping mapping = Mapping::random(tasks, side * side, rng_);
    record.assignment.assign(mapping.assignment().begin(),
                             mapping.assignment().end());
  }

  void make_cell(Record& record) {
    record.kind = Kind::Cell;
    record.spec = rng_.next_below(catalog_.cell.size());
  }

  void make_bulk(Record& record, bool fresh) {
    record.kind = Kind::Bulk;
    if (fresh) {
      RandomCgOptions options;
      options.tasks = 10 + rng_.next_below(7);
      options.seed = rng_();
      SweepSpec spec;
      spec.add_workload("rcg" + std::to_string(catalog_.bulk.size()),
                        random_cg(options));
      record.spec = catalog_.bulk.size();
      catalog_.bulk.push_back(bulk_spec(
          std::move(spec), {TopologyKind::Mesh, TopologyKind::Torus},
          {OptimizationGoal::Snr, OptimizationGoal::InsertionLoss},
          {"ga", "rpbla"}, options.seed % 1000));
    } else {
      record.spec = rng_.next_below(kBulkPool);
    }
  }

  [[nodiscard]] std::string payload(const Record& record) const {
    if (record.kind == Kind::Evaluate) {
      EvaluateRequest request;
      request.id = record.id;
      request.assignment = record.assignment;
      request.spec = catalog_.evaluate[record.spec];
      return write_evaluate(request);
    }
    ServiceRequest request;
    request.id = record.id;
    request.spec = record.kind == Kind::Cell ? catalog_.cell[record.spec]
                                             : catalog_.bulk[record.spec];
    return write_request(request);
  }

  Catalog& catalog_;
  Rng rng_;
};

void sleep_until_seconds(double when) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(when))));
}

std::map<std::string, double> parse_stats(const std::string& body) {
  std::map<std::string, double> out;
  std::istringstream in(body);
  std::string name;
  double value = 0.0;
  while (in >> name >> value) out[name] = value;
  return out;
}

/// The client side of the run: four connections, one reader thread
/// each, and the generator on the calling thread.
class Clients {
 public:
  Clients(std::uint16_t port, std::vector<Record>& records)
      : records_(records) {
    TcpTransport transport;
    for (std::size_t c = 0; c < kConnections; ++c) {
      auto conn = transport.connect("127.0.0.1:" + std::to_string(port));
      conn->send(std::string(kServiceHello) + " client c" + std::to_string(c));
      const auto hello = conn->recv(10.0);
      if (hello.status != Connection::RecvStatus::Ok ||
          hello.payload.rfind(kServiceHello, 0) != 0)
        throw ExecError("service handshake failed");
      conns_.push_back(std::move(conn));
    }
  }
  ~Clients() { stop(); }
  Clients(const Clients&) = delete;
  Clients& operator=(const Clients&) = delete;

  void start() {
    for (const Record& record : records_)
      index_.emplace(record.id, &record - records_.data());
    for (std::size_t c = 0; c < kConnections; ++c)
      readers_.emplace_back([this, c] { read_loop(c); });
  }

  /// Send records [begin, end) on schedule; returns each send's lag.
  std::vector<double> generate(std::size_t begin, std::size_t end) {
    std::vector<double> lags;
    for (std::size_t i = begin; i < end; ++i) {
      Record& record = records_[i];
      sleep_until_seconds(record.due);
      record.sent = now_seconds();
      lags.push_back(record.sent - record.due);
      sent_.fetch_add(1);
      if (!conns_[record.conn]->send(record.payload))
        throw ExecError("service connection lost");
    }
    return lags;
  }

  [[nodiscard]] std::size_t outstanding() const {
    return sent_.load() - completed_.load();
  }

  /// Wait until every sent request has its terminal frame.
  bool drain(double timeout_seconds) {
    const Timer timer;
    while (outstanding() > 0) {
      if (timer.elapsed_seconds() > timeout_seconds) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  std::map<std::string, double> stats() {
    std::unique_lock<std::mutex> lock(stats_mutex_);
    stats_body_.reset();
    conns_[0]->send(kServiceStats);
    if (!stats_ready_.wait_for(lock, std::chrono::seconds(30),
                               [this] { return stats_body_.has_value(); }))
      throw ExecError("no stats reply");
    return parse_stats(*stats_body_);
  }

  void stop() {
    for (auto& conn : conns_) conn->send(kServiceQuit);
    stopping_.store(true);
    for (auto& reader : readers_) reader.join();
    readers_.clear();
    for (auto& conn : conns_) conn->close();
  }

 private:
  /// Never throws: a corrupt or malformed reply ends this connection's
  /// reader, and the requests it leaves unanswered count as failed.
  void read_loop(std::size_t c) {
    try {
      Connection& conn = *conns_[c];
      for (;;) {
        const Connection::RecvResult frame = conn.recv(0.1);
        if (frame.status == Connection::RecvStatus::Closed) break;
        if (frame.status == Connection::RecvStatus::Timeout) {
          if (stopping_.load()) break;
          continue;
        }
        handle(parse_reply(frame.payload), now_seconds());
      }
    } catch (const std::exception& e) {
      std::cerr << "service_mixed: connection " << c << " reader: " << e.what()
                << '\n';
    }
  }

  void handle(ServiceReply reply, double at) {
    obs::TraceSpan span("client", "reply");
    if (reply.kind == ServiceReply::Kind::Stats) {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_body_ = std::move(reply.body);
      stats_ready_.notify_all();
      return;
    }
    const auto it = index_.find(reply.id);
    if (it == index_.end()) return;  // hello echo, stray error
    Record& record = records_[it->second];
    switch (reply.kind) {
      case ServiceReply::Kind::Cell:
        record.cells.push_back(std::move(reply.result));
        break;
      case ServiceReply::Kind::Done:
        record.ok = reply.failed == 0;
        if (!record.ok) record.error = "cells failed";
        finish(record, at);
        break;
      case ServiceReply::Kind::Evaluation:
        record.ok = true;
        record.fitness = reply.fitness;
        record.snr_db = reply.snr_db;
        record.loss_db = reply.loss_db;
        finish(record, at);
        break;
      case ServiceReply::Kind::Rejected:
        record.error = "rejected " +
                       std::string(reject_kind_token(reply.reject)) + ": " +
                       reply.reason;
        finish(record, at);
        break;
      default:
        break;
    }
  }

  void finish(Record& record, double at) {
    record.done = at;
    completed_.fetch_add(1);
  }

  std::vector<Record>& records_;
  std::unordered_map<std::string, std::size_t> index_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::atomic<std::size_t> sent_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<bool> stopping_{false};
  std::mutex stats_mutex_;
  std::condition_variable stats_ready_;
  std::optional<std::string> stats_body_;
  std::vector<std::thread> readers_;  // last: joined before the rest dies
};

/// The phonocd server of one run, its accept loop on a thread.
class Server {
 public:
  Server() : server_(0, broker_options()) {
    thread_ = std::thread([this] {
      try {
        server_.run(kConnections);
      } catch (const std::exception& e) {
        std::cerr << "service_mixed: accept loop: " << e.what() << '\n';
      }
    });
  }
  ~Server() { thread_.join(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }

 private:
  static BrokerOptions broker_options() {
    BrokerOptions options;
    options.batch.workers = kPoolWorkers;
    options.request_concurrency = kBrokerConcurrency;
    options.max_queue_depth = 256;
    return options;
  }

  ServiceServer server_;
  std::thread thread_;
};

double delta(const std::map<std::string, double>& after,
             const std::map<std::string, double>& before,
             const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

double ratio(double hits, double misses) {
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Correctness gate: every streamed cell equals a solo run_sweep_cell of
/// its spec, every evaluate answer equals Evaluator::evaluate. Fills
/// `pool_snr` with the best SNR of every SNR-goal cell of the reused
/// pools, whether requested or not (the run's quality guard).
void check_records(const Catalog& catalog, const std::vector<Record>& records,
                   Outcome& outcome, RunningStats& pool_snr) {
  obs::TraceSpan span("exec", "reference");
  const EvaluatorOptions options{};
  auto solo = [&options](const SweepSpec& spec) {
    const auto cells = expand(spec);
    const auto problems = build_sweep_problems(spec, cells);
    std::vector<CellResult> results;
    for (const SweepCell& cell : cells)
      results.push_back(run_sweep_cell(
          spec, cell, *problems.at({cell.workload, cell.topology, cell.goal}),
          options));
    return results;
  };
  std::map<std::pair<Kind, std::size_t>, std::vector<std::string>> reference;
  const auto add_reference = [&](Kind kind, std::size_t index,
                                 const SweepSpec& spec) {
    auto& canon = reference[{kind, index}];
    for (const CellResult& cell : solo(spec)) {
      canon.push_back(canonical_cell(cell));
      if (index < kBulkPool || kind == Kind::Cell)
        if (spec.goals[cell.cell.goal] == OptimizationGoal::Snr)
          pool_snr.add(cell.run.best_evaluation.worst_snr_db);
    }
  };
  for (std::size_t i = 0; i < catalog.cell.size(); ++i)
    add_reference(Kind::Cell, i, catalog.cell[i]);
  for (std::size_t i = 0; i < catalog.bulk.size(); ++i)
    add_reference(Kind::Bulk, i, catalog.bulk[i]);
  std::vector<std::unique_ptr<MappingProblem>> eval_problems;
  std::vector<std::unique_ptr<Evaluator>> evaluators;
  for (const SweepSpec& spec : catalog.evaluate) {
    eval_problems.push_back(
        std::make_unique<MappingProblem>(make_problem(spec, SweepCell{})));
    evaluators.push_back(
        std::make_unique<Evaluator>(*eval_problems.back(), options));
  }
  for (const Record& record : records) {
    if (!record.ok) continue;  // counted as failed by the caller
    const std::string label = "request " + record.id;
    if (record.kind == Kind::Evaluate) {
      Evaluator& evaluator = *evaluators[record.spec];
      const Mapping mapping = Mapping::from_assignment(
          record.assignment, evaluator.problem().tile_count());
      const double fitness = evaluator.evaluate(mapping);
      const EvaluationResult raw = evaluator.evaluate_raw(mapping);
      if (!same_bits(fitness, record.fitness) ||
          !same_bits(raw.worst_snr_db, record.snr_db) ||
          !same_bits(raw.worst_loss_db, record.loss_db))
        outcome.mismatch(label + ": evaluate answer differs");
      continue;
    }
    const auto& expected = reference.at({record.kind, record.spec});
    if (record.cells.size() != expected.size()) {
      outcome.mismatch(label + ": streamed " +
                       std::to_string(record.cells.size()) + " of " +
                       std::to_string(expected.size()) + " cells");
      continue;
    }
    for (const CellResult& cell : record.cells)
      if (cell.cell.index >= expected.size() ||
          canonical_cell(cell) != expected[cell.cell.index])
        outcome.mismatch(label + ": cell " + std::to_string(cell.cell.index) +
                         " differs from a solo run_sweep_cell");
  }
}

/// Every (app, topology, goal) problem the catalog's benchmark apps
/// can ask for: the problems the layer probes build and time.
SweepSpec problem_universe() {
  SweepSpec spec;
  spec.add_all_benchmarks()
      .add_topology(TopologyKind::Mesh)
      .add_topology(TopologyKind::Torus)
      .add_goal(OptimizationGoal::Snr)
      .add_goal(OptimizationGoal::InsertionLoss)
      .add_optimizer("rs")
      .add_budget(1)
      .add_seed(1);
  return spec;
}

}  // namespace

Outcome run_service_mixed(const Args& args) {
  Outcome outcome;

  // The program's set-up: the daemon listening, and every client
  // connection through its handshake. The request catalog is the
  // clients' input, not set-up. The broker builds problems in its cache
  // on first use, so problem building lands inside the first requests
  // that need each problem.
  Catalog catalog = make_catalog(args.seed);
  std::vector<Record> records;
  std::unique_ptr<Server> server;
  std::unique_ptr<Clients> clients;
  const std::vector<double> setup_times =
      warm_up(kPoolWorkers + kBrokerConcurrency, [&] {
        clients.reset();
        server.reset();
        obs::TraceSpan span("setup", "daemon");
        const Timer timer;
        server = std::make_unique<Server>();
        clients = std::make_unique<Clients>(server->port(), records);
        return timer.elapsed_seconds();
      });

  // The schedule: a warm phase, then the measured window, both seeded.
  ScheduleBuilder builder(catalog, derive_seed(args.seed, 2));
  builder.add_phase(records, kWarmSeconds, false);
  const std::size_t warm_count = records.size();
  builder.add_phase(records, args.seconds, true);
  clients->start();

  const double warm_t0 = now_seconds() + 0.05;
  for (std::size_t i = 0; i < warm_count; ++i) records[i].due += warm_t0;
  clients->generate(0, warm_count);
  if (!clients->drain(60.0)) throw ExecError("warm-up requests never finished");
  const auto before = clients->stats();

  const double t0 = now_seconds() + 0.05;
  for (std::size_t i = warm_count; i < records.size(); ++i)
    records[i].due += t0;
  const std::vector<double> lags =
      clients->generate(warm_count, records.size());
  sleep_until_seconds(t0 + args.seconds);
  const std::size_t outstanding_at_end = clients->outstanding();
  const bool drained = clients->drain(60.0);
  const auto after = clients->stats();
  clients.reset();
  server.reset();

  // Latencies, from each request's scheduled send.
  std::vector<double> interactive, evaluate, cell, bulk;
  RunningStats slo_hits;
  std::vector<CellResult> served;
  OptimizerRates rates;
  double last_done = t0, served_evals = 0.0, in_flight_seconds = 0.0;
  for (const Record& record : records) {
    if (!record.timed) continue;
    ++outcome.attempted;
    if (!record.ok) {
      outcome.mismatch("request " + record.id + " did not complete: " +
                       (record.done < 0 ? "no reply" : record.error));
      if (record.kind != Kind::Bulk) slo_hits.add(0.0);
      continue;
    }
    const double latency = record.done - record.due;
    last_done = std::max(last_done, record.done);
    in_flight_seconds += latency;
    if (record.kind == Kind::Bulk) {
      bulk.push_back(latency);
    } else {
      interactive.push_back(latency);
      slo_hits.add(latency <= kSloSeconds ? 1.0 : 0.0);
      (record.kind == Kind::Evaluate ? evaluate : cell).push_back(latency);
    }
    if (record.kind == Kind::Evaluate) served_evals += 1.0;
    // A traced run splits each 1-cell request's latency from its actual
    // send into broker time and wire time: the analysis matches this
    // instant by id with the broker's service/admit and service/execute
    // spans.
    if (record.kind == Kind::Cell)
      obs::trace_instant("client", "request",
                         {"id", std::string_view(record.id)},
                         {"seconds", record.done - record.sent});
    const SweepSpec& spec = record.kind == Kind::Bulk
                                ? catalog.bulk[record.spec]
                                : catalog.cell[record.spec];
    for (const CellResult& c : record.cells) {
      served_evals += double(c.run.search.evaluations);
      served.push_back(c);
      rates.add(spec.optimizers[c.cell.optimizer], c);
    }
  }
  if (!drained) outcome.mismatch("requests still outstanding after 60 s");

  RunningStats pool_snr;
  check_records(catalog, records, outcome, pool_snr);

  // Validity: the generator kept its schedule and the backlog stayed
  // bounded (Little's law: the mean number in flight over the window).
  const double lag_p99 = quantile(lags, 0.99);
  const double mean_in_flight = in_flight_seconds / args.seconds;
  if (lag_p99 > kMaxSendLag) {
    outcome.valid = false;
    outcome.invalid_reason = "generator lag p99 " + std::to_string(lag_p99) +
                             " s exceeds " + std::to_string(kMaxSendLag) + " s";
  } else if (double(outstanding_at_end) > 3.0 * mean_in_flight + 8.0) {
    outcome.valid = false;
    outcome.invalid_reason = "backlog grew: " +
                             std::to_string(outstanding_at_end) +
                             " requests outstanding at the window's end";
  }

  outcome.set("setup_s", quantile(setup_times, 0.5));
  outcome.set("evals_per_s", served_evals / (last_done - t0));
  outcome.set("latency_p50_s", quantile(interactive, 0.5));
  outcome.set("latency_p99_s", quantile(interactive, 0.99));
  outcome.set("bulk_latency_p50_s", quantile(bulk, 0.5));
  outcome.set("slo_attainment", slo_hits.mean());
  outcome.set("solution_snr_db", pool_snr.mean());

  std::vector<double> cell_seconds;
  double cell_cpu = 0.0;
  for (const CellResult& c : served) {
    cell_seconds.push_back(c.seconds);
    cell_cpu += c.seconds;
  }
  report_common_layers(problem_universe(), served, args.seed, args.trace, outcome);
  rates.report(outcome);
  outcome.set("exec.cell_p50_s", quantile(cell_seconds, 0.5));
  outcome.set("exec.cell_max_s", quantile(cell_seconds, 1.0));
  outcome.set("exec.pool_busy_share",
              cell_cpu / (double(kPoolWorkers + kBrokerConcurrency) *
                          (last_done - t0)));
  outcome.set("service.wait_interactive_p50_s",
              after.at("wait_interactive_p50_seconds"));
  outcome.set("service.wait_interactive_p99_s",
              after.at("wait_interactive_p99_seconds"));
  outcome.set("service.wait_bulk_p50_s", after.at("wait_bulk_p50_seconds"));
  outcome.set("service.wait_bulk_p99_s", after.at("wait_bulk_p99_seconds"));
  outcome.set("service.interactive_overtakes",
              delta(after, before, "interactive_overtakes"));
  outcome.set("service.problem_cache_hit_ratio",
              ratio(delta(after, before, "problem_cache_hits"),
                    delta(after, before, "problem_cache_misses")));
  outcome.set("service.memo_hit_ratio",
              ratio(delta(after, before, "evaluator_cache_hits"),
                    delta(after, before, "evaluator_cache_misses")));
  outcome.set("service.evaluate_p50_s", quantile(evaluate, 0.5));
  outcome.set("service.request_p50_s", quantile(cell, 0.5));
  outcome.set("service.send_lag_p99_s", lag_p99);
  outcome.idle_layers = {"sched", "core", "exec.tail_s"};
  outcome.set("peak_rss_mb", peak_rss_mb());
  return outcome;
}

}  // namespace perfbench

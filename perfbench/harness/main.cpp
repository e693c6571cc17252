/// \file main.cpp
/// \brief Benchmark harness entry point.
///
///   perfbench_harness --workload <name> --seed <n> --seconds <s>
///                     [--trace <chrome-trace.json>]
///
/// Runs one workload in this process and prints one JSON object as the
/// last line of standard output: the correctness verdict, the counts of
/// attempted and failed units, every metric by name, and the layers the
/// workload leaves idle. perfbench/run.py builds this binary, runs it
/// and shapes the final result line. With --trace, the library's obs
/// tracer records the whole run and the Chrome trace is written to the
/// given path.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hpp"
#include "obs/trace.hpp"

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void print_outcome(const perfbench::Outcome& outcome) {
  std::string line = "{\"correct\": ";
  line += outcome.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"valid\": ";
  line += outcome.valid ? "true" : "false";
  line += ", \"invalid_reason\": " + json_string(outcome.invalid_reason);
  line += ", \"mismatches\": [";
  for (std::size_t i = 0; i < outcome.mismatches.size(); ++i)
    line += (i ? ", " : "") + json_string(outcome.mismatches[i]);
  line += "], \"idle_layers\": [";
  for (std::size_t i = 0; i < outcome.idle_layers.size(); ++i)
    line += (i ? ", " : "") + json_string(outcome.idle_layers[i]);
  line += "], \"compiler\": " + json_string(PERFBENCH_COMPILER);
  line += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i)
    line += (i ? ", " : "") + json_string(outcome.metrics[i].first) + ": " +
            json_number(outcome.metrics[i].second);
  line += "}}";
  std::cout << line << std::endl;
}

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench_harness: " << problem
            << "\nusage: perfbench_harness --workload "
               "table2_sweep|fig3_fleet|service_mixed --seed N --seconds S "
               "[--trace FILE]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value after " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = true;
        args.trace_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");

  perfbench::Outcome (*run)(const perfbench::Args&) = nullptr;
  if (args.workload == "table2_sweep") run = perfbench::run_table2_sweep;
  if (args.workload == "fig3_fleet") run = perfbench::run_fig3_fleet;
  if (args.workload == "service_mixed") run = perfbench::run_service_mixed;
  if (!run) usage("unknown workload '" + args.workload + "'");

  if (args.trace) {
    // The fleet starts short-lived pool threads on every shard, and each
    // keeps its ring after it exits; 8192 events (~1.5 MB) per ring keeps
    // a traced fleet run to a few hundred MB and still holds every event
    // of the busiest thread of any workload.
    phonoc::obs::set_trace_buffer_capacity(8192);
    phonoc::obs::start_tracing();
  }
  perfbench::Outcome outcome;
  try {
    outcome = run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << args.workload
              << " aborted: " << e.what() << '\n';
    return 1;
  }
  if (args.trace) {
    phonoc::obs::stop_tracing();
    if (!phonoc::obs::write_chrome_trace_file(args.trace_path)) {
      std::cerr << "perfbench_harness: cannot write " << args.trace_path
                << '\n';
      return 1;
    }
  }
  print_outcome(outcome);
  return 0;
}

#!/usr/bin/env python3
"""PhoNoCMap benchmark: build the harness from source, run one workload,
check its outputs, and print the result as one JSON line.

    python3 perfbench/run.py --workload table2_sweep --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout. The harness is built with
CMake under $CARGO_TARGET_DIR (default .bench_build) on first use.

--trace 0 prints every end-to-end metric of BENCHMARK.json. --trace 1
runs the workload twice, untraced and then traced, prints every
per-layer metric, writes the Chrome trace and a per-layer self-time
table next to the build, and reports the untraced-vs-traced difference
as tracing overhead. The last line of standard output is always the
result object; everything else goes before it or to standard error.
Exit codes: 0 correct, 1 output mismatch, 2 usage or build error,
3 invalid run (the open-loop generator fell behind or the backlog grew).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("table2_sweep", "fig3_fleet", "service_mixed")
# The metric whose traced-vs-untraced change is reported as tracing
# overhead: the pass time of the sweeps, the interactive p50 of the service.
OVERHEAD_METRIC = {
    "table2_sweep": "bulk_latency_p50_s",
    "fig3_fleet": "bulk_latency_p50_s",
    "service_mixed": "latency_p50_s",
}
DEADLINE_S = 160.0  # for the harness runs, after the build


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_catalog():
    """Metric names and units, from BENCHMARK.json at the checkout root."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    except (OSError, ValueError, KeyError, TypeError) as err:
        fail(2, f"cannot read the metric catalog {path}: {err}")
    return e2e, layer


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out_dir, deadline):
    """Configure once, then bring the harness up to date (a no-op when
    nothing changed). Build output goes to standard error."""
    if not (ROOT / "src").is_dir():
        fail(2, f"no library sources under {ROOT / 'src'}")
    build_tree = out_dir / "build"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_tree / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_tree), "-j", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(2, "build timed out")
        except OSError as err:
            fail(2, f"cannot run cmake: {err}")
        if result.returncode != 0:
            fail(2, f"build step failed: {' '.join(step)}")
    binary = build_tree / "perfbench_harness"
    if not binary.exists():
        fail(2, "build produced no harness binary")
    return binary


def run_harness(binary, args, trace_path, deadline):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True,
                                timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(2, "harness run timed out")
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        fail(2, f"harness exited with {result.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(2, "harness printed no result")


def span_events(trace):
    return [e for e in trace.get("traceEvents", []) if e.get("ph") == "X"]


def self_times(events):
    """Per-category self time in seconds: each span's duration minus the
    part of it its child spans on the same thread cover."""
    by_tid = {}
    for event in events:
        by_tid.setdefault(event["tid"], []).append(event)
    totals = {}
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, category, duration, child_covered]

        def close(frame):
            end, cat, dur, covered = frame
            totals.setdefault(cat, [0, 0.0])
            totals[cat][0] += 1
            totals[cat][1] += max(0.0, dur - covered) / 1e6

        for span in spans:
            start, dur = span["ts"], span["dur"]
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                stack[-1][3] += dur
            stack.append([start + dur, span["cat"], dur, 0.0])
        while stack:
            close(stack.pop())
    return totals


def pass_tails(events):
    """Per pass: from the moment the first worker thread ran out of cells
    to the end of the pass (the straggler tail)."""
    passes = [e for e in events if e["name"] == "pass"]
    cells = [e for e in events if e["cat"] == "exec" and e["name"] == "cell"]
    tails = []
    for p in passes:
        start, end = p["ts"], p["ts"] + p["dur"]
        last_end = {}
        for cell in cells:
            if start <= cell["ts"] and cell["ts"] + cell["dur"] <= end:
                tid = cell["tid"]
                last_end[tid] = max(last_end.get(tid, 0), cell["ts"] + cell["dur"])
        if last_end:
            tails.append((end - min(last_end.values())) / 1e6)
    return tails


def broker_split(events):
    """Per 1-cell request: broker time, from the start of its
    service/admit span to the end of its service/execute span (queue
    wait, cache work, the cell and its reply frames), and wire time, the
    client's latency from its actual send minus that. Matched by request
    id; returns ([broker_s], [wire_s])."""
    admit, execute_end, latency = {}, {}, {}
    for event in events:
        cat, name, args = event.get("cat"), event.get("name"), event.get("args", {})
        if "id" not in args:
            continue
        if event["ph"] == "X" and cat == "service" and name == "admit":
            admit[args["id"]] = event["ts"]
        elif event["ph"] == "X" and cat == "service" and name == "execute":
            execute_end[args["id"]] = event["ts"] + event["dur"]
        elif event["ph"] == "i" and cat == "client" and name == "request":
            latency[args["id"]] = args["seconds"]
    broker, wire = [], []
    for rid, seconds in latency.items():
        if rid in admit and rid in execute_end:
            broker.append((execute_end[rid] - admit[rid]) / 1e6)
            wire.append(seconds - broker[-1])
    return broker, wire


def host_record(harness):
    sha = "unknown"  # a source checkout without .git has no sha
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 text=True, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, timeout=10)
            if out.returncode == 0:
                sha = out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "compiler": harness.get("compiler"),
            "build_type": harness.get("build_type"), "git_sha": sha}


def result_line(harness, catalog, extra=None):
    """Shape the final result object; every catalog metric must be
    present, except metrics of a layer the workload leaves idle, which
    read 0."""
    values = dict(harness["metrics"])
    values.update(extra or {})
    idle = harness.get("idle_layers", [])
    metrics = {}
    for name, unit in catalog.items():
        if name not in values:
            if not any(name == p or name.startswith(p + ".") for p in idle):
                fail(2, f"harness did not report {name}")
            values[name] = 0.0
        value = values[name]
        if value is None:
            fail(2, f"{name} is not a finite number")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": bool(harness["correct"]),
            "attempted": int(harness["attempted"]),
            "failed": int(harness["failed"]), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        fail(2, "--seed must be >= 0 and --seconds >= 1")

    e2e, layer = load_catalog()
    out_dir = build_dir()
    binary = build(out_dir, time.monotonic() + 850.0)
    deadline = time.monotonic() + DEADLINE_S
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"

    harness = run_harness(binary, args, None, deadline)
    extra = {}
    if args.trace:
        untraced = harness
        trace_path = results / f"{stem}-trace.json"
        harness = run_harness(binary, args, trace_path, deadline)
        trace = json.loads(trace_path.read_text())
        events = span_events(trace)
        broker, wire = broker_split(trace.get("traceEvents", []))
        if broker:
            extra["service.broker_wall_p50_s"] = statistics.median(broker)
            extra["service.wire_overhead_p50_s"] = statistics.median(wire)
        totals = self_times(events)
        grand = sum(t for _, t in totals.values()) or 1.0
        table = ["layer      spans   self_s    share"]
        for cat, (count, total) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
            table.append(f"{cat:<10} {count:>6} {total:>8.3f} {total / grand:>8.1%}")
        dropped = trace.get("otherData", {}).get("dropped_events", 0)
        table.append(f"dropped events (ring overflow): {dropped}")
        (results / f"{stem}-selftime.txt").write_text("\n".join(table) + "\n")
        print("\n".join(table))
        tails = pass_tails(events)
        if tails:
            extra["exec.tail_s"] = statistics.median(tails)
        key = OVERHEAD_METRIC[args.workload]
        base = untraced["metrics"][key]
        extra["obs.trace_overhead_share"] = harness["metrics"][key] / base - 1.0
        for name in e2e:
            a, b = untraced["metrics"][name], harness["metrics"][name]
            print(f"traced-vs-untraced {name}: {a:.6g} -> {b:.6g}")
        # Both runs are checked: their verdicts and counts add up.
        harness["correct"] = harness["correct"] and untraced["correct"]
        harness["attempted"] += untraced["attempted"]
        harness["failed"] += untraced["failed"]
        harness["mismatches"] = untraced["mismatches"] + harness["mismatches"]
        if not untraced["valid"]:
            harness["valid"] = False
            harness["invalid_reason"] = untraced["invalid_reason"]

    host = host_record(harness)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "valid": harness["valid"], "harness": harness}
    (results / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"host": host}))
    for mismatch in harness.get("mismatches", []):
        print(f"perfbench: mismatch: {mismatch}", file=sys.stderr)
    if not harness["valid"]:
        fail(3, f"invalid run: {harness['invalid_reason']}")

    line = result_line(harness, layer if args.trace else e2e, extra)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

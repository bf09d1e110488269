#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: embed_large_gang, serve_wire_nominal, serve_overload_inproc.

The first call configures and builds perfbench/ (which compiles ../src
with its shipped defaults) into .bench_build/, or into $CARGO_TARGET_DIR
when set; later calls only rebuild what changed. All build output goes
to stderr. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 1 the run also
writes a Chrome trace, and this script derives from it each layer's
self time (a span's duration minus the part its child spans on the same
thread cover) and the wire's connect-to-ACCEPTED and
ACCEPTED-to-first-version times.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175

# Span categories the trace carries: the program's own spans (stage,
# pool.task, partition slice/merge, service build, net.request,
# client.request) and the benchmark's spans around its calls.
LAYERS = ("bench", "client", "net", "service", "pool", "stage", "partition")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build(out_dir):
    """Configure (once) and build the benchmark; False on failure."""
    log = sys.stderr
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(out_dir, name))
               for name in generated):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=log, stderr=log) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", out_dir, "--target", "perfbench",
               "-j", jobs]
    return subprocess.call(command, stdout=log, stderr=log) == 0


def self_times(events):
    """Sum of self time (ms) per category over complete events."""
    by_thread = defaultdict(list)
    for event in events:
        if event.get("ph") == "X":
            start = float(event["ts"])
            by_thread[event["tid"]].append(
                (start, start + float(event["dur"]), event.get("cat", "")))
    totals = defaultdict(float)
    for spans in by_thread.values():
        # Parents sort before the children they cover.
        spans.sort(key=lambda span: (span[0], -span[1]))
        stack = []  # open spans: [start, end, category, covered by children]
        for start, end, category in spans + [(float("inf"), 0.0, "")]:
            while stack and stack[-1][1] <= start:
                s_start, s_end, s_category, covered = stack.pop()
                totals[s_category] += s_end - s_start - covered
            if stack:
                stack[-1][3] += min(end, stack[-1][1]) - start
            stack.append([start, end, category, 0.0])
    return {category: micros / 1000.0 for category, micros in totals.items()}


def wire_times(events):
    """Median connect->ACCEPTED and ACCEPTED->first-version (ms)."""
    client_start, accepted, first = {}, {}, {}
    for event in events:
        trace = event.get("args", {}).get("trace")
        if trace is None:
            continue
        ts = float(event["ts"])
        name = event.get("name")
        if name == "client.request" and event.get("ph") == "X":
            client_start[trace] = ts
        elif name == "net.request" and event.get("ph") == "X":
            accepted[trace] = ts + float(event["dur"])
        elif name == "bench.version" and trace not in first:
            first[trace] = ts
    accept = [(accepted[t] - client_start[t]) / 1000.0
              for t in accepted if t in client_start]
    to_first = [(first[t] - accepted[t]) / 1000.0
                for t in first if t in accepted]
    return (statistics.median(accept) if accept else 0.0,
            statistics.median(to_first) if to_first else 0.0)


def add_trace_metrics(result, trace_path):
    ops = max(1.0, float(result.pop("trace_ops", 1.0)))
    with open(trace_path, encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    selfs = self_times(events)
    metrics = result["metrics"]
    for layer in LAYERS:
        metrics["trace.%s.self_ms" % layer] = {
            "value": selfs.get(layer, 0.0) / ops, "unit": "ms"}
    accept, to_first = wire_times(events)
    metrics["net.accept_ms_p50"] = {"value": accept, "unit": "ms"}
    metrics["net.accepted_to_first_ms_p50"] = {"value": to_first,
                                               "unit": "ms"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    trace_path = os.path.join(out_dir, "trace-%s.json" % args.workload)
    command = [os.path.join(out_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-file", trace_path]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        print("perfbench: run failed (exit %d)" % run.returncode,
              file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    if args.trace:
        add_trace_metrics(result, trace_path)
    result.pop("trace_ops", None)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

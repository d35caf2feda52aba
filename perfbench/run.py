#!/usr/bin/env python3
"""The tdat benchmark: builds perfbench, runs one workload, prints its result.

    python3 perfbench/run.py --workload table-transfer|live-tail|collector-week \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the repository root. The build (Release, its own CMake project)
and every file a run writes live under .bench_build/perfbench/. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics — the end-to-end metrics of BENCHMARK.json for --trace 0, its
per-layer metrics for --trace 1. A traced run also writes the run's spans
as Chrome trace_event JSON (the format of `tdat analyze --trace`) to
.bench_build/perfbench/traces/, prints every span's self time, and prints
the tracing overhead against the last untraced run of the same workload and
seed. See perfbench/README.md.
"""

import argparse
import bisect
import fcntl
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD = os.path.join(OUT, "build")
RUN_TIMEOUT_S = 170
# Spans of the program's analyze_connection, summed into core.* metrics.
CORE_SPANS = {
    "analyze.profile": "core.profile_s",
    "analyze.series": "core.series_s",
    "analyze.extract_bgp": "core.extract_bgp_s",
    "analyze.mct": "core.mct_s",
    "analyze.passes": "core.passes_s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench; returns the binary's path."""
    os.makedirs(OUT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(OUT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                        "--target", "perfbench", "perfbench_selftest"],
                       check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def metric_units():
    """End-to-end and per-layer metric names -> units, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_events(path, pid):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    for e in events:
        e["pid"] = pid
    return events


def self_times(events):
    """Per span name: total and self time in microseconds. A span's self time
    is its duration minus the part its children on the same thread cover."""
    total = defaultdict(float)
    own = defaultdict(float)
    by_thread = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            by_thread[(e["pid"], e["tid"])].append(e)
    for spans in by_thread.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, event, covered-by-children]
        for e in spans:
            end = e["ts"] + e["dur"]
            while stack and stack[-1][0] <= e["ts"]:
                _, done, covered = stack.pop()
                own[done["name"]] += done["dur"] - covered
            if stack:
                stack[-1][2] += min(end, stack[-1][0]) - e["ts"]
            total[e["name"]] += e["dur"]
            stack.append([end, e, 0.0])
        while stack:
            _, done, covered = stack.pop()
            own[done["name"]] += done["dur"] - covered
    return total, own


def span_metrics(events, norm):
    """core.* seconds per measured pass, from the program's own spans inside
    the benchmark's bench.pass spans (any thread)."""
    passes = sorted((e["ts"], e["ts"] + e["dur"]) for e in events
                    if e.get("ph") == "X" and e["name"] == "bench.pass"
                    and e["pid"] == 1)
    sums = defaultdict(float)
    starts = [p[0] for p in passes]
    for e in events:
        if e.get("ph") != "X" or e["pid"] != 1:
            continue
        name = CORE_SPANS.get(e["name"])
        if name is None and e.get("cat") == "pass":
            name = "core.pass." + e["name"] + "_s"
        if name is None:
            continue
        i = bisect.bisect_right(starts, e["ts"]) - 1
        if i >= 0 and e["ts"] + e["dur"] <= passes[i][1]:
            sums[name] += e["dur"]
    return {k: v / 1e6 / norm for k, v in sums.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    e2e_units, layer_units = metric_units()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    if args.selftest:
        work = os.path.join(OUT, "selftest")
        shutil.rmtree(work, ignore_errors=True)
        rc = subprocess.run([binary + "_selftest", work]).returncode
        shutil.rmtree(work, ignore_errors=True)
        return rc
    if not args.workload:
        ap.error("--workload is required")

    tag = "%s-seed%d" % (args.workload, args.seed)
    work = os.path.join(OUT, "runs", "%s-%d" % (tag, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log("perfbench exited with %d" % proc.returncode)
            return 1
        run = json.loads(lines[-1])

        if args.trace:
            events = load_events(os.path.join(work, "trace-run.json"), 1)
            events += load_events(os.path.join(work, "trace-gen.json"), 2)
            traces = os.path.join(OUT, "traces")
            os.makedirs(traces, exist_ok=True)
            trace_path = os.path.join(traces, tag + ".json")
            with open(trace_path, "w") as f:
                json.dump({"traceEvents": events}, f)
            total, own = self_times(events)
            print("trace: %s (%d events)" % (trace_path, len(events)))
            print("%-40s %12s %12s" % ("span", "total_s", "self_s"))
            for name in sorted(own, key=own.get, reverse=True)[:25]:
                print("%-40s %12.4f %12.4f" % (name, total[name] / 1e6,
                                               own[name] / 1e6))
            metrics = {k: {"value": v["value"], "unit": v["unit"]}
                       for k, v in run["per_layer"].items()}
            for name, value in span_metrics(events, run["trace_norm"]).items():
                metrics[name] = {"value": value, "unit": "s"}
            # Layers a workload does not exercise did no work: they read 0.
            for name, unit in layer_units.items():
                metrics.setdefault(name, {"value": 0, "unit": unit})
            untraced = os.path.join(OUT, "untraced", tag + ".json")
            if os.path.exists(untraced):
                with open(untraced) as f:
                    base = json.load(f)
                for name, v in run["end_to_end"].items():
                    if name in base and base[name] and name != "setup_s":
                        print("tracing overhead: %s %.4g traced vs %.4g "
                              "untraced (%+.1f%%)" % (
                                  name, v["value"], base[name],
                                  100.0 * (v["value"] / base[name] - 1)))
            else:
                print("tracing overhead: no untraced run of %s yet" % tag)
            wanted = layer_units
        else:
            metrics = run["end_to_end"]
            saved = os.path.join(OUT, "untraced")
            os.makedirs(saved, exist_ok=True)
            with open(os.path.join(saved, tag + ".json"), "w") as f:
                json.dump({k: v["value"] for k, v in metrics.items()}, f)
            wanted = e2e_units
        missing = [n for n in wanted if n not in metrics]
        if missing:
            log("perfbench: missing metrics: " + ", ".join(missing))
            return 1
        metrics = {n: {"value": metrics[n]["value"], "unit": u}
                   for n, u in wanted.items()}
        print(json.dumps({"correct": run["correct"],
                          "attempted": run["attempted"],
                          "failed": run["failed"],
                          "metrics": metrics}))
        return 0
    except subprocess.TimeoutExpired:
        log("perfbench timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repository benchmark command (named in BENCHMARK.json).

    python3 perfbench/run.py --workload colr_replay --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run it from the repository root. It builds perfbench/ (a CMake package
that compiles the libraries under src/) in $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs colr_perfbench for the workload,
and forwards its report. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics
with --trace 1. A broken invariant, a missing metric or a failed build
exits nonzero. The traced run also writes a Chrome trace-event file to
<build dir>/traces/. NOTES.md explains the workloads and the metrics.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("colr_replay", "hier_replay", "portal_wire")

# name -> unit, in report order. BENCHMARK.json lists the same names
# (--self-test checks it).
END_TO_END = {
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "qps": "1/s",
    "probes_per_query": "count",
    "collect_ms_per_query": "sim_ms",
    "sample_shortfall": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Lock sites whose guards record acquisitions (SyncTimedLock /
# SyncTimedSharedLock in src/core/tree.cc and probe_scheduler.cc).
SYNC_SITES = ("epoch_shared", "epoch_exclusive", "shard_writer", "root_spin",
              "node_stripe", "probe_flight")

PER_LAYER = {
    "setup.workload_gen_s": "s",
    "setup.tree_build_s": "s",
    "tree.nodes_per_query": "count",
    "tree.cached_nodes_per_query": "count",
    "tree.slots_merged_per_query": "count",
    "tree.region_count_us": "us",
    "tree.inserts_per_query": "count",
    "tree.evictions_per_query": "count",
    "tree.slot_recomputes_per_query": "count",
    "tree.insert_us": "us",
    "tree.rolls": "count",
    "tree.readings_expunged": "count",
    "tree.late_readings_dropped": "count",
    "sampling.run_us": "us",
    "sampling.terminals_per_query": "count",
    "sched.requested_per_query": "count",
    "sched.coalesced_per_query": "count",
    "sched.batch_us_per_id": "us",
    "network.probe_us_per_id": "us",
    "network.success_ratio": "ratio",
    "portal.parse_us": "us",
    "portal.plan_us": "us",
    "portal.execute_one_us": "us",
    "portal.rows_per_query": "count",
    "wire.encode_query_us": "us",
    "wire.decode_query_us": "us",
    "wire.encode_reply_us": "us",
    "wire.decode_reply_us": "us",
    "wire.relation_json_us": "us",
    "wire.reply_bytes_per_query": "bytes",
    "server.shed": "count",
    "server.timeouts": "count",
    "server.bad_frames": "count",
    "loadgen.lag_p99_ms": "ms",
    "failed_frac": "ratio",
    "traced.query_p50_ms": "ms",
    "traced.qps": "1/s",
    "trace.overhead_share": "ratio",
}
for _site in SYNC_SITES:
    PER_LAYER[f"sync.{_site}.wait_ns_per_query"] = "ns"
    PER_LAYER[f"sync.{_site}.contended_share"] = "ratio"

# A run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; None on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no COLR-Tree sources at {os.path.join(ROOT, 'src')}; run from "
            "a checkout of the repository")
        return None
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", bdir, "--target", "colr_perfbench",
                  "perfbench_selftest", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return bdir


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_capture(cmd):
    """Runs cmd to completion (killed after RUN_TIMEOUT_S); returns
    (returncode, stdout) or (None, stdout) on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        return None, out


def select_metrics(report, trace):
    """The result's metrics: exactly the expected names, each a finite
    number with its expected unit. Returns (metrics, problems)."""
    expected = PER_LAYER if trace else END_TO_END
    got = report.get("layers" if trace else "e2e", {})
    metrics, problems = {}, []
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
            continue
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} has no value ({value!r})")
            continue
        if m.get("unit") != unit:
            problems.append(f"metric {name} unit {m.get('unit')!r} != {unit!r}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problems


def run_workload(args):
    bdir = build()
    if bdir is None:
        return 2
    print(f"host: git_commit={git_commit()} nproc={os.cpu_count()} "
          f"build_dir={os.path.relpath(bdir, ROOT)}", flush=True)
    trace_dir = os.path.join(bdir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "colr_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", trace_dir]
    code, out = run_capture(cmd)
    lines = out.rstrip("\n").splitlines()
    # Forward the human-readable report; its last line is the raw JSON.
    for line in lines[:-1]:
        print(line)
    if code is None:
        log(f"colr_perfbench exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        report = None
    if not isinstance(report, dict):
        log(f"colr_perfbench exited {code} without a report")
        return 1
    metrics, problems = select_metrics(report, args.trace)
    for p in problems:
        log(p)
    correct = bool(report.get("correct")) and code == 0 and not problems
    print(json.dumps({"correct": correct,
                      "attempted": int(report.get("attempted", 0)),
                      "failed": int(report.get("failed", 0)),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def self_test():
    """Checks the statistics helpers (perfbench_selftest), that their
    JSON maps nan/inf to null, and that BENCHMARK.json names exactly
    the workloads and metrics this command reports."""
    bdir = build()
    if bdir is None:
        return 2
    ok = True
    out = subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                         capture_output=True, text=True, cwd=ROOT)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        log("perfbench_selftest failed")
        ok = False
    try:
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        if probe != {"nan": None, "inf": None, "one": 1, "text": 'q"uote'}:
            log(f"unexpected JSON from the helpers: {probe}")
            ok = False
    except (json.JSONDecodeError, IndexError):
        log("the helpers' JSON output does not parse")
        ok = False
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path, encoding="utf-8") as f:
            spec = json.load(f)
        if tuple(w["name"] for w in spec["workloads"]) != WORKLOADS:
            log("BENCHMARK.json workloads differ from run.py")
            ok = False
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            if listed != table:
                log(f"BENCHMARK.json {key} differs from run.py: "
                    f"{sorted(set(listed.items()) ^ set(table.items()))}")
                ok = False
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

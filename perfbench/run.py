#!/usr/bin/env python3
"""ROAR benchmark: builds perfbench/ from source and runs one workload.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
library and the driver under .bench_build/perfbench (about a minute on
4 cores); later runs reuse the build. Before measuring, the test of the
benchmark's own arithmetic (arith_test) must pass.

--trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones.
The lines before the last carry the host fingerprint, the run's
configuration and every measured metric with its unit; the last line is
the JSON result, holding the metrics BENCHMARK.json lists. The others
(query latency percentiles, capacity, write visibility, p raises) are
measured and printed, but moved by 15-60% between runs on a shared 4-core
VM, so they are not gated there. The exit code is 0 only when every
answer was checked correct and no operation failed.
"""
import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "cluster", "tcp_cluster.h")):
        fail("ROAR sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(cmd + gen, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    test = subprocess.run([os.path.join(BUILD, "arith_test")],
                          stdout=sys.stderr, stderr=sys.stderr)
    if test.returncode:
        fail("arith_test failed")


def host_fingerprint():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = val.strip()
                elif key == "flags" and not flags:
                    flags = set(val.split())
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "aes": "aes" in flags,
        "avx2": "avx2" in flags,
        "avx512f": "avx512f" in flags,
        "machine": platform.machine(),
        "build_type": BUILD_TYPE,
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    host = host_fingerprint()
    cmd = [os.path.join(BUILD, "roar_perf"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("workload run printed nothing (exit %d)" % proc.returncode)
    config = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("config: "):
            config = json.loads(line[len("config: "):])
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("workload run ended without a result (exit %d)" % proc.returncode)
    host["reactor_shards"] = config.get("reactor_shards")
    host["node_workers"] = config.get("node_workers")
    host["busy_threads"] = config.get("busy_threads")
    print("host: " + json.dumps(host, sort_keys=True))

    want = expected_metrics(args.trace)
    measured = result.get("metrics", {})
    got = {name: measured[name] for name in want if name in measured}
    ok = proc.returncode == 0 and result.get("correct") is True
    if len(got) != len(want):
        print("perfbench: metrics missing from the run: %s"
              % sorted(set(want) - set(got)), file=sys.stderr)
        ok = False
    for name, m in got.items():
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            ok = False
        if m.get("unit") != want[name]:
            ok = False
    out = {
        "correct": bool(ok),
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "metrics": got,
    }
    print(json.dumps(out))
    sys.exit(0 if ok and out["attempted"] >= 1 and out["failed"] == 0 else 1)


if __name__ == "__main__":
    main()

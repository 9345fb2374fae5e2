#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/run.py [--seconds T --trace 0|1]   # every workload
    python3 perfbench/run.py --self-test

Builds the library sources and the measuring binary (ftbench) in Release
under .bench_build/ at the repository root, runs one workload, and prints
as its last stdout line one JSON object with the keys correct, attempted,
failed and metrics. Without --workload it runs every workload and ends
with a table of every metric. The metric names, units and their order
come from BENCHMARK.json: end_to_end metrics for --trace 0, per_layer
metrics for --trace 1. A per-layer metric whose layer is not on the
workload's path reads 0. Exits nonzero without a result line when the
build or the run fails.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("contended_t2", "stream1m_t4", "hotspot_serial", "ftd_small")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds ftbench; returns its path or None."""
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    # The Makefile appears only once a configure run has succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "ftbench",
                  "-j", jobs])
    # One build at a time per checkout.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            try:
                res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                     env=env, timeout=850)
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"build step failed: {e}")
                return None
            if res.returncode != 0:
                log(f"build step failed ({res.returncode}): {' '.join(cmd)}")
                return None
    binary = os.path.join(BUILD, "ftbench")
    return binary if os.path.exists(binary) else None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def shape(result, trace):
    """Orders the binary's metrics as BENCHMARK.json declares them."""
    measured = result["metrics"]
    metrics = {}
    for m in declared_metrics(trace):
        got = measured.pop(m["name"], None)
        if got is None:
            if not trace:
                raise ValueError(f"end-to-end metric {m['name']} missing")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if measured:
        raise ValueError(f"undeclared metrics: {sorted(measured)}")
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def run_one(binary, workload, args):
    """Runs one workload; returns its shaped result, or None on failure."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD, f"spans-{workload}.json")]
    t0 = time.monotonic()
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = res.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if res.returncode != 0 or not lines:
        log(f"ftbench exited with {res.returncode}")
        return None
    try:
        result = shape(json.loads(lines[-1]), args.trace)
    except (ValueError, KeyError, TypeError) as e:
        log(f"bad result line: {e}")
        return None
    print(f"run took {time.monotonic() - t0:.1f} s")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return subprocess.run([binary, "--self-test"]).returncode
    if args.workload != "all":
        result = run_one(binary, args.workload, args)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
        return 0

    # Every workload in turn, then one table of every metric.
    rows = []
    for workload in WORKLOADS:
        result = run_one(binary, workload, args)
        if result is None:
            return 1
        rows.append(f"{workload:15s} attempted={result['attempted']} "
                    f"failed={result['failed']} correct={result['correct']}")
        for name, m in result["metrics"].items():
            rows.append(f"{workload:15s} {name:30s} {m['value']:.6g} "
                        f"{m['unit']}")
    print("\n".join(rows), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

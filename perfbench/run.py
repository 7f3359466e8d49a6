#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload serve_point --seed 1 --seconds 10
  python3 perfbench/run.py --workload scan_wide --seed 1 --seconds 10 --trace 1
  python3 perfbench/run.py --workload all --repeat 5 --seed 1 --out runs.jsonl

The first call configures and compiles perfbench/ (the library sources under
src/ plus the harness) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. Each run gets a fresh temporary directory inside the
build tree, removed when the run ends.

A single run prints the harness's account of the run, a "# record:" line
(the result plus host_cpus, git commit, seed), and as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
--repeat N runs each workload N times with seeds seed, seed+1, ... and then
prints each metric's median and quartiles across the runs. --out appends one
JSON record per run to a file.

Exit status: 0 when every run was correct, 1 on a wrong answer, failed
operation or build failure, 2 on a bad flag.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["serve_point", "scan_wide", "ingest_sharded"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def run_checked(cmd, timeout, env):
    """Runs a build step; its output goes to stderr. False on failure."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    try:
        return proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return False
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    """Configures (once) and compiles the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "query", "executor.h")):
        log("perfbench: run from the repository root (src/ not found)")
        return None
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_checked(configure, BUILD_TIMEOUT_S, env):
            return None
    remaining = max(1.0, deadline - time.monotonic())
    if not run_checked(["cmake", "--build", out, "-j", "4"], remaining, env):
        return None
    return os.path.join(out, "dgf_perfbench")


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return sorted((m["name"], m["unit"]) for m in spec[key])


def run_once(binary, workload, seed, seconds, trace):
    """Runs the harness once; returns its result object or None."""
    tmp = os.path.join(build_dir(), "tmp", "run-%d-%s-%d" % (os.getpid(), workload, seed))
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=dict(os.environ, TMPDIR=tmp), text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s seed %d timed out" % (workload, seed))
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("perfbench: harness exited %d" % proc.returncode)
        return None
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: harness printed no result")
        return None
    declared = declared_metrics(trace)
    got = sorted((name, m["unit"]) for name, m in result["metrics"].items())
    if declared is not None and got != declared:
        log("perfbench: metrics differ from BENCHMARK.json: %s" %
            sorted(set(got) ^ set(declared)))
        return None
    return result


def summarize(records):
    """Median and quartiles of every metric across runs, per workload."""
    by_workload = {}
    for record in records:
        by_workload.setdefault(record["workload"], []).append(record)
    for workload, runs in by_workload.items():
        print("# %s: %d runs, seeds %s" %
              (workload, len(runs), [r["seed"] for r in runs]))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else 0.0
            print("#   %-30s median %12.4f %-11s q1 %12.4f q3 %12.4f "
                  "spread %.3f" % (name, median, unit, q1, q3, spread))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", help="append one JSON record per run here")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.repeat < 1:
        parser.error("--seed must be >= 0, --seconds and --repeat >= 1")

    # A caller stopping us with SIGTERM still gets the child killed and the
    # temporary directory removed by the finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    binary = build()
    if binary is None:
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    commit = git_commit()
    records = []
    last = None
    for workload in workloads:
        for i in range(args.repeat):
            seed = args.seed + i
            result = run_once(binary, workload, seed, args.seconds, args.trace)
            if result is None:
                return 1
            record = {"workload": workload, "seed": seed, "trace": args.trace,
                      "seconds": args.seconds, "host_cpus": os.cpu_count(),
                      "commit": commit}
            record.update(result)
            print("# record: " + json.dumps(record))
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(record) + "\n")
            records.append(record)
            last = result
    if len(records) > 1:
        summarize(records)
    correct = all(r["correct"] for r in records)
    if len(records) == 1:
        print(json.dumps(last))
    else:
        print(json.dumps({"correct": correct,
                          "attempted": sum(r["attempted"] for r in records),
                          "failed": sum(r["failed"] for r in records),
                          "runs": len(records)}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

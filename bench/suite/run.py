#!/usr/bin/env python3
"""Builds oociso_bench from this checkout and runs one benchmark workload.

    python3 bench/suite/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Everything the run builds or writes stays under <checkout>/.bench_build:
the Release build of bench/suite (which compiles the library from src/),
the cached input volume and in-core references, the node stores, the
binary's JSON report and, with --trace 1, the Chrome trace.

The binary's own report lines go to standard output first. The last line
is one JSON object with the keys correct, attempted, failed and metrics,
where metrics holds BENCHMARK.json's end_to_end metrics (--trace 0) or its
per_layer metrics (--trace 1), each as {"value": v, "unit": u}.

Exits non-zero without that line when the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "suite"
WORK_DIR = BUILD_ROOT / "work"
RUN_TIMEOUT_S = 170
FAILED_VALUE = 1.0e300  # stands in for a latency over failed requests


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(env):
    """Configures and builds the Release binary; returns its path."""
    BUILD_ROOT.mkdir(parents=True, exist_ok=True)
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", str(ROOT / "bench" / "suite"),
                     "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not (BUILD_DIR / "Makefile").exists():
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                       check=True, env=env, stdout=sys.stderr,
                       stderr=sys.stderr)
    return BUILD_DIR / "oociso_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # compiler temporaries stay in the checkout
    try:
        binary = build(env)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    # Stores of an interrupted earlier run would only take disk space.
    shutil.rmtree(WORK_DIR / "stores", ignore_errors=True)
    report = BUILD_ROOT / f"report-{args.workload}.json"
    report.unlink(missing_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--work-dir", str(WORK_DIR), "--json", str(report)]
    if args.trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace", str(traces / f"{args.workload}.json")]
    sys.stdout.flush()
    try:
        subprocess.run(command, check=True, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as error:
        log(f"benchmark failed: {error}")
        return 1

    result = json.loads(report.read_text())["workloads"][args.workload]
    section = result["per_layer" if args.trace else "end_to_end"]
    correct = bool(result["correct"])
    metrics = {}
    for metric in wanted:
        got = section.get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            log(f"metric {metric['name']} missing or not in {metric['unit']}")
            return 1
        value = got["value"]
        if value is None:  # a percentile over failed requests
            correct = False
            value = FAILED_VALUE
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

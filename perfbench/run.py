#!/usr/bin/env python3
"""TIRM benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/ (and the library
it compiles from ../src) in Release under $CARGO_TARGET_DIR (default
.bench_build), then runs the workload whose recipe is in
perfbench/workloads.json. The binary's stdout is forwarded; its last line is
the result object. The metric names it reports are checked against
BENCHMARK.json. Exits non-zero if the build fails, a correctness gate fails,
or the result is malformed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for the build check and output.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base)


def build(out):
    """Configures once and (re)builds the benchmark binary; returns its path."""
    os.makedirs(out, exist_ok=True)
    cmake_dir = os.path.join(out, "perfbench")
    log_path = os.path.join(out, "perfbench-build.log")
    with open(os.path.join(out, "perfbench.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                      "--target", "tirm_perfbench"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (%s)" % " ".join(step[:2]))
    return os.path.join(cmake_dir, "tirm_perfbench")


def recipe_flags(recipe):
    flags = []
    for key, value in recipe.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        flags.append("--%s=%s" % (key, value))
    return flags


def check_result(line, trace):
    """The last line must carry exactly BENCHMARK.json's metrics of this kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if result["correct"] and got != wanted:
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(wanted) - set(got)), sorted(set(got) - set(wanted)))
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        sys.exit("perfbench: unknown workload %r (known: %s)"
                 % (args.workload, ", ".join(sorted(workloads))))
    out = build_dir()
    binary = build(out)
    with open(binary, "rb") as f:
        record_key = hashlib.sha256(f.read()).hexdigest()[:16]

    cmd = [binary,
           "--workload=%s" % args.workload,
           # The binary parses the seed as a signed 64-bit integer.
           "--seed=%d" % (args.seed % (1 << 63)),
           "--seconds=%s" % args.seconds,
           "--trace=%d" % args.trace,
           "--out_dir=%s" % os.path.join(out, "perfbench-out"),
           "--record_key=%s" % record_key]
    cmd += recipe_flags(workloads[args.workload]["recipe"])
    # The library's flag getters fall back to TIRM_* variables; the recipe
    # alone must define the run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TIRM_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: workload exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    error = None
    try:
        error = check_result(lines[-1], args.trace)
    except (ValueError, KeyError, AttributeError, TypeError) as e:
        error = "unreadable result line: %s" % e
    if error:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit("perfbench: " + error)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

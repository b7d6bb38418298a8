#!/usr/bin/env python3
"""Builds and runs the streamgpu end-to-end benchmark.

Usage, from the root of a streamgpu checkout:

    python3 bench_e2e/run.py --workload quantile_gk --seed 1 --seconds 10 --trace 0

Configures and builds bench_e2e/ (a CMake package that compiles the
repository's libraries from source, Release) into $CARGO_TARGET_DIR/bench_e2e,
default .bench_build/bench_e2e, then runs the program. Build output goes to
stderr; standard output is the program's report, whose last line is the JSON
result. The result's metrics are checked against BENCHMARK.json (end_to_end
for --trace 0, per_layer for --trace 1). Exits non-zero when the build, the
run or that check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target", "bench_e2e"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "bench_e2e")


def check_result(line, trace):
    """Returns an error message, or None when the result line fits BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        return "metrics differ from BENCHMARK.json: %s" % sorted(set(got) ^ set(declared))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "bench_e2e")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("error: build failed: %s" % e, file=sys.stderr)
        return 2

    workdir = os.path.join(build_dir, "work", str(os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print("error: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        print(lines[-1])
        print("error: benchmark exited with %d" % proc.returncode, file=sys.stderr)
        return proc.returncode
    error = check_result(lines[-1], args.trace == 1)
    if error is not None:
        print("error: %s" % error, file=sys.stderr)
        return 2
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs one benchmark workload; prints one JSON result line.

Run from the repository root:

    python3 gplus_bench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

It configures the top-level project into .bench_build/ with the benchmark
attached (gplus_bench/gplus_bench.cmake), builds the gplus_bench target at
the project's default build type (a no-op once built), runs it with
GPLUS_THREADS = min(nproc, 4), echoes its report, and ends with one line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1, which also writes the span file under
.bench_build/traces/). It exits nonzero, without that line, when the build
or the run fails, and 1 after printing it when a correctness check failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def lanes():
    return max(1, min(os.cpu_count() or 1, 4))


def build():
    """Configures (once) and builds gplus_bench; returns its path."""
    if not (os.path.isfile("CMakeLists.txt")
            and os.path.isfile(os.path.join("src", "CMakeLists.txt"))):
        fail("no top-level project here; run from the repository root")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        attach = os.path.abspath(os.path.join("gplus_bench", "gplus_bench.cmake"))
        cmd = ["cmake", "-S", ".", "-B", BUILD_DIR,
               f"-DCMAKE_PROJECT_gplusgraph_INCLUDE={attach}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "gplus_bench",
           "-j", str(lanes())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "gplus_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    group = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[group]]

    binary = build()
    work_dir = os.path.join(BUILD_DIR, "work")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", work_dir]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    env = dict(os.environ, GPLUS_THREADS=str(lanes()))
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode not in (0, 1) or not lines:
        fail(f"gplus_bench exited with {proc.returncode}")
    result = json.loads(lines[-1])

    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        fail(f"gplus_bench did not report {', '.join(missing)}")
    correct = result["correct"] and proc.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in wanted},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Repeats the benchmark, summarises it, and compares two sets of runs.

Run from the repository root.

    # N runs of every workload in fresh processes, alternating the order
    python3 gplus_bench/run_benchmark.py --runs 5 --out .bench_build/a.json
    # the traced set (per-layer metrics; span files under .bench_build/traces)
    python3 gplus_bench/run_benchmark.py --runs 1 --trace --out .bench_build/traced.json
    # each (end-to-end metric, workload) median of B against A, within the
    # bounds of BENCHMARK.json, and equal response checksums per seed
    python3 gplus_bench/run_benchmark.py --compare .bench_build/a.json .bench_build/b.json
    # self time per span name in one span file
    python3 gplus_bench/run_benchmark.py --spans .bench_build/traces/serve-hot-seed42.jsonl
    # quick self-check of a built binary: smoke-size runs of every workload
    # (ctest --test-dir .bench_build -R gplus_bench runs the same)
    python3 gplus_bench/run_benchmark.py --smoke .bench_build/gplus_bench

A set file holds every run's values plus, per metric, the median and the
quartiles (statistics.quantiles, n=4) and their spread (q3 - q1) / median.
--compare exits 1 on any disagreement.
"""
import argparse
import collections
import json
import os
import re
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "gplus_bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run_benchmark: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    checksum = next((m.group(1) for m in
                     (re.match(r"checksum ([0-9a-f]{16})$", l) for l in lines)
                     if m), None)
    return {
        "seed": seed,
        "checksum": checksum,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def collect(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = collections.defaultdict(list)
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        seed = args.seed + i if args.vary_seed else args.seed
        for w in order:
            r = run_once(w, seed, seconds, args.trace)
            runs[w].append(r)
            print(f"{w} run {i + 1} seed {seed}: checksum {r['checksum']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in r["metrics"].items()),
                  flush=True)
    out = {"runs": args.runs, "seconds": seconds, "trace": args.trace,
           "workloads": {}}
    for w, rs in runs.items():
        names = rs[0]["metrics"].keys()
        out["workloads"][w] = {
            "runs": rs,
            "summary": {m: summarise([r["metrics"][m] for r in rs])
                        for m in names},
        }
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
    for w, data in out["workloads"].items():
        print(w)
        for m, s in data["summary"].items():
            print(f"  {m:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}")


def compare(path_a, path_b):
    spec = load_spec()
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    problems = 0
    for w in a["workloads"]:
        if w not in b["workloads"]:
            print(f"{w}: missing from {path_b}")
            problems += 1
            continue
        sa = a["workloads"][w]["summary"]
        sb = b["workloads"][w]["summary"]
        cells = []
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in sa or name not in sb:
                continue
            ma, mb = sa[name]["median"], sb[name]["median"]
            change = (mb - ma) / ma if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            ok = worse <= m["bound"]
            problems += not ok
            cells.append(f"{name} {change:+.3f}{'' if ok else ' OVER'}")
        sums = collections.defaultdict(set)
        for r in a["workloads"][w]["runs"] + b["workloads"][w]["runs"]:
            sums[r["seed"]].add(r["checksum"])
        split = [seed for seed, s in sums.items() if len(s) != 1]
        problems += len(split)
        cells.append("checksums equal" if not split
                     else f"checksums DIFFER for seeds {split}")
        print(f"{w:14s} " + "  ".join(cells))
    return 1 if problems else 0


def smoke(binary):
    """Every workload at smoke size, untraced and traced: each run must pass
    its checks and report every metric BENCHMARK.json names, and serve-hot's
    response checksum must be the same at 1 and 4 lanes."""
    spec = load_spec()
    smoke_dir = os.path.join(os.path.dirname(os.path.abspath(binary)), "smoke")
    os.makedirs(smoke_dir, exist_ok=True)

    def smoke_run(workload, lanes, trace):
        cmd = [binary, "--workload", workload, "--smoke",
               "--work-dir", smoke_dir]
        if trace:
            cmd += ["--trace", os.path.join(smoke_dir, f"{workload}.jsonl")]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, GPLUS_THREADS=str(lanes)))
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        return proc.returncode, result

    problems = 0
    for w in spec["workloads"]:
        for trace in (False, True):
            code, result = smoke_run(w["name"], 4, trace)
            group = "per_layer" if trace else "end_to_end"
            missing = [m["name"] for m in spec[group]
                       if m["name"] not in result.get("metrics", {})]
            ok = code == 0 and result.get("correct") and not missing
            problems += not ok
            print(f"{w['name']:14s} {'traced' if trace else 'untraced':8s} "
                  f"{'ok' if ok else 'FAILED'} (exit {code}"
                  + (f", missing {missing}" if missing else "") + ")")
    sums = {lanes: smoke_run("serve-hot", lanes, False)[1].get("checksum")
            for lanes in (1, 4)}
    same = len(set(sums.values())) == 1
    problems += not same
    print(f"serve-hot checksum by lane count: {sums} "
          f"{'equal' if same else 'DIFFER'}")
    return 1 if problems else 0


def spans(path):
    """Prints count, total and self time per span name."""
    rows = []
    with open(path) as f:
        for line in f:
            rows.append(json.loads(line))
    child_time = collections.Counter()
    for r in rows:
        if r["parent"]:
            child_time[r["parent"]] += r["end_ns"] - r["start_ns"]
    total = collections.Counter()
    self_time = collections.Counter()
    count = collections.Counter()
    for r in rows:
        d = r["end_ns"] - r["start_ns"]
        total[r["name"]] += d
        self_time[r["name"]] += d - child_time[r["id"]]
        count[r["name"]] += 1
    print(f"{'span':24s} {'count':>9s} {'total_s':>10s} {'self_s':>10s}")
    for name, _ in self_time.most_common():
        print(f"{name:24s} {count[name]:9d} {total[name] * 1e-9:10.4f} "
              f"{self_time[name] * 1e-9:10.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--vary-seed", action="store_true",
                        help="use seed, seed+1, ... for successive runs")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=".bench_build/benchmark_runs.json")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--spans", metavar="FILE")
    parser.add_argument("--smoke", metavar="BINARY",
                        help="quick self-check of a built gplus_bench")
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if args.smoke:
        sys.exit(smoke(args.smoke))
    if args.spans:
        spans(args.spans)
        return
    collect(args)


if __name__ == "__main__":
    main()

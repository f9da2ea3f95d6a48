#!/usr/bin/env python3
"""Steadiness mode: repeat one workload and summarize each metric.

    python3 perfbench/steady.py --workload city --runs 10 [--first-seed 1]
        [--seconds 15] [--trace 0|1] [--record perfbench/trajectory.jsonl]

Runs the benchmark --runs times, each time with the next seed and in a
fresh process, exactly as run.py does. Prints every metric's median,
quartiles and sample count, with the host's CPU count, the build type
and the git commit, and flags each end-to-end metric whose spread (the
inter-quartile distance as a share of the median) exceeds its bound in
BENCHMARK.json. --record appends one trajectory line per metric.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

import perfstats as ps  # noqa: E402
import run  # noqa: E402


def git_commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=run.ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build_type():
    try:
        for line in (run.BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1] or "none"
    except OSError:
        pass
    return "unknown"


def bounds():
    try:
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    except OSError:
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append trajectory lines here")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    run.build()

    values, units, failed = {}, {}, 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, lines = run.run_benchmark(args.workload, seed, args.seconds,
                                          args.trace)
        print("\n".join(lines[:1] + [l for l in lines if "FAILED" in l]),
              flush=True)
        failed += 0 if result["correct"] else 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    host = {"nproc": os.cpu_count(), "threads": run.threads_n(),
            "build_type": build_type(), "commit": git_commit()}
    print(f"\n{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, {failed} incorrect; "
          + ", ".join(f"{k} {v}" for k, v in host.items()))
    limit = bounds()
    lines = []
    for name, vals in values.items():
        q1, med, q3 = ps.quartiles(vals)
        spread = ps.spread(vals)
        flag = ""
        if name in limit:
            flag = (f"  bound {limit[name]}"
                    + (" SPREAD EXCEEDS BOUND" if spread > limit[name] else ""))
        print(f"  {name}: median {med:.6g} {units[name]} (n={len(vals)}, "
              f"q1 {q1:.6g}, q3 {q3:.6g}, spread {spread:.4f}){flag}")
        lines.append(dict(host, workload=args.workload, metric=name,
                          unit=units[name], median=med, q1=q1, q3=q3,
                          n=len(vals), first_seed=args.first_seed,
                          seconds=args.seconds))
    if args.record:
        with open(args.record, "a") as f:
            for line in lines:
                f.write(json.dumps(line, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

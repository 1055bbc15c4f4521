#!/usr/bin/env python3
"""Steadiness of the benchmark: repeat each workload, untraced, with
seeds 1..runs and runs of run_seconds from BENCHMARK.json, and print, for every metric, the median, the quartiles and the
interquartile range as a share of the median -- the spread the bounds
in BENCHMARK.json are set from.

Run from the repository root:

    python3 hostbench/steady.py --runs 10 --workloads kernel_lookup,sim_serve

With --sets 2 it makes a second set of runs on the same seeds and
prints how far each metric's median moved between the sets, the
comparison a regression gate makes between two commits.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        failed = [l for l in lines if l.startswith("# CHECK FAILED")]
        sys.exit(f"{workload} seed {seed}: output checks failed\n" + "\n".join(failed[:20]))
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--workloads", help="comma-separated; default: all")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = range(1, args.runs + 1)

    worst = 0.0
    for w in workloads:
        sets = []
        for _ in range(args.sets):
            runs = [run_once(bench["command"], w, s, seconds) for s in seeds]
            sets.append(runs)
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        print(f"\n{w}: {args.runs} runs x {args.sets} set(s), {seconds} s each, "
              f"failed share {sorted(shares)}")
        print(f"  {'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} "
              f"{'bound':>6} {'drift':>8}")
        for name, m in sets[0][0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in sets[0]]
            med, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            drift = ""
            if args.sets == 2:
                med2 = statistics.median(r["metrics"][name]["value"] for r in sets[1])
                drift = f"{(med2 - med) / med:+.4f}" if med else "n/a"
            flag = ""
            if bound is not None and name != "setup_s" and rel > bound / 3:
                flag = "  <- above bound/3"
            if bound is not None:
                worst = max(worst, rel / bound)
            print(f"  {name:<40} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {rel:>8.4f} "
                  f"{'' if bound is None else bound:>6} {drift:>8}{flag}")
    print(f"\nlargest spread as a share of its bound: {worst:.3f}")


if __name__ == "__main__":
    main()

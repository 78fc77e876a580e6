#!/usr/bin/env python3
"""Steadiness mode: runs each workload k times, each with another seed, and
prints every metric's median, quartiles and relative spread
((q3 - q1) / median, quartiles as statistics.quantiles(values, n=4) gives
them) next to its bound from BENCHMARK.json, so bounds come from
measurement.

    python3 perfbench/steady.py [--runs 10] [--workloads lan-write,lan-ycsb]
        [--seconds 20] [--first-seed 1] [--trace 0]

Run from the repository root. A metric is marked "steady" when its spread
is below a third of its bound, "within" when below the bound, and
"UNSTEADY" otherwise (setup_s has no spread limit, only its median drift
is bounded).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def load_contract():
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({out.returncode}): {' '.join(cmd)}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    contract = load_contract()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in contract["workloads"]))
    p.add_argument("--seconds", type=int, default=contract["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = p.parse_args()
    listed = contract["end_to_end"] if args.trace == 0 else contract["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in listed}

    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            values = " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            )
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} {values}",
                flush=True,
            )
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            bound = bounds[name]
            if bound is None:
                verdict = ""
            elif name == "setup_s":
                verdict = "drift-only"
            elif rel < bound / 3:
                verdict = "steady"
            elif rel <= bound:
                verdict = "within"
            else:
                verdict = "UNSTEADY"
            print(
                f"  {name:<34} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {rel:>8.3f} "
                f"{'' if bound is None else bound:>6} {verdict}"
            )
        print(flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check of the benchmark: two sets of runs, compared.

Run from the root of a checkout:

    python3 perfbench/steady.py                      # 2 sets x 10 runs, all workloads
    python3 perfbench/steady.py --runs 5 --workloads dashboard_tcp

Each run is `perfbench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0` with a seed of its own (set k, run i uses seed
first_seed + k * runs + i). For every workload and end-to-end metric of
BENCHMARK.json it prints, per set, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median
against the metric's bound, and between the sets the change of the median
in the metric's worse direction as a share of the first median. It also
checks that the share of failed operations is identical in every run.
Raw results go to perfbench/results/steady.json. Exits 1 when a spread is
above its bound, a median moves worse by more than its bound, a run is
incorrect, or the failed shares differ. setup_s is gated like every other
metric here, though a single cold set-up per run spreads more than the
medians of a timed phase do: a spread of it above the bound is listed as
unresolved at the end.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    results = {}
    ok = True
    over = []
    for workload in args.workloads:
        sets = []
        for k in range(SETS):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + k * args.runs + i
                result = run_once(workload, seed, args.seconds)
                result["seed"] = seed
                runs.append(result)
                print(f"{workload} set {k} seed {seed}: correct="
                      f"{result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}", file=sys.stderr, flush=True)
            sets.append(runs)
        results[workload] = sets

        shares = {Fraction(r["failed"], r["attempted"]) for s in sets for r in s}
        if len(shares) != 1 or not all(r["correct"] for s in sets for r in s):
            ok = False
            print(f"{workload}: incorrect runs or failed shares differ: "
                  f"{sorted(shares)}")
        print(f"\n{workload} ({args.runs} runs x {SETS} sets, "
              f"{args.seconds} s each; failed share {sorted(shares)})")
        print(f"  {'metric':26s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s} {'worse':>7s}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for k, runs in enumerate(sets):
                s = summarize([r["metrics"][name]["value"] for r in runs])
                worse = ""
                if first is None:
                    first = s["median"]
                else:
                    change = (s["median"] - first) / first
                    if metric["better"] == "higher":
                        change = -change
                    worse = f"{change:+.3f}"
                    if change > bound:
                        ok = False
                if s["spread"] > bound:
                    ok = False
                    over.append(f"{workload} {name} set {k}: spread "
                                f"{s['spread']:.3f} > bound {bound:.2f}")
                flag = " <" if s["spread"] <= bound / 3 else " !"
                print(f"  {name:26s} {k:3d} {s['median']:12.4f} "
                      f"{s['q1']:12.4f} {s['q3']:12.4f} {s['spread']:7.3f} "
                      f"{bound:6.2f} {worse:>7s}{flag}")
    out = BENCH_DIR / "results"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1))
    print("\nspread: (q3 - q1) / median; '<' marks a spread under a third of "
          "its bound, '!' one above it.")
    for line in over:
        print(f"unresolved: {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness check: rerun the benchmark over seeds and show each metric's spread.

    python3 perfbench/steady.py [--workloads W ...] [--seeds 10] [--first-seed 1]
                                [--seconds S]

Run from the root of a checkout.  For every workload it runs
``perfbench/run.py`` once per seed, one run at a time, then prints for each
end-to-end metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median and
the metric's bound from BENCHMARK.json, plus the failed share of each run.
A spread above a third of its bound is marked; ``setup_s`` is compared
between sets of runs by its median only, so its spread is shown unmarked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<11} {'metric':<13} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>8} {'bound':>6}")
    for wl in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            mark = "" if name == "setup_s" or spread <= bound / 3 else "  <-- above bound/3"
            print(f"{wl:<11} {name:<13} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{spread:>8.4f} {bound:>6.2f}{mark}")
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"{wl:<11} failed/attempted: {', '.join(shares)}; all correct: {correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness check: two sets of benchmark runs of the same code.

Usage, from the root of a source checkout:

    python3 perfbench/steadiness.py

For each workload of BENCHMARK.json it makes two sets of ten untraced
runs of ``run_seconds`` each, every run with its own seed (set A uses
seeds 1-10, set B seeds 1001-1010).  The sets alternate in A B B A
order, so that a slow drift of the host's speed reaches both alike (run
back to back, two sets on this host have differed by up to 45%; see the
README).  It then prints for every
end-to-end metric each set's median and quartiles, the spread (quartile
distance over the median) and whether the two medians agree within the
metric's bound from BENCHMARK.json.  A metric passes when each set's
spread is within the bound and the two medians differ by no more than
the bound.  Every run must be correct, with no failed operation.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = ([], [])
        for k in range(RUNS):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            for side in order:
                sets[side].append(one_run(workload, 1 + 1000 * side + k, bench["run_seconds"]))
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        correct = all(r["correct"] for s in sets for r in s)
        print(f"\n{workload}: {RUNS} runs per set, failed share A={shares[0]:.4f} "
              f"B={shares[1]:.4f}, all outputs correct: {correct}")
        print(f"{'metric':<14}{'A median [q1, q3]':>30}{'spread':>8}"
              f"{'B median [q1, q3]':>30}{'spread':>8}{'B/A-1':>8}{'bound':>7}  verdict")
        ok &= correct and shares == [0.0, 0.0]
        for name, bound in bounds.items():
            a = summary([r["metrics"][name]["value"] for r in sets[0]])
            b = summary([r["metrics"][name]["value"] for r in sets[1]])
            drift = b[0] / a[0] - 1.0
            steady = a[3] <= bound and b[3] <= bound
            verdict = "ok" if steady and abs(drift) <= bound else "FAIL"
            ok &= verdict == "ok"
            print(f"{name:<14}{a[0]:>10.4f} [{a[1]:.4f}, {a[2]:.4f}]{a[3]:>8.3f}"
                  f"{b[0]:>10.4f} [{b[1]:.4f}, {b[2]:.4f}]{b[3]:>8.3f}{drift:>+8.3f}{bound:>7.2f}"
                  f"  {verdict}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

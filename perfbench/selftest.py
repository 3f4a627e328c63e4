"""Self-test of the output checks: they pass real outputs and reject
corrupted ones.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

For each workload it runs one round of commands on the inputs of seed
1, requires the checks to pass, then corrupts one output and requires
the checks to reject it: a density scaled by 1.05, one Dirichlet
solution value moved by 1e-4, and one audit violation set to 1e-6.  Exits 0 when every check behaves.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def scale_density(plan, workdir):
    kind = "euclidean"
    i = plan["checks"]["kinds"][kind]["sample"][0]
    path = workdir / f"energy_{kind}.density.csv"
    lines = path.read_text().splitlines()
    idx, val = lines[1 + i].split(",")
    lines[1 + i] = f"{idx},{float(val) * 1.05!r}"
    path.write_text("\n".join(lines) + "\n")
    return f"density at point {i} of the {kind} map scaled by 1.05"


def move_dirichlet_value(plan, workdir):
    kind = "euclidean"
    i = plan["checks"]["kinds"][kind]["interior"][0]
    path = workdir / f"sol_{kind}.solution.json"
    sol = json.loads(path.read_text())
    sol["values"][i][0] += 1e-4
    path.write_text(json.dumps(sol))
    return f"{kind} solution value at index {i} moved by 1e-4"


def raise_violation(plan, workdir):
    kind = "tree"
    path = workdir / f"audit_{kind}.json"
    out = json.loads(path.read_text())
    out["max_point_violation"] = 1e-6
    path.write_text(json.dumps(out))
    return f"{kind} audit violation set to 1e-6"


CORRUPTIONS = {
    "density": scale_density,
    "dirichlet": move_dirichlet_value,
    "audit": raise_violation,
}


SEED = 1


def main():
    env = run.command_env()
    ok = True
    for workload, corrupt in CORRUPTIONS.items():
        workdir = run.OUT / f"selftest-{workload}"
        plan = run.prepare(workload, SEED, workdir)
        results = run.run_round(plan, workdir, env)
        failed = [r["cmd"]["name"] for r in results if not r["ok"]]
        clean = run.check_round(workload, plan, workdir, results)
        what = corrupt(plan, workdir)
        caught = run.CHECKS[workload](plan, workdir)
        good = not failed and not clean and bool(caught)
        ok &= good
        print(f"{workload}: commands failed {failed or 'none'}; clean outputs "
              f"{'pass' if not clean else 'FAIL: ' + '; '.join(clean)}")
        print(f"  corrupted ({what}): "
              + ("rejected: " + caught[0] if caught else "NOT rejected"))
        shutil.rmtree(workdir)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

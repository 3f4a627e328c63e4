"""kscalc CLI benchmark: density, dirichlet and audit workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload density --seed 1 --seconds 50 --trace 0


Inputs are generated from the seed (see inputs.py).  A run repeats whole
rounds of the workload's kscalc commands for about ``--seconds``
seconds; each command runs in a fresh process, one at a time, and every
round's outputs are checked (checks.py).  The last line of standard
output is one JSON object: ``correct``, ``attempted`` (commands run),
``failed`` (commands whose exit code was not the expected one; any
such command also makes ``correct`` false) and ``metrics``, each the
median over the run's rounds.

With ``--trace 0`` the metrics are the end-to-end ones: the summed wall
time, the summed CPU time of set-up and of compute, and the largest peak
RSS.  With ``--trace 1`` every round runs the commands once untraced and
once traced; the metrics are the per-layer ones (layers.py) from the
traced pass, the tracing overhead (traced minus untraced summed wall
time) and, from the untraced pass, the compute CPU time per target kind.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CHECKS  # noqa: E402
from inputs import KINDS, WRITERS  # noqa: E402
import layers  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
LAUNCHER = HERE / "launch.py"
END_TO_END = ["wall_s", "setup_s", "compute_s", "peak_rss_mb"]
# compute_s split by the target kind of the commands' maps; reported by
# the traced run, from its untraced pass
KIND_METRICS = {kind: f"compute.{kind}_s" for kind in KINDS}
TRACED = layers.METRICS + list(KIND_METRICS.values())


def command_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_SRC"] = str(SRC)
    # single-threaded BLAS: with `mdiff --threads 2` no command uses more
    # than two compute threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_command(cmd, workdir, env, trace_path=None):
    """Run one kscalc command in a fresh process; returns its timings.

    ``wall`` runs from process start to exit.  ``setup`` and ``compute``
    split the process's CPU time (user and system, all threads) at the
    end of loading: on a virtual machine the wall time of a phase also
    counts the moments the host runs other guests on our CPU, and CPU
    time does not.
    """
    stamp = workdir / f"{cmd['name']}.stamp.json"
    stamp.unlink(missing_ok=True)
    argv = [sys.executable, str(LAUNCHER), str(stamp), str(trace_path or "-"), "--", *cmd["args"]]
    with open(workdir / f"{cmd['name']}.log", "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=log, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    info = json.loads(stamp.read_text()) if stamp.exists() else {}
    cpu = usage.ru_utime + usage.ru_stime
    loaded_cpu = min(info.get("loaded_cpu") or cpu, cpu)
    return {
        "code": proc.returncode,
        "ok": proc.returncode == cmd.get("expect_exit", 0),
        "wall": t1 - t0,
        "setup": loaded_cpu,
        "compute": cpu - loaded_cpu,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "import_s": info.get("import_s", 0.0),
    }


def run_round(plan, workdir, env, trace_dir=None):
    """Every command of the plan once; returns per-command timings."""
    results = []
    for cmd in plan["commands"]:
        trace = trace_dir / cmd["name"] if trace_dir is not None else None
        res = run_command(cmd, workdir, env, trace)
        res["cmd"] = cmd
        res["trace"] = trace
        results.append(res)
    return results


def end_to_end(results):
    return {
        "wall_s": sum(r["wall"] for r in results),
        "setup_s": sum(r["setup"] for r in results),
        "compute_s": sum(r["compute"] for r in results),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }


def traced_layers(traced, untraced):
    per_cmd = []
    for r in traced:
        if r["ok"]:
            times, counts = layers.command_layers(str(r["trace"]))
            per_cmd.append((times, counts, r["import_s"]))
    out = layers.round_metrics(per_cmd)
    out["trace.overhead_s"] = sum(r["wall"] for r in traced) - sum(r["wall"] for r in untraced)
    for kind, name in KIND_METRICS.items():
        out[name] = sum(r["compute"] for r in untraced if r["cmd"]["kind"] == kind)
    return out


def prepare(workload, seed, workdir):
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    plan = WRITERS[workload](workdir, seed)
    (workdir / "plan.json").write_text(json.dumps(plan))
    return plan


def check_round(workload, plan, workdir, results):
    """Failure messages for one round; a failed command fails the round."""
    failed = [r for r in results if not r["ok"]]
    for r in failed:
        log = (workdir / f"{r['cmd']['name']}.log").read_text()[-400:]
        sys.stderr.write(f"{r['cmd']['name']}: exit {r['code']}\n{log}\n")
    if failed:
        return [f"{r['cmd']['name']}: exit {r['code']}, outputs unchecked" for r in failed]
    try:
        return CHECKS[workload](plan, workdir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"outputs unreadable: {exc!r}"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WRITERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kscalc" / "cli.py").is_file():
        sys.stderr.write(f"no kscalc sources under {SRC}; run from a source checkout\n")
        return 2
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    plan = prepare(args.workload, args.seed, workdir)
    env = command_env()
    trace_dir = workdir / "trace" if args.trace else None
    if trace_dir is not None:
        trace_dir.mkdir()

    rounds = []
    attempted = failed = 0
    problems = []
    t_start = time.monotonic()
    while True:
        t_round = time.monotonic()
        results = run_round(plan, workdir, env)
        for r in results:
            print(f"  {r['cmd']['name']:<28} exit {r['code']}  wall {r['wall']:.3f} s  "
                  f"cpu: setup {r['setup']:.3f} s  compute {r['compute']:.3f} s  rss {r['rss_mb']:.0f} MB")
        attempted += len(results)
        failed += sum(not r["ok"] for r in results)
        problems += check_round(args.workload, plan, workdir, results)
        if trace_dir is not None:
            traced = run_round(plan, workdir, env, trace_dir)
            attempted += len(traced)
            failed += sum(not r["ok"] for r in traced)
            problems += check_round(args.workload, plan, workdir, traced)
            rounds.append(traced_layers(traced, results))
        else:
            rounds.append(end_to_end(results))
        # start another round when it should end less than half a round
        # past the run length, so that the run ends nearest to it
        elapsed = time.monotonic() - t_start
        if elapsed + (time.monotonic() - t_round) / 2 > args.seconds:
            break

    for p in problems:
        sys.stderr.write(f"check failed: {p}\n")
    names = TRACED if args.trace else END_TO_END
    metrics = {}
    for name in names:
        value = statistics.median(r[name] for r in rounds)
        unit = layers.unit_of(name) if args.trace else ("MB" if name == "peak_rss_mb" else "s")
        metrics[name] = {"value": value, "unit": unit}
    print(f"{args.workload}: {len(rounds)} round(s), {attempted} commands, {failed} failed")
    shutil.rmtree(workdir)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

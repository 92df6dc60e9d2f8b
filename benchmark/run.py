"""Benchmark of the steklovwarp package: one workload per call.

    python3 benchmark/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Workloads are listed in BENCHMARK.json and defined in workloads.py. Each
call sets up the workload several times in fresh processes (setup_s is
the median), then runs it in one more process with BLAS/OpenMP threads
pinned to 1: timed passes for --seconds, every output checked.

run_cal is the median over passes of a pass's time divided by the time of
the workload's calibration kernel (see workloads.py), a fixed computation
of the same kind that uses nothing of the package, timed just before and
after the pass. On a shared host other tenants slow every pass by up to
2x for tens of seconds at a time; the kernel slows with it, so the ratio
stays steadier between runs than the raw time (run_s, the fastest pass,
printed on the checks line). With --trace 1 half
the time goes to untraced passes and the rest to traced passes, which
give the per-layer metrics.

Prints a provenance line, a checks line, and as the last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. `failed` counts the
operations that raised or failed their check, over all passes; they are
reported as measured and never stop the run. `correct` is false when the
run's outputs cannot be trusted: they differ between passes, or traced
passes differ from untraced ones. Exits 2 when the checkout holds no
package source, 1 when the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("spectrum", "sweep", "oracle", "verify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROBES = 6  # set-up-only processes before the measured one
DEADLINE_S = 170.0  # the whole call, process starts included


def parse_args(argv):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, deadline: float, setup_only: bool = False) -> dict:
    """Run worker.py to completion and return its JSON report."""
    command = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--started", repr(time.monotonic()),
    ]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(
        command, cwd=ROOT, env=pinned_env(), capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def declared_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "steklovwarp" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [
            start_worker(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)
        ]
        report = start_worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"workload {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    setups.append(report["setup_s"])

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
        **report["versions"],
    }
    print("provenance " + json.dumps(provenance))
    checks = {
        "failed_frac": report["failed"] / report["attempted"],
        "zero_err": report["zero_err"],
        "ref_rel_err": report["ref_rel_err"],
        "identical_outputs": report["identical"],
        "run_s": report["run_s"],
        "cal_s": report["cal_s"],
        "passes": report["passes"],
        "traced_passes": report.get("traced_passes", 0),
        "setup_runs": len(setups),
        "failures": report["failures"],
    }
    print("checks " + json.dumps(checks))

    if args.trace:
        shared = ("failed_frac", "zero_err", "ref_rel_err", "run_s", "cal_s")
        values = {**report["layers"], **{name: checks[name] for name in shared}}
    else:
        values = {
            "run_cal": report["run_cal"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
        }
    units = declared_units()
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result = {
        "correct": report["identical"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

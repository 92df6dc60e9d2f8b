"""One workload in one process: set up, time passes, check outputs, report JSON.

Started by run.py, which pins the BLAS/OpenMP threads in its environment.
Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--started", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def timed_passes(workload, inputs, budget_s, on_pass, around=contextlib.nullcontext):
    """Run passes until the next one would overrun budget_s; at least one.

    Only the operations are timed, inside `around`; on_pass checks the
    outputs afterwards. The workload's calibration kernel is timed before
    the first pass and after every pass. Returns the pass times, each
    pass's time over the mean of the calibration times around it, and the
    calibration times.
    """
    times = []
    cals = [workload.calibration_s()]
    begun = time.perf_counter()
    while True:
        outputs = []
        with around():
            started = time.perf_counter()
            for label, call in workload.operations(inputs):
                try:
                    outputs.append((label, call()))
                except Exception as exc:  # a failed operation is counted, never aborts the run
                    outputs.append((label, exc))
            times.append(time.perf_counter() - started)
        cals.append(workload.calibration_s())
        on_pass(outputs)
        elapsed = time.perf_counter() - begun
        if elapsed + statistics.median(times) > budget_s:
            return times, [t / (0.5 * (a + b)) for t, a, b in zip(times, cals, cals[1:])], cals


class Tally:
    """Checks over all passes: attempted, failed, worst errors, output fingerprints."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.attempted = self.failed = 0
        self.zero_err = self.ref_err = 0.0
        self.failures: list[str] = []
        self.prints: set[str] = set()

    def __call__(self, outputs) -> None:
        prints = []
        for label, output in outputs:
            for check in self.workload.check(self.inputs, label, output):
                self.attempted += 1
                if not check.passed:
                    self.failed += 1
                    if check.detail not in self.failures:
                        self.failures.append(check.detail)
                for name in ("zero_err", "ref_err"):
                    value = getattr(check, name)
                    if not math.isnan(value):
                        setattr(self, name, max(getattr(self, name), value))
            prints.append("" if isinstance(output, BaseException)
                          else self.workload.fingerprint(output))
        self.prints.add("\n".join(prints))


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy

    import steklovwarp
    from workloads import WORKLOADS

    if not Path(steklovwarp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"steklovwarp imported from {steklovwarp.__file__}, not {ROOT / 'src'}")
    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    setup_s = time.monotonic() - args.started
    report = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tally = Tally(workload, inputs)
    budget = args.seconds / 2.0 if args.trace else args.seconds
    times, ratios, cals = timed_passes(workload, inputs, budget, tally)
    untraced_prints = set(tally.prints)
    report.update(
        run_s=min(times),
        run_cal=statistics.median(ratios),
        cal_s=statistics.median(cals),
        passes=len(times),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        traced_times, traced_ratios, _ = timed_passes(
            workload, inputs, args.seconds - sum(times), tally, around=lambda: tracer
        )
        layer = tracer.metrics(len(traced_times), statistics.fmean(traced_times))
        layer["trace.overhead_frac"] = (
            statistics.median(traced_ratios) / statistics.median(ratios) - 1.0
        )
        report["layers"] = layer
        report["traced_passes"] = len(traced_times)
    report.update(
        attempted=tally.attempted,
        failed=tally.failed,
        zero_err=tally.zero_err,
        ref_rel_err=tally.ref_err,
        failures=tally.failures[:5],
        identical=len(tally.prints) == 1 and tally.prints == untraced_prints,
        versions={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas_vendor(numpy),
        },
    )
    print(json.dumps(report))
    return 0


def blas_vendor(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())

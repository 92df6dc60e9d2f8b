"""Tests of the benchmark itself: its references, its tracer and its output.

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import steklovwarp as sw  # noqa: E402
from steklovwarp import acceptance, sturm  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, log_warp, mode00_reference, sweep_spec  # noqa: E402


@pytest.mark.parametrize("length", [1.0, 2.0])
def test_mode00_reference_of_unit_warp_is_two_over_length(length):
    reference = mode00_reference(sw.graded_mesh(length, 400), 1.0, 1.0, None)
    assert reference == pytest.approx(2.0 / length, rel=1e-14)
    closed = acceptance.cylinder_closed_spectrum(length, 2.0 * math.pi, "both", 12)
    assert np.isclose(closed, reference, rtol=1e-14, atol=0.0).sum() == 1


def test_log_warp_matches_profile_pointwise():
    profile = sw.WarpProfile(0.05, 2.0 / 3.0, 1.0, symmetric=True)
    t = sw.graded_mesh(1.0, 400, profile.transition_intervals())
    expected = [profile.log_eval(float(x)) for x in t]
    assert log_warp(profile, t) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_mode00_reference_matches_solver_on_plateau_warp():
    spec = sweep_spec(2, 1, 0.05, 2.0 / 3.0, torus=False)
    spectrum = sw.steklov_spectrum_warped(spec, 3.0, n_elements=400)
    check = WORKLOADS["spectrum"].check({"spec": spec}, "spectrum", spectrum)[0]
    assert check.passed, check.detail
    assert check.ref_err < 1e-9


def _outputs(workload, inputs):
    return [workload.fingerprint(call()) for _, call in workload.operations(inputs)]


def test_traced_outputs_are_bit_identical_and_originals_restored():
    workload = WORKLOADS["sweep"]
    spec = sweep_spec(2, 1, 0.02, 2.0 / 3.0, torus=False)
    inputs = {"points": [("p", spec, 2.0 / 3.0, 400)], "zero_solves": {}}
    originals = (sw.sigma1_construction, sturm.dtn_eigenvalues, sturm.assemble)
    untraced = _outputs(workload, inputs)
    tracer = Tracer()
    with tracer:
        assert sturm.assemble is not originals[2]
        traced = _outputs(workload, inputs)
    assert traced == untraced
    assert (sw.sigma1_construction, sturm.dtn_eigenvalues, sturm.assemble) == originals
    layers = tracer.metrics(1, 1.0)
    assert layers["sturm.solves"] > 0 and layers["profiles.calls"] > 0
    assert layers["assembler.solves_per_result"] == layers["sturm.solves"]


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_named_in_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    done = _run(["--workload", "verify", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_checkout_without_package_source_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(["--workload", "spectrum", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""

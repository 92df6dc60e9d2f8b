"""Exit codes of the command-line harness: 0 success, 1 solver failure, 2 bad config."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from steklovwarp import (
    BaseGeometry,
    WarpedMetricSpec,
    WarpProfile,
    flat_torus_spectrum,
    steklov_spectrum_warped,
)
from steklovwarp import acceptance, cli, experiments
from steklovwarp.cli import main
from steklovwarp.experiments import SPECTRUM_CSV_HEADER, ExperimentConfig, spectrum_csv_lines

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"


def run_module(*args):
    """Run `python -m steklovwarp` with the source tree on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "steklovwarp", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_small_spectrum_run_succeeds(capsys):
    assert main(["spectrum", "--top", "2", "--mesh", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "value,multiplicity,lambda_fiber,mu_mode,branch"
    assert lines[1] == "0,1,0,0,0"


def test_default_spectrum_csv_is_pinned(capsys):
    # data/spectrum_top40.csv holds the output of `steklovwarp spectrum --top 40`;
    # a change that moves these bytes regenerates the file and names the change
    assert main(["spectrum", "--top", "40"]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "spectrum_top40.csv").read_bytes()


@pytest.mark.parametrize("name, default", [
    ("sweep_default", acceptance.default_sweep_config),
    ("kokarev_default", acceptance.default_kokarev_config),
    ("sweep_small_eps", None),
    ("oracle_count12", None),
    ("quasi_iso_default", None),
])
def test_sweep_csvs_are_pinned(capsys, name, default):
    # data/<name>.csv holds the output of `steklovwarp <experiment> --config
    # data/<name>.json`, the sweep's runtime_ms column dropped; the defaults
    # are the configs of acceptance criteria 6 and 7, sweep_small_eps takes
    # eps down to 1e-4, and oracle_count12 and quasi_iso_default are
    # `oracle --count 12` and `quasi-iso` at their defaults
    config = DATA / f"{name}.json"
    raw = json.loads(config.read_text())
    if default is not None:
        assert experiments.config_from_dict(raw) == default()
    command = raw["experiment"].replace("_", "-")
    assert main([command, "--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = (DATA / f"{name}.csv").read_text()
    if raw["experiment"] == "oracle":
        # the 12 digits carry the dense eigensolve's roundoff in the last
        # one, as in the degenerate pair 0.461774006032, 0.461774006033
        pinned = expected.splitlines()
        assert lines[:2] == pinned[:2] == ["value", "0"]
        np.testing.assert_allclose([float(v) for v in lines[1:]],
                                   [float(v) for v in pinned[1:]], rtol=1e-10, atol=0.0)
        return
    if raw["experiment"] == "sweep":
        assert lines[0].endswith(",runtime_ms")
        lines = [line.rpartition(",")[0] for line in lines]
    assert "\n".join(lines) + "\n" == expected


def test_small_oracle_run_succeeds(capsys):
    assert main(["oracle", "--count", "4", "--mesh", "64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "value"
    values = [float(line) for line in lines[1:]]
    assert len(values) == 4
    assert abs(values[0]) <= 1e-8
    # the +-1 Fourier pair of the circle fiber stays degenerate
    assert values[2] == pytest.approx(values[1], rel=1e-9)


def test_infinite_top_exits_one():
    # the default fiber is a circle, whose walk never ends below an infinite top
    done = run_module("spectrum", "--top", "inf")
    assert done.returncode == 1
    assert "error: top = inf needs complete spectra" in done.stderr


def test_flat_torus_spectrum_config_matches_the_solver(tmp_path, capsys):
    # T^2 cross-section and T^2 fiber: both closed spectra are torus streams
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "spectrum", "top": 30, "n": 3, "k": 2, "mode": "volume_preserving",
        "mesh": 200, "cross_section": {"kind": "flat_torus", "l1": 1.0, "l2": 7.3},
        "fiber": {"kind": "flat_torus", "l1": 2.0, "l2": 2.6},
        "coefficient": {"kind": "plateau", "epsilon": 0.05, "delta": 0.6},
    }))
    assert main(["spectrum", "--config", str(config)]) == 0
    spec = WarpedMetricSpec(
        base_dim=3,
        fiber_dim=2,
        warp=WarpProfile(0.05, 0.6, 1.0, symmetric=True),
        base=BaseGeometry(flat_torus_spectrum(1.0, 7.3, 1), 1.0, "both"),
        fiber=flat_torus_spectrum(2.0, 2.6, 1),
        mode="volume_preserving",
    )
    expected = spectrum_csv_lines(steklov_spectrum_warped(spec, 30.0, n_elements=200))
    lines = capsys.readouterr().out.splitlines()
    assert lines == expected
    rows = [line.split(",") for line in lines[1:]]
    assert any(float(lam) > 0.0 and float(mu) > 0.0 for _, _, lam, mu, _ in rows)


@pytest.mark.parametrize("experiment, fields", [
    ("kokarev", {"epsilon_list": [0.1], "delta": 0.6}), ("oracle", {"count": 4}),
])
def test_circle_fiber_without_length_exits_two(tmp_path, capsys, experiment, fields):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment, "fiber": {"kind": "circle"}, **fields}))
    assert main([experiment, "--config", str(config)]) == 2
    assert "fiber.length: missing" in capsys.readouterr().err


@pytest.mark.parametrize("fiber", [{"kind": "point"}, {"kind": "explicit", "entries": [[0, 1]]}])
def test_sweep_fiber_without_lambda1_exits_two(tmp_path, capsys, fiber):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "sweep", "n": 2, "k": 1, "epsilon_list": [0.1], "delta": 0.6, "fiber": fiber,
    }))
    assert main(["sweep", "--config", str(config)]) == 2
    assert "fiber: the sweep needs a first nonzero eigenvalue" in capsys.readouterr().err


@pytest.mark.parametrize("field, desc, message", [
    ("fiber", {"kind": "circle", "length": "abc"}, "could not convert string to float"),
    ("fiber", {"kind": "circle", "length": -1}, "circle length must be positive"),
    ("fiber", {"kind": "circle", "length": math.inf}, "circle length must be positive and finite"),
    ("fiber", {"kind": "circle", "length": 10**400}, "int too large to convert to float"),
    ("cross_section", {"kind": "flat_torus", "l1": 1.0, "l2": math.nan},
     "torus side lengths must be positive and finite"),
    ("fiber", {"kind": "explicit", "entries": 5}, "not iterable"),
    ("fiber", {"kind": "explicit", "entries": [[0, 1], [math.inf, 2]]},
     "spectrum values must be finite and strictly increasing"),
    ("fiber", {"kind": "explicit", "entries": [[0, 1], [math.nan, 2]]},
     "spectrum values must be finite and strictly increasing"),
    ("fiber", {"kind": "explicit", "entries": [[0, 1], [1.5, 2.5], [40, 2]]},
     "multiplicities must be whole numbers, got 2.5"),
    ("coefficient", {"kind": "plateau", "epsilon": "x", "delta": 0.6},
     "could not convert string to float"),
    ("coefficient", {"kind": "plateau", "epsilon": 0.2, "delta": 0.6}, "epsilon"),
])
def test_descriptor_value_its_constructor_rejects_exits_two(tmp_path, capsys, field, desc, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "spectrum", "top": 2, field: desc}))
    assert main(["spectrum", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ")
    assert message in err


@pytest.mark.parametrize("length", [math.inf, math.nan])
def test_sweep_nonfinite_cross_section_exits_two_before_any_solve(
    tmp_path, capsys, monkeypatch, length
):
    # an infinite circle used to pass the config and fail inside the first solve
    solves = []
    monkeypatch.setattr(experiments, "sigma1_construction", lambda *a, **kw: solves.append(a))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "sweep", "n": 2, "k": 1, "epsilon_list": [0.1], "delta": 0.6,
        "cross_section": {"kind": "circle", "length": length},
    }))
    assert main(["sweep", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config error: cross_section: circle length must be positive and finite" in err
    assert solves == []


@pytest.mark.parametrize("command, fields, message", [
    # the surface check always runs n = k = 1 on the annulus, of genus 0
    ("kokarev", {"n": 1}, "n: read only by experiments 'spectrum', 'sweep', not 'kokarev'"),
    ("kokarev", {"k": 2}, "k: read only by experiments 'spectrum', 'sweep', not 'kokarev'"),
    ("kokarev", {"genus": 0}, "unknown config field(s): genus"),
    # the sweep always runs volume_preserving
    ("sweep", {"n": 2, "mode": "volume_preserving"},
     "mode: read only by experiment 'spectrum', not 'sweep'"),
])
def test_field_the_run_fixes_exits_two_before_any_solve(tmp_path, capsys, monkeypatch, command,
                                                         fields, message):
    fields = {"epsilon_list": [0.1], "delta": 0.6, **fields}
    refused_before_any_solve(tmp_path, capsys, monkeypatch, command, fields, message)


def test_unknown_config_field_exits_two(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "spectrum", "bogus": 1}))
    assert main(["spectrum", "--config", str(config)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_quasi_iso_samples_exits_two(tmp_path, capsys):
    # quasi-iso never read samples; a config that sets it is refused, not ignored
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "quasi_iso", "samples": 64}))
    assert main(["quasi-iso", "--config", str(config)]) == 2
    assert "samples: read only by experiment 'normalize_volume'" in capsys.readouterr().err


@pytest.mark.parametrize("n, k, delta", [(3, 1, 0.383), (3, 2, 0.8)])
def test_sweep_outside_growth_window_exits_two(tmp_path, capsys, n, k, delta):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "sweep", "n": n, "k": k, "delta": delta, "epsilon_list": [0.1, 0.01],
        "cross_section": {"kind": "circle", "length": 6.283},
    }))
    assert main(["sweep", "--config", str(config)]) == 2
    assert "delta must lie in (1/2, min(1, n/(2k)))" in capsys.readouterr().err


def test_module_entry_point_prints_help():
    done = run_module("--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: steklovwarp")


def test_import_and_spectrum_run_without_scipy():
    # only the oracle's ring step and the banded reference helpers import scipy
    probe = (
        "import runpy, sys\n"
        "import steklovwarp\n"
        "assert 'scipy' not in sys.modules, 'import steklovwarp'\n"
        "sys.argv = ['steklovwarp', 'spectrum', '--top', '40']\n"
        "try:\n"
        "    runpy.run_module('steklovwarp', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "assert 'scipy' not in sys.modules, 'spectrum --top 40'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(SPECTRUM_CSV_HEADER)


@pytest.mark.parametrize("field, value, reader", [
    ("n_theta", 32, "oracle"), ("pairs", 3, "quasi_iso"), ("k_max", 4, "quasi_iso"),
])
def test_field_the_experiment_never_reads_exits_two(tmp_path, capsys, field, value, reader):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "spectrum", "top": 2, field: value}))
    assert main(["spectrum", "--config", str(config)]) == 2
    assert f"{field}: read only by experiment '{reader}', not 'spectrum'" in capsys.readouterr().err


def test_flag_the_experiment_never_reads_exits_two(capsys):
    # verify writes no CSV, so --out would be silently ignored
    assert main(["verify", "--out", "never-written.csv"]) == 2
    assert "out: read only by experiments" in capsys.readouterr().err


@pytest.mark.parametrize("symmetric", ["false", 0])
def test_plateau_symmetric_must_be_a_boolean(tmp_path, capsys, symmetric):
    # the string "false" is truthy: read as bool it gave a symmetric warp
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "spectrum", "top": 2, "coefficient": {
        "kind": "plateau", "epsilon": 0.1, "delta": 0.6, "symmetric": symmetric,
    }}))
    assert main(["spectrum", "--config", str(config)]) == 2
    assert "config error: coefficient.symmetric: expected true or false" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["pairs", "k_max"])
def test_quasi_iso_that_compares_nothing_exits_two(tmp_path, capsys, monkeypatch, field):
    solves = []
    monkeypatch.setattr(cli, "run_quasi_iso", lambda *a, **kw: solves.append(a))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "quasi_iso", field: 0}))
    assert main(["quasi-iso", "--config", str(config)]) == 2
    assert f"config error: {field}: must be at least 1" in capsys.readouterr().err
    assert solves == []


@pytest.mark.parametrize("field, value, message", [
    ("samples", 1, "samples: must be at least 2"),
    ("dim", 0, "dim: must be at least 1"),
    ("collar_fraction", 1.5, "collar_fraction: must lie in (0, 1)"),
    ("collar_fraction", 0.0, "collar_fraction: must lie in (0, 1)"),
])
def test_normalize_volume_bad_value_exits_two(tmp_path, capsys, field, value, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "normalize_volume", "target": 1.5, "dim": 2, field: value,
    }))
    assert main(["normalize-volume", "--config", str(config)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["sweep", "kokarev"])
@pytest.mark.parametrize("epsilon_list", [[-0.05], [0.1, 0.0], [0.1, -0.05]])
def test_nonpositive_epsilon_exits_two_before_any_solve(
    tmp_path, capsys, monkeypatch, experiment, epsilon_list
):
    solves = []
    monkeypatch.setattr(experiments, "sigma1_construction", lambda *a, **kw: solves.append(a))
    fields = {"n": 2} if experiment == "sweep" else {}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": experiment, "epsilon_list": epsilon_list, "delta": 0.6, **fields,
    }))
    assert main([experiment, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config error: epsilon_list: every epsilon must lie in (0, collar_length/6)" in err
    assert solves == []


@pytest.mark.parametrize("command, fields, header", [
    ("sweep", {"n": 2, "epsilon_list": [0.1, 0.05], "delta": 0.6, "mesh": 100},
     experiments.SWEEP_CSV_HEADER),
    ("kokarev", {"epsilon_list": [0.1], "delta": 0.6, "mesh": 100},
     experiments.KOKAREV_CSV_HEADER),
    ("quasi-iso", {"pairs": 2, "k_max": 2, "mesh": 100},
     "pair,coefficient_ratio,ratio_bound,passed"),
    ("normalize-volume", {"target": 1.5, "dim": 2, "samples": 64}, "c = "),
])
def test_small_experiment_run_succeeds(tmp_path, capsys, command, fields, header):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": command.replace("-", "_"), **fields}))
    assert main([command, "--config", str(config)]) == 0
    assert capsys.readouterr().out.startswith(header)


@pytest.mark.parametrize("target, dim, lines", [
    (1.5, 2, ["c = 2.30037933722", "volume at c = 1.5 (target 1.5)"]),
    # the bracketing solve ended in an overflow of exp, then in "no bracket for c"
    (1e300, 9, ["c = 275.61572422", "volume at c = 1e+300 (target 1e+300)"]),
    (1e300, 2, ["c = 1240.27075899", "volume at c = 1e+300 (target 1e+300)"]),
])
def test_normalize_volume_prints_the_volume_it_solved_for(tmp_path, capsys, target, dim, lines):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "normalize_volume", "target": target, "dim": dim}))
    assert main(["normalize-volume", "--config", str(config)]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def refused_before_any_solve(tmp_path, capsys, monkeypatch, command, fields, message):
    """Run `command` on a config of `fields`: it must exit 2 with `message`, solving nothing."""
    experiment = command.replace("-", "_")
    solves = []
    monkeypatch.setitem(cli._COMMANDS, experiment, lambda cfg: solves.append(cfg))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment, **fields}))
    assert main([command, "--config", str(config)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert solves == []


@pytest.mark.parametrize("target", [0, -1])
def test_normalize_volume_nonpositive_target_exits_two(tmp_path, capsys, monkeypatch, target):
    fields = {"target": target, "dim": 2}
    refused_before_any_solve(
        tmp_path, capsys, monkeypatch, "normalize-volume", fields, "target: must be positive"
    )


@pytest.mark.parametrize("command, fields", [
    ("spectrum", {"top": 2}),
    ("sweep", {"n": 2, "epsilon_list": [0.1], "delta": 0.6}),
    ("kokarev", {"epsilon_list": [0.1], "delta": 0.6}),
    ("quasi-iso", {}),
    ("verify", {}),
])
def test_mesh_below_sixteen_elements_exits_two(tmp_path, capsys, monkeypatch, command, fields):
    refused_before_any_solve(
        tmp_path, capsys, monkeypatch, command, {"mesh": 15, **fields},
        "mesh: must be at least 16 elements",
    )


@pytest.mark.parametrize("command, fields", [("spectrum", {"top": 2}), ("oracle", {"count": 100})])
def test_unknown_steklov_ends_exits_two(tmp_path, capsys, monkeypatch, command, fields):
    refused_before_any_solve(
        tmp_path, capsys, monkeypatch, command, {"steklov_ends": "middle", **fields},
        "steklov_ends: expected 'both', 'left' or 'right'",
    )


@pytest.mark.parametrize("fields, message", [
    ({"n_theta": 17}, "n_theta: must be an even integer of at least 16"),
    ({"n_theta": 14}, "n_theta: must be an even integer of at least 16"),
    ({"mesh": 31}, "mesh: must be at least 32 axial nodes"),
    ({"count": 0}, "count: must lie in [1, 128] (boundary nodes)"),
    ({"count": 129}, "count: must lie in [1, 128] (boundary nodes)"),
    ({"count": 65, "steklov_ends": "left"}, "count: must lie in [1, 64] (boundary nodes)"),
])
def test_oracle_grid_the_solver_refuses_exits_two(tmp_path, capsys, monkeypatch, fields, message):
    refused_before_any_solve(
        tmp_path, capsys, monkeypatch, "oracle", {"count": 4, **fields}, message
    )


def test_smallest_accepted_values_run(capsys):
    assert main(["spectrum", "--top", "2", "--mesh", "16"]) == 0
    assert capsys.readouterr().out.startswith(SPECTRUM_CSV_HEADER)
    assert main(["oracle", "--count", "128", "--mesh", "32"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 128


SWEEP = {"n": 2, "epsilon_list": [0.1, 0.05], "delta": 0.6}
KOKAREV = {"epsilon_list": [0.1, 0.05], "delta": 0.6}
# one refused value for each branch of each rule in the config table
RULE_CASES = [
    ("n", "spectrum", {"top": 2, "n": 0}, "n: must be at least 1"),
    ("k", "spectrum", {"top": 2, "k": 0}, "k: must be at least 1"),
    ("collar_length", "spectrum", {"top": 2, "collar_length": -1},
     "collar_length: must be positive and finite"),
    ("collar_length", "oracle", {"count": 4, "collar_length": math.inf},
     "collar_length: must be positive and finite"),
    ("steklov_ends", "kokarev", {**KOKAREV, "steklov_ends": "middle"},
     "steklov_ends: expected 'both', 'left' or 'right'"),
    ("mode", "spectrum", {"top": 2, "mode": "bogus"},
     "mode: expected 'plain_warp' or 'volume_preserving'"),
    ("epsilon_list", "sweep", {**SWEEP, "epsilon_list": [0.05, 0.1]},
     "epsilon_list: must be strictly descending"),
    ("epsilon_list", "kokarev", {**KOKAREV, "collar_length": 0.6},
     "epsilon_list: every epsilon must lie in (0, collar_length/6)"),
    ("delta", "kokarev", {**KOKAREV, "delta": 1.0}, "delta: must lie in (0, 1)"),
    ("mesh", "sweep", {**SWEEP, "mesh": 15}, "mesh: must be at least 16 elements"),
    ("mesh", "oracle", {"count": 4, "mesh": 31}, "mesh: must be at least 32 axial nodes"),
    # sizes numpy cannot allocate, refused by field name rather than by a numpy ValueError
    ("mesh", "spectrum", {"top": 2, "mesh": 2**20 + 1}, "mesh: must be at least 16 elements "
     "and at most 1048576"),
    ("mesh", "spectrum", {"top": 2, "mesh": 10**30}, "mesh: must be at least 16 elements "
     "and at most 1048576"),
    ("mesh", "oracle", {"count": 4, "mesh": 10**30}, "mesh: must be at least 32 axial nodes "
     "and at most 1048576"),
    ("n_theta", "oracle", {"count": 4, "n_theta": 14},
     "n_theta: must be an even integer of at least 16"),
    # 2**12 + 1 is odd, so the first even size past the bound checks the bound itself
    ("n_theta", "oracle", {"count": 4, "n_theta": 2**12 + 2},
     "n_theta: must be an even integer of at least 16 and at most 4096"),
    ("n_theta", "oracle", {"count": 4, "n_theta": 10**30},
     "n_theta: must be an even integer of at least 16 and at most 4096"),
    ("top", "spectrum", {"top": 0}, "top: must be positive"),
    ("count", "oracle", {"count": 0}, "count: must lie in [1, 128] (boundary nodes)"),
    ("seed", "quasi-iso", {"seed": -1}, "seed: must be nonnegative"),
    ("seed", "verify", {"seed": -1}, "seed: must be nonnegative"),
    ("target", "normalize-volume", {"target": -1, "dim": 2}, "target: must be positive"),
    ("dim", "normalize-volume", {"target": 1.5, "dim": 0}, "dim: must be at least 1"),
    ("samples", "normalize-volume", {"target": 1.5, "dim": 2, "samples": 1},
     "samples: must be at least 2"),
    ("samples", "normalize-volume", {"target": 1.5, "dim": 2, "samples": 2**24 + 1},
     "samples: must be at least 2 and at most 16777216"),
    ("samples", "normalize-volume", {"target": 1.5, "dim": 2, "samples": 10**30},
     "samples: must be at least 2 and at most 16777216"),
    ("collar_fraction", "normalize-volume", {"target": 1.5, "dim": 2, "collar_fraction": 1.0},
     "collar_fraction: must lie in (0, 1)"),
    ("pairs", "quasi-iso", {"pairs": 0}, "pairs: must be at least 1"),
    ("k_max", "quasi-iso", {"k_max": 0}, "k_max: must be at least 1"),
]


@pytest.mark.parametrize("field, command, fields, message", RULE_CASES)
def test_each_rule_refuses_before_any_solve(
    tmp_path, capsys, monkeypatch, field, command, fields, message
):
    refused_before_any_solve(tmp_path, capsys, monkeypatch, command, fields, message)


def test_every_rule_has_a_refused_case():
    ruled = {f.name for f in dataclasses.fields(ExperimentConfig) if f.metadata.get("rule")}
    assert ruled == {field for field, *_ in RULE_CASES}


@pytest.mark.parametrize("command, fields, message", [
    ("spectrum", {"top": True}, "top: expected a number"),
    ("spectrum", {"top": "2"}, "top: expected a number"),
    ("spectrum", {"top": "nan"}, "top: expected a number"),
    ("spectrum", {"top": math.nan}, "top: expected a number"),
    ("oracle", {"count": 4, "collar_length": "nan"}, "collar_length: expected a number"),
    ("normalize-volume", {"target": 1.5, "dim": 2, "collar_fraction": False},
     "collar_fraction: expected a number"),
    ("sweep", {**SWEEP, "epsilon_list": [0.1, True]},
     "epsilon_list: expected a nonempty list of numbers"),
    ("kokarev", {**KOKAREV, "epsilon_list": ["0.1"]},
     "epsilon_list: expected a nonempty list of numbers"),
    ("kokarev", {**KOKAREV, "epsilon_list": [math.nan]},
     "epsilon_list: expected a nonempty list of numbers"),
    # a JSON integer beyond the float range
    ("spectrum", {"top": 10**400}, "top: expected a number"),
    ("kokarev", {**KOKAREV, "epsilon_list": [0.1, -10**400]},
     "epsilon_list: expected a nonempty list of numbers"),
])
def test_number_field_takes_only_a_json_number(tmp_path, capsys, monkeypatch, command, fields,
                                                message):
    # a bool or a string used to pass through float(); NaN passes every comparison test
    refused_before_any_solve(tmp_path, capsys, monkeypatch, command, fields, message)


@pytest.mark.parametrize("command, fields, message", [
    ("spectrum", {"top": 2, "out": 5}, "out: expected a string"),
    ("oracle", {"count": 4, "out": ["a.csv"]}, "out: expected a string"),
    ("spectrum", {"top": 2, "steklov_ends": 1}, "steklov_ends: expected a string"),
    ("spectrum", {"top": 2, "mode": None}, "mode: expected a string"),
])
def test_string_field_takes_only_a_json_string(tmp_path, capsys, monkeypatch, command, fields,
                                               message):
    # a number in out used to run the whole solve and end in a TypeError from Path
    refused_before_any_solve(tmp_path, capsys, monkeypatch, command, fields, message)


def test_huge_json_integer_exits_two(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"experiment": "spectrum", "top": 1' + "0" * 400 + "}")
    assert main(["spectrum", "--config", str(config)]) == 2
    assert "config error: top: expected a number" in capsys.readouterr().err


def test_negative_seed_flag_exits_two(capsys, monkeypatch):
    # criterion 8 used to report the seed's ValueError as a failed gate
    monkeypatch.setitem(cli._COMMANDS, "verify", lambda cfg: pytest.fail("verify ran"))
    assert main(["verify", "--seed", "-1"]) == 2
    assert "config error: seed: must be nonnegative" in capsys.readouterr().err

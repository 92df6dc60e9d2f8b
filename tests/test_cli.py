"""Exit codes of the command-line harness: 0 success, 1 solver failure, 2 bad config."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from steklovwarp.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_small_oracle_run_succeeds(capsys):
    assert main(["oracle", "--count", "4", "--mesh", "64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "value"
    values = [float(line) for line in lines[1:]]
    assert len(values) == 4
    assert abs(values[0]) <= 1e-8
    # the +-1 Fourier pair of the circle fiber stays degenerate
    assert values[2] == pytest.approx(values[1], rel=1e-9)


def test_solver_domain_error_exits_one(capsys):
    assert main(["oracle", "--count", "100000"]) == 1
    assert "count must lie in [1, 128]" in capsys.readouterr().err


def test_infinite_top_exits_one():
    # the default fiber is a circle, whose walk never ends below an infinite top
    done = run_module("spectrum", "--top", "inf")
    assert done.returncode == 1
    assert "error: top = inf needs complete spectra" in done.stderr


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
        "experiment": "sweep", "n": n, "k": k, "delta": delta, "mode": "volume_preserving",
        "epsilon_list": [0.1, 0.01], "cross_section": {"kind": "circle", "length": 6.283},
    }))
    assert main(["sweep", "--config", str(config)]) == 2
    assert "delta must lie in (1/2, min(1, n/(2k)))" in capsys.readouterr().err


def test_module_entry_point_prints_help():
    done = run_module("--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: steklovwarp")

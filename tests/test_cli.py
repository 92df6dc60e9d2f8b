"""Exit codes of the command-line harness: 0 success, 1 solver failure, 2 bad config."""

import json
import os
import subprocess
import sys
from pathlib import Path

from steklovwarp.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def test_small_spectrum_run_succeeds(capsys):
    assert main(["spectrum", "--top", "2", "--mesh", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "value,multiplicity,lambda_fiber,mu_mode,branch"
    assert lines[1] == "0,1,0,0,0"


def test_solver_domain_error_exits_one(capsys):
    assert main(["oracle", "--count", "100000"]) == 1
    assert "count must lie in [1, 128]" in capsys.readouterr().err


def test_unknown_config_field_exits_two(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "spectrum", "bogus": 1}))
    assert main(["spectrum", "--config", str(config)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_module_entry_point_prints_help():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "steklovwarp", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: steklovwarp")

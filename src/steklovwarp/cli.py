"""Command-line harness for the experiments.

Subcommands: spectrum, oracle, sweep, verify, kokarev, quasi-iso,
normalize-volume. Exit codes: 0 success, 1 verification or solver failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .assembler import steklov_spectrum_warped
from .errors import ConfigError, SteklovError
from .experiments import (
    ExperimentConfig,
    build_warp,
    config_from_dict,
    kokarev_csv_lines,
    metric_spec_from_config,
    normalize_volume,
    oracle_csv_lines,
    quasi_iso_check,
    ramp_phi_instance,
    random_profile_pairs,
    run_kokarev_sweep,
    run_sweep,
    sig12,
    spectrum_csv_lines,
    sweep_csv_lines,
)
from .oracle import make_grid, revolution_steklov


def _load_config(path: str | None, experiment: str, overrides: dict) -> ExperimentConfig:
    raw: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
    raw.setdefault("experiment", experiment)
    if raw["experiment"] != experiment:
        raise ConfigError(
            f"experiment: config says {raw['experiment']!r} but the "
            f"subcommand is {experiment!r}"
        )
    for name, value in overrides.items():
        if value is not None:
            raw[name] = value
    return config_from_dict(raw)


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _cmd_spectrum(cfg: ExperimentConfig) -> int:
    spec = metric_spec_from_config(cfg)
    spectrum = steklov_spectrum_warped(spec, cfg.top, n_elements=cfg.mesh)
    _emit(spectrum_csv_lines(spectrum), cfg.out)
    return 0


def _cmd_oracle(cfg: ExperimentConfig) -> int:
    warp = build_warp(cfg.coefficient, cfg.collar_length)
    fiber = cfg.fiber or {}
    if fiber.get("kind") != "circle":
        raise ConfigError("fiber.kind: the direct oracle needs a circle fiber")
    grid = make_grid(
        cfg.collar_length,
        float(fiber["length"]),
        warp,
        n_axial=cfg.mesh,
        n_theta=cfg.n_theta,
        steklov_ends=cfg.steklov_ends,
    )
    values = revolution_steklov(grid, cfg.count)
    _emit(oracle_csv_lines(values), cfg.out)
    return 0


def _cmd_sweep(cfg: ExperimentConfig) -> int:
    rows = run_sweep(cfg)
    _emit(sweep_csv_lines(rows), cfg.out)
    return 0


def _cmd_kokarev(cfg: ExperimentConfig) -> int:
    rows = run_kokarev_sweep(cfg)
    _emit(kokarev_csv_lines(rows), cfg.out)
    return 0 if all(r.check.passed for r in rows) else 1


def _cmd_quasi_iso(cfg: ExperimentConfig) -> int:
    lines = ["pair,coefficient_ratio,ratio_bound,passed"]
    ok = True
    for i, (s1, s2) in enumerate(random_profile_pairs(cfg)):
        res = quasi_iso_check(s1, s2, dim_m=2, k_max=cfg.k_max, n_elements=cfg.mesh)
        ok = ok and res.passed
        lines.append(
            f"{i},{sig12(res.coefficient_ratio)},{sig12(res.ratio_bound)},"
            f"{'1' if res.passed else '0'}"
        )
    _emit(lines, cfg.out)
    return 0 if ok else 1


def _cmd_normalize_volume(cfg: ExperimentConfig) -> int:
    integrand, weights, phi = ramp_phi_instance(cfg.samples, cfg.collar_fraction)
    c = normalize_volume(integrand, weights, phi, cfg.dim, cfg.target)
    achieved = float(np.sum(integrand * weights * np.exp(c * cfg.dim * phi / 2.0)))
    print(f"c = {sig12(c)}")
    print(f"volume at c = {sig12(achieved)} (target {sig12(cfg.target)})")
    return 0


def _cmd_verify(cfg: ExperimentConfig) -> int:
    results = acceptance.run_all(seed=cfg.seed, mesh=cfg.mesh)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "oracle": _cmd_oracle,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "kokarev": _cmd_kokarev,
    "quasi_iso": _cmd_quasi_iso,
    "normalize_volume": _cmd_normalize_volume,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steklovwarp",
        description="Steklov spectra of warped products: experiments and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name.replace("_", "-"))
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--mesh", type=int, help="mesh resolution override")
        p.add_argument("--top", type=float, help="spectrum cutoff override")
        p.add_argument("--count", type=int, help="eigenvalue count override")
        p.add_argument("--seed", type=int, help="seed for randomized checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    experiment = args.command.replace("-", "_")
    overrides = {
        "out": args.out,
        "mesh": args.mesh,
        "top": args.top,
        "count": args.count,
        "seed": args.seed,
    }
    try:
        cfg = _load_config(args.config, experiment, overrides)
        return _COMMANDS[experiment](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SteklovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

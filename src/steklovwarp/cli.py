"""Command-line harness for the experiments.

Subcommands: spectrum, oracle, sweep, verify, kokarev, quasi-iso,
normalize-volume. Exit codes: 0 success, 1 verification or solver failure,
2 configuration error: the config was refused before any solve.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import acceptance
from .assembler import steklov_spectrum_warped
from .errors import ConfigError, SteklovError
from .experiments import (
    ExperimentConfig,
    build_spectrum,
    build_warp,
    config_from_dict,
    kokarev_csv_lines,
    metric_spec_from_config,
    normalize_volume,
    oracle_csv_lines,
    ramp_phi_instance,
    run_kokarev_sweep,
    run_quasi_iso,
    run_sweep,
    sig12,
    spectrum_csv_lines,
    sweep_csv_lines,
)
from .oracle import make_grid, revolution_spectrum


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
    spec = metric_spec_from_config(cfg, build_warp(cfg.coefficient, cfg.collar_length), cfg.mode)
    spectrum = steklov_spectrum_warped(spec, cfg.top, n_elements=cfg.mesh)
    _emit(spectrum_csv_lines(spectrum), cfg.out)
    return 0


def _cmd_oracle(cfg: ExperimentConfig) -> int:
    warp = build_warp(cfg.coefficient, cfg.collar_length)
    fiber = build_spectrum(cfg.fiber, "fiber")
    if fiber.kind != "circle":
        raise ConfigError("fiber.kind: the direct oracle needs a circle fiber")
    grid = make_grid(
        cfg.collar_length,
        fiber.params[0],
        warp,
        n_axial=cfg.mesh,
        n_theta=cfg.n_theta,
        steklov_ends=cfg.steklov_ends,
    )
    values = revolution_spectrum(grid)[:cfg.count]  # the config's rule bounds count
    _emit(oracle_csv_lines(values), cfg.out)
    return 0


def _cmd_sweep(cfg: ExperimentConfig) -> int:
    rows = run_sweep(cfg)
    _emit(sweep_csv_lines(rows), cfg.out)
    return 0


def _cmd_kokarev(cfg: ExperimentConfig) -> int:
    rows = run_kokarev_sweep(cfg)
    _emit(kokarev_csv_lines(rows), cfg.out)
    return 0 if all(r.passed for r in rows) else 1


def _cmd_quasi_iso(cfg: ExperimentConfig) -> int:
    results = run_quasi_iso(cfg)
    _emit(["pair,coefficient_ratio,ratio_bound,passed"] + [
        f"{i},{sig12(r.coefficient_ratio)},{sig12(r.ratio_bound)},{int(r.passed)}"
        for i, r in enumerate(results)
    ], cfg.out)
    return 0 if all(r.passed for r in results) else 1


def _cmd_normalize_volume(cfg: ExperimentConfig) -> int:
    integrand, weights, phi = ramp_phi_instance(cfg.samples, cfg.collar_fraction)
    c, achieved = normalize_volume(integrand, weights, phi, cfg.dim, cfg.target)
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


# the config fields that a flag of the same name overrides, and their types
_FLAGS = (("out", str), ("mesh", int), ("top", float), ("count", int), ("seed", int))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steklovwarp",
        description="Steklov spectra of warped products: experiments and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name.replace("_", "-"))
        p.add_argument("--config", help="path to a JSON experiment config")
        for flag, kind in _FLAGS:
            p.add_argument(f"--{flag}", type=kind, help=f"override the config's {flag}")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    experiment = args.command.replace("-", "_")
    overrides = {name: getattr(args, name) for name, _ in _FLAGS}
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

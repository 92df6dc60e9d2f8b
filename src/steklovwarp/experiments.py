"""Reproducible experiment drivers: sweeps, bound checks, volume normalization.

Configs are flat JSON records validated against a closed field set, so a
typo fails loudly with the offending field path. All tabular output uses
12 significant digits and a fixed row order; runtime columns are the only
nondeterministic content.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields as dataclass_fields

import numpy as np

from .assembler import first_eigenvalues, lower_bound_C, sigma1_construction
from .errors import ConfigError, DomainError, InfeasibleError, NumericError, SteklovError
from .profiles import Warp, WarpedMetricSpec, WarpProfile, log_value
from .provenance import SpectrumWithProvenance
from .spectra import (
    TWO_PI,
    ClosedSpectrum,
    circle_spectrum,
    explicit_spectrum,
    flat_torus_spectrum,
    point_spectrum,
)
from .sturm import BaseGeometry, graded_mesh

SPECTRUM_CSV_HEADER = "value,multiplicity,lambda_fiber,mu_mode,branch"
SWEEP_CSV_HEADER = "epsilon,sigma1,active_branch,lower_bound_C,mesh_size,runtime_ms"
KOKAREV_CSV_HEADER = "epsilon,sigma1,boundary_length,product,bound,passed"


def sig12(x: float) -> str:
    """Fixed float formatting: 12 significant digits."""
    return format(float(x), ".12g")


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    """Validated experiment description, read from a flat JSON record.

    "experiment" names the driver, which requires the fields _REQUIRED lists:
    top (spectrum), count (oracle), epsilon_list and delta (sweep, kokarev),
    target and dim (normalize_volume), none (quasi_iso, verify). samples and
    collar_fraction are read by normalize_volume alone, and rejected for any
    other experiment. fiber and cross_section are spectrum descriptors,
    coefficient a warp descriptor.
    """

    experiment: str
    n: int = 1
    k: int = 1
    collar_length: float = 1.0
    fiber: dict = field(default_factory=lambda: {"kind": "circle", "length": TWO_PI})
    cross_section: dict | None = None
    steklov_ends: str = "both"
    mode: str = "plain_warp"
    coefficient: dict = field(default_factory=lambda: {"kind": "unit"})
    epsilon_list: list[float] | None = None
    delta: float | None = None
    mesh: int = 400
    n_theta: int = 64
    top: float | None = None
    count: int | None = None
    seed: int = 0
    out: str | None = None
    target: float | None = None
    dim: int | None = None
    samples: int = 512
    collar_fraction: float = 0.25
    pairs: int = 20
    k_max: int = 5
    genus: int = 0


_REQUIRED = {
    "spectrum": ("top",),
    "oracle": ("count",),
    "sweep": ("epsilon_list", "delta"),
    "kokarev": ("epsilon_list", "delta"),
    "quasi_iso": (),
    "normalize_volume": ("target", "dim"),
    "verify": (),
}

_NUMERIC_FIELDS = {
    "collar_length", "delta", "top", "target", "collar_fraction",
}
_INT_FIELDS = {"n", "k", "mesh", "n_theta", "count", "seed", "dim", "samples",
               "pairs", "k_max", "genus"}

# read by normalize_volume alone; set for another experiment they would be
# silently ignored, so they are rejected
_NORMALIZE_VOLUME_FIELDS = ("samples", "collar_fraction")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a JSON record, rejecting unknown fields by path."""
    known = {f.name for f in dataclass_fields(ExperimentConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    if "experiment" not in raw:
        raise ConfigError("missing required field 'experiment'")
    kinds = tuple(_REQUIRED)
    if raw["experiment"] not in kinds:
        raise ConfigError(f"experiment: expected one of {kinds}, got {raw['experiment']!r}")
    for name in _NORMALIZE_VOLUME_FIELDS:
        if name in raw and raw["experiment"] != "normalize_volume":
            raise ConfigError(
                f"{name}: read only by experiment 'normalize_volume', not '{raw['experiment']}'"
            )
    coerced = dict(raw)
    for name in _NUMERIC_FIELDS:
        if coerced.get(name) is not None:
            try:
                coerced[name] = float(coerced[name])
            except (TypeError, ValueError):
                raise ConfigError(f"{name}: expected a number") from None
    for name in _INT_FIELDS:
        if coerced.get(name) is not None:
            if isinstance(coerced[name], bool) or not isinstance(coerced[name], int):
                raise ConfigError(f"{name}: expected an integer")
    if coerced.get("epsilon_list") is not None:
        eps = coerced["epsilon_list"]
        if not isinstance(eps, list) or not eps:
            raise ConfigError("epsilon_list: expected a nonempty list of numbers")
        try:
            coerced["epsilon_list"] = [float(e) for e in eps]
        except (TypeError, ValueError):
            raise ConfigError("epsilon_list: expected a nonempty list of numbers") from None
    cfg = ExperimentConfig(**coerced)
    for name in _REQUIRED[cfg.experiment]:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{name}: required for experiment '{cfg.experiment}'")
    return cfg


def build_spectrum(desc: dict | None, path: str, count: int = 16) -> ClosedSpectrum:
    """Spectrum from a descriptor like {"kind": "circle", "length": 6.283}."""
    if desc is None:
        return point_spectrum()
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError(f"{path}: expected an object with a 'kind' field")
    kind = desc["kind"]
    try:
        if kind == "circle":
            return circle_spectrum(float(desc["length"]), count)
        if kind == "flat_torus":
            return flat_torus_spectrum(float(desc["l1"]), float(desc["l2"]), count)
        if kind == "point":
            return point_spectrum()
        if kind == "explicit":
            return explicit_spectrum(desc["entries"])
    except KeyError as exc:
        raise ConfigError(f"{path}.{exc.args[0]}: missing") from None
    raise ConfigError(f"{path}.kind: unknown spectrum kind {kind!r}")


def build_warp(desc: dict, collar_length: float, path: str = "coefficient") -> Warp:
    """Warp from a descriptor: unit, bump (1 + t(L-t)), or a plateau profile."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError(f"{path}: expected an object with a 'kind' field")
    kind = desc["kind"]
    if kind == "unit":
        return lambda t: 1.0
    if kind == "bump":
        return lambda t: 1.0 + t * (collar_length - t)
    if kind == "plateau":
        try:
            return WarpProfile(
                float(desc["epsilon"]),
                float(desc["delta"]),
                collar_length,
                bool(desc.get("symmetric", True)),
            )
        except KeyError as exc:
            raise ConfigError(f"{path}.{exc.args[0]}: missing") from None
    raise ConfigError(f"{path}.kind: unknown coefficient kind {kind!r}")


def metric_spec_from_config(cfg: ExperimentConfig, warp: Warp | None = None) -> WarpedMetricSpec:
    base = BaseGeometry(
        cross_section=build_spectrum(cfg.cross_section, "cross_section"),
        collar_length=cfg.collar_length,
        steklov_ends=cfg.steklov_ends,
    )
    return WarpedMetricSpec(
        base_dim=cfg.n,
        fiber_dim=cfg.k,
        warp=warp if warp is not None else build_warp(cfg.coefficient, cfg.collar_length),
        base=base,
        fiber=build_spectrum(cfg.fiber, "fiber"),
        mode=cfg.mode,
    )


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    sigma1: float
    active_branch: str
    lower_bound: float
    mesh_size: int
    runtime_ms: float


def run_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Spectral gap of the volume-preserving construction for each epsilon.

    Epsilons must be descending and below collar_length/6; n, k and delta
    must lie where lower_bound_C holds, so the gap diverges. One row per
    epsilon, in input order.
    """
    if cfg.mode != "volume_preserving":
        raise ConfigError("mode: sweep requires 'volume_preserving'")
    eps_list = cfg.epsilon_list or []
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("epsilon_list: must be strictly descending")
    if any(e >= cfg.collar_length / 6.0 for e in eps_list):
        raise ConfigError("epsilon_list: every epsilon must be below collar_length/6")
    fiber = build_spectrum(cfg.fiber, "fiber", count=4)
    lambda1 = fiber.entries[1][0]
    try:
        bounds = [lower_bound_C(eps, cfg.delta, cfg.n, cfg.k, lambda1) for eps in eps_list]
    except SteklovError as exc:
        raise ConfigError(f"n, k, delta: {exc}") from None
    rows = []
    for eps, bound in zip(eps_list, bounds):
        started = time.perf_counter()
        try:
            profile = WarpProfile(eps, cfg.delta, cfg.collar_length, symmetric=True)
            spec = metric_spec_from_config(cfg, warp=profile)
            result = sigma1_construction(spec, n_elements=cfg.mesh)
            mesh_size = len(graded_mesh(cfg.collar_length, cfg.mesh,
                                        profile.transition_intervals())) - 1
        except SteklovError as exc:
            raise NumericError(f"sweep failed at epsilon={eps}: {exc}") from exc
        rows.append(
            SweepRow(
                epsilon=eps,
                sigma1=result.value,
                active_branch=result.active_branch,
                lower_bound=bound,
                mesh_size=mesh_size,
                runtime_ms=1000.0 * (time.perf_counter() - started),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# dimension-necessity check (surfaces)


@dataclass(frozen=True)
class KokarevResult:
    passed: bool
    product: float
    bound: float
    ratio: float


def kokarev_check(sigma1: float, boundary_length: float, genus: int) -> KokarevResult:
    """Surface bound sigma1 * L(boundary) <= 8 pi (genus + 1), with a 1e-6 slack."""
    if genus < 0:
        raise DomainError("genus must be nonnegative")
    bound = 8.0 * math.pi * (genus + 1)
    product = sigma1 * boundary_length
    return KokarevResult(
        passed=product <= bound * (1.0 + 1e-6),
        product=product,
        bound=bound,
        ratio=product / bound,
    )


@dataclass(frozen=True)
class KokarevRow:
    epsilon: float
    sigma1: float
    boundary_length: float
    check: KokarevResult


def run_kokarev_sweep(cfg: ExperimentConfig) -> list[KokarevRow]:
    """2D sweep (interval base, circle fiber) with the surface bound per epsilon.

    The warped surfaces here have n = k = 1, where the construction must not
    diverge; every row is expected to satisfy the bound.
    """
    eps_list = cfg.epsilon_list or []
    if any(e >= cfg.collar_length / 6.0 for e in eps_list):
        raise ConfigError("epsilon_list: every epsilon must be below collar_length/6")
    if cfg.n != 1 or cfg.k != 1:
        raise ConfigError("n, k: the surface check runs with n = k = 1")
    if not 0.0 < (cfg.delta or 0.0) < 1.0:
        raise ConfigError("delta: must lie in (0, 1)")
    fiber_desc = cfg.fiber or {}
    if fiber_desc.get("kind") != "circle":
        raise ConfigError("fiber.kind: the surface check needs a circle fiber")
    fiber_length = float(fiber_desc["length"])
    rows = []
    for eps in eps_list:
        profile = WarpProfile(eps, cfg.delta, cfg.collar_length, symmetric=True)
        spec = WarpedMetricSpec(
            base_dim=1,
            fiber_dim=1,
            warp=profile,
            base=BaseGeometry(point_spectrum(), cfg.collar_length, cfg.steklov_ends),
            fiber=circle_spectrum(fiber_length, 8),
            mode="volume_preserving",
        )
        result = sigma1_construction(spec, n_elements=cfg.mesh)
        ends = {"both": [0.0, cfg.collar_length], "left": [0.0], "right": [cfg.collar_length]}
        circles = profile.eval(np.array(ends[cfg.steklov_ends])) * fiber_length
        boundary_length = float(np.sum(circles))
        rows.append(
            KokarevRow(eps, result.value, boundary_length,
                       kokarev_check(result.value, boundary_length, cfg.genus))
        )
    return rows


# ---------------------------------------------------------------------------
# quasi-isometry check


@dataclass(frozen=True)
class QuasiIsoResult:
    passed: bool
    ratio_bound: float  # C^(2m+1)
    coefficient_ratio: float  # C
    eigen_ratios: tuple[float, ...]
    first_violation: str | None


def metric_coefficient_ratio(
    spec1: WarpedMetricSpec, spec2: WarpedMetricSpec, samples: int = 512
) -> float:
    """Max pointwise ratio of corresponding metric coefficients over sampled t.

    The coefficients are powers h^p (p = 2 on the fiber, -2k/n or 0 on the
    base), so the ratio is exp(max |p| * max_t |ln h1 - ln h2|).
    """
    if spec1.base.collar_length != spec2.base.collar_length:
        raise DomainError("specs must live on the same base interval")
    if spec1.mode != spec2.mode or spec1.base_dim != spec2.base_dim \
            or spec1.fiber_dim != spec2.fiber_dim:
        raise DomainError("specs must describe metrics on the same underlying product")
    n, k = spec1.base_dim, spec1.fiber_dim
    top_power = max(2.0, 2.0 * k / n) if spec1.mode == "volume_preserving" else 2.0
    ts = np.linspace(0.0, spec1.base.collar_length, samples)
    gap = np.abs(log_value(spec1.warp, ts) - log_value(spec2.warp, ts))
    return float(np.exp(top_power * gap.max()))


# slack on the ratio bound of quasi_iso_check, for the roundoff of two solves
_QUASI_ISO_SLACK = 1e-9


def quasi_iso_check(
    spec1: WarpedMetricSpec,
    spec2: WarpedMetricSpec,
    dim_m: int,
    k_max: int,
    *,
    n_elements: int = 400,
) -> QuasiIsoResult:
    """Eigenvalue-ratio bound for quasi-isometric metrics: ratios within C^(2m+1).

    C is metric_coefficient_ratio at its default sampling. The zero
    eigenvalue (index 0) is excluded; indices 1..k_max are compared.
    """
    C = metric_coefficient_ratio(spec1, spec2)
    power = C ** (2 * dim_m + 1)
    v1, _ = first_eigenvalues(spec1, k_max + 1, n_elements=n_elements)
    v2, _ = first_eigenvalues(spec2, k_max + 1, n_elements=n_elements)
    ratios = []
    first_violation = None
    for idx in range(1, k_max + 1):
        r = float(v1[idx] / v2[idx])
        ratios.append(r)
        ok = 1.0 / power - _QUASI_ISO_SLACK <= r <= power + _QUASI_ISO_SLACK
        if not ok and first_violation is None:
            first_violation = (
                f"k={idx}: ratio {r:.8g} outside [{1.0 / power:.8g}, {power:.8g}]"
            )
    return QuasiIsoResult(
        passed=first_violation is None,
        ratio_bound=power,
        coefficient_ratio=C,
        eigen_ratios=tuple(ratios),
        first_violation=first_violation,
    )


def random_profile_pairs(cfg: ExperimentConfig):
    """Seeded random plateau-profile pairs on the 2D cylinder for the ratio check."""
    rng = np.random.default_rng(cfg.seed)
    fiber = circle_spectrum(TWO_PI, 8)
    for _ in range(cfg.pairs):
        pair = []
        for _ in range(2):
            eps = float(rng.uniform(0.08, 0.15))
            delta = float(rng.uniform(0.55, 0.9))
            profile = WarpProfile(eps, delta, cfg.collar_length, symmetric=True)
            pair.append(
                WarpedMetricSpec(
                    base_dim=1,
                    fiber_dim=1,
                    warp=profile,
                    base=BaseGeometry(point_spectrum(), cfg.collar_length, "both"),
                    fiber=fiber,
                    mode="volume_preserving",
                )
            )
        yield tuple(pair)


# ---------------------------------------------------------------------------
# volume normalization


def normalize_volume(
    integrand: np.ndarray,
    weights: np.ndarray,
    phi: np.ndarray,
    dim: int,
    target: float,
    *,
    c_bound: float = 1e3,
    rel_tol: float = 1e-10,
) -> float:
    """Conformal exponent c with quadrature of integrand * e^(c * dim * phi / 2) = target.

    phi must be nonnegative and vanish on part of the domain; as c -> -inf
    the volume tends to the measure of {phi = 0}, so targets at or below
    that floor are infeasible. Root found by bracket expansion and bisection.
    """
    integrand = np.asarray(integrand, dtype=float)
    weights = np.asarray(weights, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if integrand.shape != weights.shape or integrand.shape != phi.shape:
        raise DomainError("integrand, weights and phi must share a shape")
    if np.any(integrand <= 0.0) or np.any(weights <= 0.0):
        raise DomainError("integrand samples and quadrature weights must be positive")
    if np.any(phi < 0.0):
        raise DomainError("phi must be nonnegative")
    if target <= 0.0:
        raise DomainError("target volume must be positive")
    dv = integrand * weights
    floor = float(dv[phi == 0.0].sum())

    def volume(c: float) -> float:
        return float(np.sum(dv * np.exp(c * dim * phi / 2.0)))

    if not np.any(phi > 0.0):
        if abs(volume(0.0) - target) <= rel_tol * target:
            return 0.0
        raise InfeasibleError("phi vanishes everywhere; volume is fixed at the floor")
    if target <= floor * (1.0 + 1e-15):
        raise InfeasibleError(
            f"target {target} is at or below the phi=0 floor volume {floor}"
        )

    lo, hi = 0.0, 0.0
    if volume(0.0) < target:
        hi = 1.0
        while volume(hi) < target:
            hi *= 2.0
            if hi > c_bound:
                raise NumericError(f"no bracket for c within |c| <= {c_bound}")
    else:
        lo = -1.0
        while volume(lo) > target:
            lo *= 2.0
            if -lo > c_bound:
                raise NumericError(f"no bracket for c within |c| <= {c_bound}")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        value = volume(mid)
        if abs(value - target) <= rel_tol * target:
            return mid
        if value < target:
            lo = mid
        else:
            hi = mid
    raise NumericError("bisection failed to reach the requested residual")


def ramp_phi_instance(samples: int, collar_fraction: float):
    """Synthetic 1D instance: trapezoid weights on [0,1], phi = 0 on the collar.

    Mirrors the conformal-normalization setup: phi vanishes on [0, a] and
    grows quadratically beyond, with unit integrand.
    """
    if not 0.0 < collar_fraction < 1.0:
        raise DomainError("collar_fraction must lie in (0, 1)")
    x = np.linspace(0.0, 1.0, samples)
    w = np.full(samples, 1.0 / (samples - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    phi = np.where(x > collar_fraction, (x - collar_fraction) ** 2, 0.0)
    return np.ones(samples), w, phi


# ---------------------------------------------------------------------------
# CSV serialization


def spectrum_csv_lines(spectrum: SpectrumWithProvenance) -> list[str]:
    """One row per source: value, source multiplicity, fiber eigenvalue, mode, branch."""
    lines = [SPECTRUM_CSV_HEADER]
    for entry in spectrum.entries:
        for s in entry.sources:
            lines.append(
                ",".join(
                    (
                        sig12(entry.value),
                        str(s.multiplicity),
                        sig12(s.fiber_value),
                        sig12(s.cross_value),
                        str(s.branch),
                    )
                )
            )
    return lines


def sweep_csv_lines(rows: list[SweepRow]) -> list[str]:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                (
                    sig12(r.epsilon),
                    sig12(r.sigma1),
                    r.active_branch,
                    sig12(r.lower_bound),
                    str(r.mesh_size),
                    sig12(r.runtime_ms),
                )
            )
        )
    return lines


def kokarev_csv_lines(rows: list[KokarevRow]) -> list[str]:
    lines = [KOKAREV_CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                (
                    sig12(r.epsilon),
                    sig12(r.sigma1),
                    sig12(r.boundary_length),
                    sig12(r.check.product),
                    sig12(r.check.bound),
                    "1" if r.check.passed else "0",
                )
            )
        )
    return lines


def oracle_csv_lines(values: np.ndarray) -> list[str]:
    lines = ["value"]
    lines.extend(sig12(v) for v in values)
    return lines

"""Reproducible experiment drivers: sweeps, bound checks, volume normalization.

Configs are flat JSON records validated against a closed field set, so a
typo fails loudly with the offending field path. All tabular output uses
12 significant digits and a fixed row order; runtime columns are the only
nondeterministic content.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import Field, dataclass, field, fields as dataclass_fields
from typing import Iterable, Iterator

import numpy as np

from .assembler import first_eigenvalues_each, lower_bound_C, sigma1_construction, surface_spec
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
from .sturm import BaseGeometry

SPECTRUM_CSV_HEADER = "value,multiplicity,lambda_fiber,mu_mode,branch"
SWEEP_CSV_HEADER = "epsilon,sigma1,active_branch,lower_bound_C,mesh_size,runtime_ms"
KOKAREV_CSV_HEADER = "epsilon,sigma1,boundary_length,product,bound,passed"


def sig12(x: float) -> str:
    """Fixed float formatting: 12 significant digits."""
    return format(float(x), ".12g")


# ---------------------------------------------------------------------------
# configuration

EXPERIMENTS = ("spectrum", "oracle", "sweep", "kokarev", "quasi_iso", "normalize_volume", "verify")


def _row(default, readers: str, rule=None, *, required: bool = False):
    """A row of the config table: the field's default, the experiments that read it, its rule.

    The rule maps a config whose fields have their declared types to the
    refusal message, or to None to accept.
    """
    metadata = {"readers": tuple(readers.split()), "required": required, "rule": rule}
    if isinstance(default, dict):
        return field(default_factory=lambda: dict(default), metadata=metadata)
    return field(default=default, metadata=metadata)


def _unless(ok: bool, message: str) -> str | None:
    return None if ok else message


def _epsilon_rule(cfg: ExperimentConfig) -> str | None:
    eps = cfg.epsilon_list
    if cfg.experiment == "sweep" and any(b >= a for a, b in zip(eps, eps[1:])):
        return "epsilon_list: must be strictly descending"
    return _unless(all(0.0 < e < cfg.collar_length / 6.0 for e in eps),
                   "epsilon_list: every epsilon must lie in (0, collar_length/6)")


# a larger size is refused by name here, not by numpy when it fails to allocate the arrays
_MAX_MESH = 2**20
_MAX_N_THETA = 2**12
_MAX_SAMPLES = 2**24


def _mesh_rule(cfg: ExperimentConfig) -> str | None:
    low, unit = (32, "axial nodes") if cfg.experiment == "oracle" else (16, "elements")
    return _unless(low <= cfg.mesh <= _MAX_MESH,
                   f"mesh: must be at least {low} {unit} and at most {_MAX_MESH}")


def _count_rule(cfg: ExperimentConfig) -> str | None:
    n_boundary = cfg.n_theta * (2 if cfg.steklov_ends == "both" else 1)
    return _unless(1 <= cfg.count <= n_boundary,
                   f"count: must lie in [1, {n_boundary}] (boundary nodes)")


@dataclass
class ExperimentConfig:
    """Validated experiment description, read from a flat JSON record.

    Its fields are the config table, one _row each; __post_init__ applies it.
    fiber and cross_section are spectrum descriptors and coefficient a warp
    descriptor; build_spectrum and build_warp check them.
    """

    experiment: str
    n: int = _row(1, "spectrum sweep", lambda c: _unless(c.n >= 1, "n: must be at least 1"))
    k: int = _row(1, "spectrum sweep", lambda c: _unless(c.k >= 1, "k: must be at least 1"))
    collar_length: float = _row(1.0, "spectrum oracle sweep kokarev quasi_iso", lambda c: _unless(
        0.0 < c.collar_length < math.inf, "collar_length: must be positive and finite"))
    fiber: dict = _row({"kind": "circle", "length": TWO_PI}, "spectrum oracle sweep kokarev")
    cross_section: dict | None = _row(None, "spectrum sweep")
    steklov_ends: str = _row("both", "spectrum oracle sweep kokarev", lambda c: _unless(
        c.steklov_ends in ("both", "left", "right"),
        "steklov_ends: expected 'both', 'left' or 'right'"))
    mode: str = _row("plain_warp", "spectrum", lambda c: _unless(
        c.mode in ("plain_warp", "volume_preserving"),
        "mode: expected 'plain_warp' or 'volume_preserving'"))
    coefficient: dict = _row({"kind": "unit"}, "spectrum oracle")
    epsilon_list: list[float] | None = _row(None, "sweep kokarev", _epsilon_rule, required=True)
    # the sweep's window for delta depends on n and k; run_sweep's lower_bound_C checks it
    delta: float | None = _row(None, "sweep kokarev", lambda c: _unless(
        c.experiment != "kokarev" or 0.0 < c.delta < 1.0, "delta: must lie in (0, 1)"),
        required=True)
    mesh: int = _row(400, "spectrum oracle sweep kokarev quasi_iso verify", _mesh_rule)
    n_theta: int = _row(64, "oracle", lambda c: _unless(
        16 <= c.n_theta <= _MAX_N_THETA and c.n_theta % 2 == 0,
        f"n_theta: must be an even integer of at least 16 and at most {_MAX_N_THETA}"))
    top: float | None = _row(None, "spectrum", lambda c: _unless(
        c.top > 0.0, "top: must be positive"), required=True)
    count: int | None = _row(None, "oracle", _count_rule, required=True)
    seed: int = _row(0, "quasi_iso verify", lambda c: _unless(
        c.seed >= 0, "seed: must be nonnegative"))
    out: str | None = _row(None, "spectrum oracle sweep kokarev quasi_iso")
    target: float | None = _row(None, "normalize_volume", lambda c: _unless(
        c.target > 0.0, "target: must be positive"), required=True)
    dim: int | None = _row(None, "normalize_volume", lambda c: _unless(
        c.dim >= 1, "dim: must be at least 1"), required=True)
    samples: int = _row(512, "normalize_volume", lambda c: _unless(
        2 <= c.samples <= _MAX_SAMPLES, f"samples: must be at least 2 and at most {_MAX_SAMPLES}"))
    collar_fraction: float = _row(0.25, "normalize_volume", lambda c: _unless(
        0.0 < c.collar_fraction < 1.0, "collar_fraction: must lie in (0, 1)"))
    # no pair, or no eigenvalue compared, would pass without checking anything
    pairs: int = _row(20, "quasi_iso", lambda c: _unless(c.pairs >= 1, "pairs: must be at least 1"))
    k_max: int = _row(5, "quasi_iso", lambda c: _unless(c.k_max >= 1, "k_max: must be at least 1"))

    def __post_init__(self) -> None:
        """Coerce each typed field, check the required ones, then run the rules of the read ones."""
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment: expected one of {EXPERIMENTS}, got {self.experiment!r}")
        rows = [f for f in dataclass_fields(self) if f.metadata]
        for f in rows:
            setattr(self, f.name, _coerce(f, getattr(self, f.name)))
        read = [f for f in rows if self.experiment in f.metadata["readers"]]
        for f in read:
            if f.metadata["required"] and getattr(self, f.name) is None:
                raise ConfigError(f"{f.name}: required for experiment '{self.experiment}'")
        for rule in [f.metadata["rule"] for f in read if f.metadata["rule"]]:
            message = rule(self)
            if message is not None:
                raise ConfigError(message)


def _is_number(value) -> bool:
    """A JSON number that a float holds: an int or a float, not a bool, not NaN."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return not math.isnan(value)
    except OverflowError:  # an int beyond the float range
        return False


def _coerce(f: Field, value):
    """`value` as field `f`'s declared type; descriptor fields pass unchecked."""
    kind, _, optional = f.type.partition(" | ")
    if value is None and optional:
        return value
    if kind == "str" and not isinstance(value, str):
        raise ConfigError(f"{f.name}: expected a string")
    if kind == "float":
        if not _is_number(value):
            raise ConfigError(f"{f.name}: expected a number")
        return float(value)
    if kind == "int" and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(f"{f.name}: expected an integer")
    if kind == "list[float]":
        if not (isinstance(value, list) and value and all(map(_is_number, value))):
            raise ConfigError(f"{f.name}: expected a nonempty list of numbers")
        return [float(e) for e in value]
    return value


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a JSON record, refusing any field its experiment does not read."""
    readers = {f.name: f.metadata.get("readers") for f in dataclass_fields(ExperimentConfig)}
    unknown = sorted(set(raw) - set(readers))
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    if "experiment" not in raw:
        raise ConfigError("missing required field 'experiment'")
    experiment = raw["experiment"]
    # ExperimentConfig names an unknown experiment; a field set for a known one and never
    # read by it would be silently ignored
    unread = sorted(name for name in set(raw) - {"experiment"}
                    if experiment in EXPERIMENTS and experiment not in readers[name])
    if unread:
        raise ConfigError("; ".join(
            f"{name}: read only by experiment{'s' if len(readers[name]) > 1 else ''} "
            f"{', '.join(repr(e) for e in readers[name])}, not '{experiment}'" for name in unread
        ))
    return ExperimentConfig(**raw)


def build_spectrum(desc: dict | None, path: str) -> ClosedSpectrum:
    """Spectrum from a descriptor like {"kind": "circle", "length": 6.283}.

    Kinds and their fields: circle (length), flat_torus (l1, l2), point (no
    fields; None gives it too) and explicit (entries, a list of [value,
    multiplicity] pairs, read as incomplete). A generated kind caches its
    first two entries, the sweep's lambda1 among them; ClosedSpectrum.take
    reads the rest from its stream.
    """
    if desc is None:
        return point_spectrum()
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError(f"{path}: expected an object with a 'kind' field")
    kind = desc["kind"]
    try:
        if kind == "circle":
            return circle_spectrum(float(desc["length"]), 2)
        if kind == "flat_torus":
            return flat_torus_spectrum(float(desc["l1"]), float(desc["l2"]), 2)
        if kind == "point":
            return point_spectrum()
        if kind == "explicit":
            return explicit_spectrum(desc["entries"])
    except KeyError as exc:
        raise ConfigError(f"{path}.{exc.args[0]}: missing") from None
    except (TypeError, ValueError, OverflowError) as exc:  # DomainError is a ValueError
        raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(f"{path}.kind: unknown spectrum kind {kind!r}")


def build_warp(desc: dict, collar_length: float) -> Warp:
    """Warp from the config's coefficient: unit, bump (1 + t(L-t)), or a plateau profile."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError("coefficient: expected an object with a 'kind' field")
    kind = desc["kind"]
    if kind == "unit":
        return lambda t: 1.0
    if kind == "bump":
        return lambda t: 1.0 + t * (collar_length - t)
    if kind == "plateau":
        symmetric = desc.get("symmetric", True)
        if not isinstance(symmetric, bool):  # a string such as "false" is truthy
            raise ConfigError("coefficient.symmetric: expected true or false")
        try:
            return WarpProfile(
                float(desc["epsilon"]), float(desc["delta"]), collar_length, symmetric
            )
        except KeyError as exc:
            raise ConfigError(f"coefficient.{exc.args[0]}: missing") from None
        except (TypeError, ValueError, OverflowError) as exc:  # DomainError is a ValueError
            raise ConfigError(f"coefficient: {exc}") from None
    raise ConfigError(f"coefficient.kind: unknown coefficient kind {kind!r}")


def metric_spec_from_config(cfg: ExperimentConfig, warp: Warp, mode: str) -> WarpedMetricSpec:
    base = BaseGeometry(
        cross_section=build_spectrum(cfg.cross_section, "cross_section"),
        collar_length=cfg.collar_length,
        steklov_ends=cfg.steklov_ends,
    )
    return WarpedMetricSpec(
        base_dim=cfg.n,
        fiber_dim=cfg.k,
        warp=warp,
        base=base,
        fiber=build_spectrum(cfg.fiber, "fiber"),
        mode=mode,
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

    The config's rules hold the epsilons descending in (0, collar_length/6);
    n, k and delta must lie where lower_bound_C holds, so the gap diverges.
    One row per epsilon, in input order.
    """
    fiber = build_spectrum(cfg.fiber, "fiber")
    if len(fiber.entries) < 2:
        raise ConfigError("fiber: the sweep needs a first nonzero eigenvalue lambda1")
    lambda1 = fiber.entries[1][0]
    try:
        bounds = [lower_bound_C(eps, cfg.delta, cfg.n, cfg.k, lambda1)
                  for eps in cfg.epsilon_list]
    except SteklovError as exc:
        raise ConfigError(f"n, k, delta: {exc}") from None
    rows = []
    for eps, bound in zip(cfg.epsilon_list, bounds):
        started = time.perf_counter()
        try:
            profile = WarpProfile(eps, cfg.delta, cfg.collar_length, symmetric=True)
            spec = metric_spec_from_config(cfg, profile, "volume_preserving")
            result = sigma1_construction(spec, n_elements=cfg.mesh)
        except ConfigError:  # a refused descriptor, built before the first solve
            raise
        except SteklovError as exc:
            raise NumericError(f"sweep failed at epsilon={eps}: {exc}") from exc
        rows.append(
            SweepRow(
                epsilon=eps,
                sigma1=result.value,
                active_branch=result.active_branch,
                lower_bound=bound,
                mesh_size=result.n_elements,
                runtime_ms=1000.0 * (time.perf_counter() - started),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# dimension-necessity check (surfaces)


@dataclass(frozen=True)
class KokarevRow:
    """One surface-sweep epsilon, checked against Kokarev's sigma1 * L(boundary) <= 8 pi.

    Kokarev's bound is 8 pi (genus + 1); the annulus [0, L] x S^1 has genus 0.
    """

    epsilon: float
    sigma1: float
    boundary_length: float
    product: float
    bound: float
    passed: bool


def run_kokarev_sweep(cfg: ExperimentConfig) -> list[KokarevRow]:
    """2D sweep (interval base, circle fiber) with the surface bound per epsilon.

    The warped surfaces here have n = k = 1, where the construction must not
    diverge; every row is expected to satisfy the bound.
    """
    bound = 8.0 * math.pi
    fiber = build_spectrum(cfg.fiber, "fiber")
    if fiber.kind != "circle":
        raise ConfigError("fiber.kind: the surface check needs a circle fiber")
    fiber_length = fiber.params[0]
    rows = []
    for eps in cfg.epsilon_list:
        profile = WarpProfile(eps, cfg.delta, cfg.collar_length, symmetric=True)
        spec = surface_spec(
            profile, cfg.collar_length, fiber_length, cfg.steklov_ends, "volume_preserving"
        )
        result = sigma1_construction(spec, n_elements=cfg.mesh)
        ends = {"both": [0.0, cfg.collar_length], "left": [0.0], "right": [cfg.collar_length]}
        circles = np.exp(profile.log_eval(np.array(ends[cfg.steklov_ends]))) * fiber_length
        boundary_length = float(np.sum(circles))
        product = result.value * boundary_length
        rows.append(
            KokarevRow(eps, result.value, boundary_length, product, bound,
                       passed=product <= bound * (1.0 + 1e-6))  # a 1e-6 relative slack
        )
    return rows


# ---------------------------------------------------------------------------
# quasi-isometry check


@dataclass(frozen=True)
class QuasiIsoResult:
    passed: bool
    ratio_bound: float  # C^(2m+1)
    coefficient_ratio: float  # C
    first_violation: str | None
    max_ratio: float  # the largest max(r, 1/r) over the compared eigenvalue ratios r


# the points of [0, L] at which metric_coefficient_ratio compares the warps
_RATIO_SAMPLES = 512


def metric_coefficient_ratio(spec1: WarpedMetricSpec, spec2: WarpedMetricSpec) -> float:
    """Max pointwise ratio of corresponding metric coefficients over _RATIO_SAMPLES points t.

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
    ts = np.linspace(0.0, spec1.base.collar_length, _RATIO_SAMPLES)
    gap = np.abs(log_value(spec1.warp, ts) - log_value(spec2.warp, ts))
    return float(np.exp(top_power * gap.max()))


# slack on the ratio bound of quasi_iso_check, for the roundoff of two solves
_QUASI_ISO_SLACK = 1e-9

# C^(2m+1) is raised only where its logarithm stays this far below that of
# the largest float, a margin far above the roundoff of (2m+1) ln C
_LOG_MAX_BOUND = math.log(sys.float_info.max) - 1e-9


def quasi_iso_check(
    spec1: WarpedMetricSpec, spec2: WarpedMetricSpec, k_max: int, *, n_elements: int = 400
) -> QuasiIsoResult:
    """Eigenvalue-ratio bound for quasi-isometric metrics: ratios within C^(2m+1).

    C is metric_coefficient_ratio, and m = n + k the dimension of the warped
    product the specs share (Colbois, El Soufi and Girouard, J. Funct. Anal.
    261, 2011). The zero eigenvalue (index 0) is excluded; indices 1..k_max
    are compared, so k_max must be at least 1. A bound C^(2m+1) past the
    largest float is inf: the pair constrains no ratio, and passes.
    """
    (result,) = _ratio_checks([(spec1, spec2)], k_max, n_elements)
    return result


def _ratio_checks(pairs: Iterable[tuple[WarpedMetricSpec, WarpedMetricSpec]], k_max: int,
                  n_elements: int) -> Iterator[QuasiIsoResult]:
    """quasi_iso_check of each (spec1, spec2) pair in turn, with all specs solved in one call.

    Each pair's C is taken, which checks that the specs share a product,
    before its specs are solved.
    """
    if k_max < 1:
        raise DomainError("k_max must be at least 1")
    checked, solving = itertools.tee(
        (spec1, spec2, metric_coefficient_ratio(spec1, spec2)) for spec1, spec2 in pairs)
    solved = first_eigenvalues_each((spec for *pair, _ in solving for spec in pair), k_max + 1,
                                    n_elements=n_elements)
    for (spec1, _, C), (v1, _), (v2, _) in zip(checked, solved, solved):
        exponent = 2 * (spec1.base_dim + spec1.fiber_dim) + 1
        power = C**exponent if exponent * math.log(C) < _LOG_MAX_BOUND else math.inf
        first_violation = None
        max_ratio = 1.0
        for idx in range(1, k_max + 1):
            r = float(v1[idx] / v2[idx])
            max_ratio = max(max_ratio, r, 1.0 / r)
            ok = 1.0 / power - _QUASI_ISO_SLACK <= r <= power + _QUASI_ISO_SLACK
            if not ok and first_violation is None:
                first_violation = (
                    f"k={idx}: ratio {r:.8g} outside [{1.0 / power:.8g}, {power:.8g}]"
                )
        yield QuasiIsoResult(
            passed=first_violation is None,
            ratio_bound=power,
            coefficient_ratio=C,
            first_violation=first_violation,
            max_ratio=max_ratio,
        )


def random_profile_pairs(cfg: ExperimentConfig):
    """Seeded random plateau-profile pairs on the 2D cylinder for the ratio check."""
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.pairs):
        pair = []
        for _ in range(2):
            eps = float(rng.uniform(0.08, 0.15))
            delta = float(rng.uniform(0.55, 0.9))
            profile = WarpProfile(eps, delta, cfg.collar_length, symmetric=True)
            pair.append(
                surface_spec(profile, cfg.collar_length, TWO_PI, "both", "volume_preserving")
            )
        yield tuple(pair)


def run_quasi_iso(cfg: ExperimentConfig) -> list[QuasiIsoResult]:
    """quasi_iso_check on each of the config's random pairs, at its mesh and k_max.

    All 2 x pairs specs go to one first_eigenvalues_each call, which reduces
    the first walk steps of many together; the pairs are drawn and solved
    lazily, so memory does not grow with their number beyond the results.
    """
    return list(_ratio_checks(random_profile_pairs(cfg), cfg.k_max, cfg.mesh))


# ---------------------------------------------------------------------------
# volume normalization


def normalize_volume(
    integrand: np.ndarray, weights: np.ndarray, phi: np.ndarray, dim: int, target: float
) -> tuple[float, float]:
    """Conformal exponent c with quadrature of integrand * e^(c * dim * phi / 2) = target.

    Returns c and the volume V(c) there. phi must be nonnegative and vanish
    on part of the domain; as c -> -inf the volume falls to the measure of
    {phi = 0}, so targets at or below that floor are infeasible. The excess
    g(c) = ln(V(c) - floor) is a log-sum-exp of terms increasing and affine
    in c, so it is increasing and convex: its tangents lie below it. Newton's
    method on g(c) = ln(target - floor) from c = 0 therefore lands at or right
    of the root after one step and then falls to it; it stops at the first
    iterate that does not fall. The log-sum-exp keeps every exponential in range.
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
    if dim < 1:
        raise DomainError("dim must be at least 1")
    dv = integrand * weights
    floor = float(dv[phi == 0.0].sum())
    grows = phi > 0.0
    if not np.any(grows):
        raise InfeasibleError("phi vanishes everywhere; volume is fixed at the floor")
    if target <= floor:
        raise InfeasibleError(f"target {target} is at or below the phi=0 floor volume {floor}")
    log_dv, rate = np.log(dv[grows]), dim * phi[grows] / 2.0

    def excess(c: float) -> tuple[float, float]:
        """g(c) and its slope g'(c), the softmax-weighted mean of the rates."""
        z = log_dv + c * rate
        top = float(z.max())
        terms = np.exp(z - top)
        total = float(terms.sum())
        return top + math.log(total), float(terms @ rate) / total

    goal = math.log(target - floor)
    g, slope = excess(0.0)
    c = (goal - g) / slope
    while math.isfinite(c):
        g, slope = excess(c)
        after = c - (g - goal) / slope
        if not after < c:
            return c, floor + math.exp(g)
        c = after
    raise NumericError(f"no finite c reaches the target {target}")


def ramp_phi_instance(samples: int, collar_fraction: float):
    """Synthetic 1D instance: trapezoid weights on [0,1], phi = 0 on the collar.

    Mirrors the conformal-normalization setup: phi vanishes on [0, a] and
    grows quadratically beyond, with unit integrand.
    """
    if samples < 2:
        raise DomainError("samples must be at least 2")
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


class _Sig12(dict):
    """sig12 of each value looked up, formatted once.

    -0.0 and 0.0 are one key but two texts, so a zero is formatted each time.
    """

    def __missing__(self, x: float) -> str:
        text = sig12(x)
        if x:
            self[x] = text
        return text


def spectrum_csv_lines(spectrum: SpectrumWithProvenance) -> list[str]:
    """One row per source: value, source multiplicity, fiber eigenvalue, mode, branch."""
    lines, text = [SPECTRUM_CSV_HEADER], _Sig12()
    for anchor, _, rows in spectrum.groups():
        value = sig12(anchor)
        lines += [
            f"{value},{fiber_mult * cross_mult},{text[fiber_value]},{text[cross_value]},{branch}"
            for _, fiber_value, cross_value, branch, fiber_mult, cross_mult in rows
        ]
    return lines


def sweep_csv_lines(rows: list[SweepRow]) -> list[str]:
    return [SWEEP_CSV_HEADER] + [
        f"{sig12(r.epsilon)},{sig12(r.sigma1)},{r.active_branch},{sig12(r.lower_bound)},"
        f"{r.mesh_size},{sig12(r.runtime_ms)}"
        for r in rows
    ]


def kokarev_csv_lines(rows: list[KokarevRow]) -> list[str]:
    return [KOKAREV_CSV_HEADER] + [
        f"{sig12(r.epsilon)},{sig12(r.sigma1)},{sig12(r.boundary_length)},"
        f"{sig12(r.product)},{sig12(r.bound)},{int(r.passed)}"
        for r in rows
    ]


def oracle_csv_lines(values: np.ndarray) -> list[str]:
    return ["value"] + [sig12(v) for v in values]

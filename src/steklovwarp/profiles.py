"""Radial warping profiles and warped-metric descriptions.

A profile h(t) on a collar [0, L] takes the value 1 near the boundary,
drops to epsilon^delta on [epsilon, 2*epsilon], plateaus at epsilon^-2 away
from the collar, and is glued with quintic C^2 transitions in log h. A
symmetric profile is a function of the distance min(t, L - t) to the
boundary, so both collar ends look the same.

Solvers accept either a WarpProfile or any positive callable h(t); the
helpers at the bottom give a uniform view of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

from .errors import DomainError, HypothesisViolationError, UnsupportedModeError
from .spectra import ClosedSpectrum

CoefficientFn = Callable[[float], float]

SERIAL_FIELDS = ("epsilon", "delta", "collar_length", "symmetric")


def _smoothstep(x: float) -> float:
    """Quintic ramp with vanishing first and second derivatives at 0 and 1."""
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


@dataclass(frozen=True)
class WarpProfile:
    """Plateau warping function h(t) of a collar, evaluated lazily from parameters."""

    epsilon: float
    delta: float
    collar_length: float
    symmetric: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"delta must lie in (0, 1), got {self.delta}")
        if self.collar_length <= 0.0:
            raise DomainError("collar_length must be positive")
        if not 0.0 < self.epsilon < self.collar_length / 6.0:
            raise HypothesisViolationError(
                f"epsilon must satisfy 0 < epsilon < collar_length/6, "
                f"got epsilon={self.epsilon}, collar_length={self.collar_length}"
            )

    @cached_property
    def mid_value(self) -> float:
        return self.epsilon**self.delta

    @cached_property
    def far_value(self) -> float:
        return self.epsilon**-2.0

    @cached_property
    def _log_mid(self) -> float:
        return self.delta * math.log(self.epsilon)

    @cached_property
    def _log_far(self) -> float:
        return -2.0 * math.log(self.epsilon)

    def _distance_to_boundary(self, t: float) -> float:
        if t < 0.0 or t > self.collar_length:
            raise DomainError(
                f"t={t} outside the collar [0, {self.collar_length}]"
            )
        return min(t, self.collar_length - t) if self.symmetric else t

    def log_eval(self, t: float) -> float:
        """ln h(t); plateau values are exact constants, transitions quintic in log."""
        s = self._distance_to_boundary(t)
        eps = self.epsilon
        if s <= eps / 2.0:
            return 0.0
        if s < eps:
            return self._log_mid * _smoothstep((s - eps / 2.0) / (eps / 2.0))
        if s <= 2.0 * eps:
            return self._log_mid
        if s < 3.0 * eps:
            rise = self._log_far - self._log_mid
            return self._log_mid + rise * _smoothstep((s - 2.0 * eps) / eps)
        return self._log_far

    def eval(self, t: float) -> float:
        """h(t), bit-exact on the closed plateau intervals.

        On the right half of a symmetric collar the plateau ends are the
        points L - c·ε, and t is compared with them directly: the rounded
        distance L - t can fall an ulp short of c·ε at t = L - c·ε.
        """
        s = self._distance_to_boundary(t)
        eps = self.epsilon
        if s < t:
            ell = self.collar_length
            near = t >= ell - eps / 2.0
            mid = ell - 2.0 * eps <= t <= ell - eps
            far = t <= ell - 3.0 * eps
        else:
            near = s <= eps / 2.0
            mid = eps <= s <= 2.0 * eps
            far = s >= 3.0 * eps
        if near:
            return 1.0
        if mid:
            return self.mid_value
        if far:
            return self.far_value
        return math.exp(self.log_eval(t))

    def eval_power(self, t: float, p: float) -> float:
        """h(t)^p computed in log space for stability across the plateau range."""
        return math.exp(p * self.log_eval(t))

    def transition_intervals(self) -> tuple[tuple[float, float], ...]:
        """Intervals where h is not constant; meshes must resolve each of them."""
        eps, ell = self.epsilon, self.collar_length
        spans = [(eps / 2.0, eps), (2.0 * eps, 3.0 * eps)]
        if self.symmetric:
            spans += [(ell - 3.0 * eps, ell - 2.0 * eps), (ell - eps, ell - eps / 2.0)]
        return tuple(spans)

    def to_record(self) -> dict:
        """Serializable record {epsilon, delta, collar_length, symmetric}."""
        return {name: getattr(self, name) for name in SERIAL_FIELDS}


def build_profile(
    epsilon: float, delta: float, collar_length: float, symmetric: bool
) -> WarpProfile:
    """Construct the plateau profile; see WarpProfile for the shape."""
    return WarpProfile(epsilon, delta, collar_length, symmetric)


def profile_from_record(record: dict) -> WarpProfile:
    unknown = set(record) - set(SERIAL_FIELDS)
    if unknown:
        raise DomainError(f"unknown profile fields: {sorted(unknown)}")
    missing = set(SERIAL_FIELDS) - set(record)
    if missing:
        raise DomainError(f"missing profile fields: {sorted(missing)}")
    return WarpProfile(
        float(record["epsilon"]),
        float(record["delta"]),
        float(record["collar_length"]),
        bool(record["symmetric"]),
    )


Warp = Union[WarpProfile, CoefficientFn]


def log_value(warp: Warp, t: float) -> float:
    if isinstance(warp, WarpProfile):
        return warp.log_eval(t)
    value = warp(t)
    if value <= 0.0:
        raise DomainError(f"warp function must be positive, got {value} at t={t}")
    return math.log(value)


def value_fn(warp: Warp) -> CoefficientFn:
    if isinstance(warp, WarpProfile):
        return warp.eval
    return warp


def power_fn(warp: Warp, p: float) -> CoefficientFn:
    """Coefficient closure t -> h(t)^p, exact 1.0 wherever h = 1."""
    if isinstance(warp, WarpProfile):
        return lambda t: warp.eval_power(t, p)
    return lambda t: math.exp(p * log_value(warp, t))


def transition_spans(warp: Warp) -> tuple[tuple[float, float], ...]:
    if isinstance(warp, WarpProfile):
        return warp.transition_intervals()
    return ()


@dataclass(frozen=True)
class WarpedMetricSpec:
    """Warped metric on base x fiber, either g_B + h^2 g_F or its volume-preserving form.

    base_dim and fiber_dim are the dimensions n and k; in volume_preserving
    mode the base part is rescaled by h^(-2k/n) so the volume element matches
    the unwarped product everywhere.
    """

    base_dim: int
    fiber_dim: int
    warp: Warp
    base: "BaseGeometry"  # noqa: F821 (defined in sturm to keep module roles aligned)
    fiber: ClosedSpectrum
    mode: str = "plain_warp"

    def __post_init__(self) -> None:
        if self.mode not in ("plain_warp", "volume_preserving"):
            raise DomainError(f"unknown metric mode {self.mode!r}")
        if self.base_dim < 1 or self.fiber_dim < 1:
            raise DomainError("base and fiber dimensions must be at least 1")


def volume_element_ratio(spec: WarpedMetricSpec, t: float) -> float:
    """Warped over product volume density, computed as h^-k * h^k without simplification.

    Only meaningful in volume_preserving mode; the plain warp scales the
    density by h^k and is rejected so callers cannot assume preservation.
    """
    if spec.mode != "volume_preserving":
        raise UnsupportedModeError(
            "volume element ratio is h^k for plain_warp, not 1; "
            "only volume_preserving mode is supported"
        )
    k = float(spec.fiber_dim)
    down = power_fn(spec.warp, -k)
    up = power_fn(spec.warp, k)
    return down(t) * up(t)

"""Radial warping profiles and warped-metric descriptions.

A profile h(t) on a collar [0, L] takes the value 1 near the boundary,
drops to epsilon^delta on [epsilon, 2*epsilon], plateaus at epsilon^-2 away
from the collar, and is glued with quintic C^2 transitions in log h. A
symmetric profile is a function of the distance min(t, L - t) to the
boundary, so both collar ends look the same.

Coefficients are array functions, so a whole mesh costs one call: an
ndarray of points in, the values there out, and a float in, a float out.
Solvers accept a WarpProfile or any positive callable h(t) of that kind; a
scalar return, as from lambda t: 1.0, is broadcast over the points. The
helpers at the bottom give a uniform view of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import DomainError, HypothesisViolationError, UnsupportedModeError
from .spectra import ClosedSpectrum

# ndarray of points -> ndarray of values; a scalar return is broadcast
CoefficientFn = Callable[[np.ndarray], np.ndarray]


def _smoothstep(x: np.ndarray) -> np.ndarray:
    """Quintic ramp, flat to second order at 0 and 1; x is clipped to [0, 1] so it stays finite."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


# h's pieces end at distance c·ε from the boundary, in the piece before (<=) or after (<)
_PIECE_ENDS = ((0.5, np.less_equal), (1.0, np.less), (2.0, np.less_equal), (3.0, np.less))


def _select(conditions: list[np.ndarray], choices: list, default: float):
    """np.select by np.where, which costs less on small arrays; a 0-d result is a float."""
    for condition, choice in zip(conditions[::-1], choices[::-1]):
        default = np.where(condition, choice, default)
    return default[()]


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

    def _pieces(self, t: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """Where the distance s to the boundary is <= ε/2, < ε, <= 2ε, < 3ε; ln h on the ramps.

        A symmetric collar compares t with its right-hand ends L - c·ε directly
        (3ε < L/2 keeps each test to one half): the rounded distance L - t can
        fall an ulp short of c·ε at t = L - c·ε.
        """
        eps, ell, log_mid = self.epsilon, self.collar_length, self._log_mid
        outside = (t < 0.0) | (t > ell)
        if outside.any():
            raise DomainError(f"t={np.extract(outside, t)[0]} outside the collar [0, {ell}]")
        ends = [(c * eps, below) for c, below in _PIECE_ENDS]
        pieces = [below(t, end) for end, below in ends]
        s = np.minimum(t, ell - t) if self.symmetric else t
        if self.symmetric:
            pieces = [left | below(ell - end, t) for left, (end, below) in zip(pieces, ends)]
        first = log_mid * _smoothstep((s - eps / 2.0) / (eps / 2.0))
        second = log_mid + (self._log_far - log_mid) * _smoothstep((s - 2.0 * eps) / eps)
        return pieces, first, second

    def log_eval(self, t):
        """ln h(t); plateau values are exact constants, transitions quintic in log."""
        pieces, first, second = self._pieces(np.asarray(t, dtype=float))
        return _select(pieces, [0.0, first, self._log_mid, second], self._log_far)

    def eval(self, t):
        """h(t), bit-exact on the closed plateau intervals."""
        pieces, first, second = self._pieces(np.asarray(t, dtype=float))
        values = [1.0, np.exp(first), self.mid_value, np.exp(second)]
        return _select(pieces, values, self.far_value)

    def transition_intervals(self) -> tuple[tuple[float, float], ...]:
        """Intervals where h is not constant; meshes must resolve each of them."""
        eps, ell = self.epsilon, self.collar_length
        spans = [(eps / 2.0, eps), (2.0 * eps, 3.0 * eps)]
        if self.symmetric:
            spans += [(ell - 3.0 * eps, ell - 2.0 * eps), (ell - eps, ell - eps / 2.0)]
        return tuple(spans)


Warp = Union[WarpProfile, CoefficientFn]


def log_value(warp: Warp, t):
    """ln h at the points t; a callable's scalar return is broadcast over them."""
    if isinstance(warp, WarpProfile):
        return warp.log_eval(t)
    value = np.broadcast_to(warp(np.asarray(t, dtype=float)), np.shape(t))
    if np.any(value <= 0.0):
        raise DomainError(f"warp function must be positive, got {value.min()}")
    return np.log(value)[()]


def value_fn(warp: Warp) -> CoefficientFn:
    """h as an array function: a profile's exact plateau values, or a callable's, broadcast."""
    if isinstance(warp, WarpProfile):
        return warp.eval
    return lambda t: np.broadcast_to(warp(t), np.shape(t))


def power_fn(warp: Warp, p: float) -> CoefficientFn:
    """Array function t -> h(t)^p, computed in log space; exact 1.0 wherever h = 1."""
    return lambda t: np.exp(p * log_value(warp, t))


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


def volume_element_ratio(spec: WarpedMetricSpec, t):
    """Warped over product volume density at the points t, computed as h^-k * h^k.

    The product is formed without simplification, so it shows the roundoff
    of the two powers.

    Only meaningful in volume_preserving mode; the plain warp scales the
    density by h^k and is rejected so callers cannot assume preservation.
    """
    if spec.mode != "volume_preserving":
        raise UnsupportedModeError(
            "volume element ratio is h^k for plain_warp, not 1; "
            "only volume_preserving mode is supported"
        )
    k = float(spec.fiber_dim)
    return power_fn(spec.warp, -k)(t) * power_fn(spec.warp, k)(t)

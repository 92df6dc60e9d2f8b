"""Radial warping profiles and warped-metric descriptions.

A profile h(t) on a collar [0, L] takes the value 1 near the boundary,
drops to epsilon^delta on [epsilon, 2*epsilon], plateaus at epsilon^-2 away
from the collar, and is glued with quintic C^2 transitions in log h. A
symmetric profile is a function of the distance min(t, L - t) to the
boundary, so both collar ends look the same.

Coefficients are array functions, so a whole mesh costs one call: an
ndarray of points in, the values there out, and a float in, a float out.

Every warp, a WarpProfile or a FunctionWarp, declares its collar_length,
whether it is symmetric, h(t) = h(L - t), its transition_intervals(), off
which ln h is an exact constant, and log_eval(t), ln h at the points t:
meshes and solvers read the declaration and never test h numerically.
log_eval is the one evaluator: every coefficient of the auxiliary problems
is a power h^p = exp(p ln h), one power_fn call gives every power a
collar needs, and every h anywhere, the oracle's and the boundary
circles' included, is exp of ln h.
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


def _on_collar(t, collar_length: float) -> np.ndarray:
    """t as a float array, refused unless every point lies on the collar [0, collar_length]."""
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    if flat.size and not (flat.min() >= 0.0 and flat.max() <= collar_length):  # NaN fails too
        bad = np.extract(~((flat >= 0.0) & (flat <= collar_length)), flat)[0]
        raise DomainError(f"t={bad} outside the collar [0, {collar_length}]")
    return t


def _smoothstep(x: np.ndarray) -> np.ndarray:
    """Quintic ramp, flat to second order at 0 and 1; x is clipped to [0, 1] so it stays finite."""
    x = np.minimum(np.maximum(x, 0.0), 1.0)
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
        if not 0.0 < self.collar_length < math.inf:  # NaN fails both comparisons
            raise DomainError("collar_length must be positive and finite")
        if not 0.0 < self.epsilon < self.collar_length / 6.0:
            raise HypothesisViolationError(
                f"epsilon must satisfy 0 < epsilon < collar_length/6, "
                f"got epsilon={self.epsilon}, collar_length={self.collar_length}"
            )

    @cached_property
    def _pieces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Left and right piece ends, ln h per piece, and the ramps' start, width, low and rise.

        The distance s to the boundary lies in piece 0 (h = 1) for s <= ε/2,
        1 (first ramp) for s < ε, 2 (mid plateau) for s <= 2ε, 3 (second
        ramp) for s < 3ε and 4 (far plateau) beyond. t is past an end e when
        t > e, so an end that belongs to the piece after it moves to the float
        below. Right ends are L - c·ε, compared with t directly since L - t can
        fall an ulp short of c·ε; 3ε < L/2 keeps them apart from the left ends.
        The accumulations keep the ends sorted, and each piece the same, where
        ends round together (ε near an ulp of L). ln h is 0, δ ln ε and
        -2 ln ε on the plateaus, and NaN, never read, on the ramps. On a ramp
        ln h = low + rise·ramp((s - start)/width); -0.0 adds as an exact no-op.
        """
        eps, ell = self.epsilon, self.collar_length
        log_mid, log_far = self.delta * math.log(eps), -2.0 * math.log(eps)
        left = np.array([0.5, 1.0, 2.0, 3.0]) * eps
        right = ell - left[::-1]
        for ends in (left, right):  # ε, 3ε, L - 2ε and L - ε/2 belong to the piece after
            ends[1::2] = np.nextafter(ends[1::2], -np.inf)
        levels = np.array([0.0, math.nan, log_mid, math.nan, log_far])
        ramps = np.array([[eps / 2.0, 2.0 * eps], [eps / 2.0, eps], [-0.0, log_mid],
                          [log_mid, log_far - log_mid]])
        return (np.maximum.accumulate(left), np.minimum.accumulate(right[::-1])[::-1],
                levels, ramps)

    def log_eval(self, t):
        """ln h(t); plateau values are exact constants, transitions quintic in log."""
        t = _on_collar(t, self.collar_length)
        flat, ell = t.reshape(-1), self.collar_length
        left, right, levels, ramps = self._pieces
        piece = np.searchsorted(left, flat)
        if self.symmetric:
            piece -= np.searchsorted(right, flat)
        out = levels[piece]
        on = (piece & 1).astype(bool)
        if on.any():
            s = flat[on]
            if self.symmetric:
                s = np.minimum(s, ell - s)
            start, width, low, rise = ramps[:, piece[on] >> 1]
            out[on] = low + rise * _smoothstep((s - start) / width)
        return out.reshape(t.shape)[()]

    def transition_intervals(self) -> tuple[tuple[float, float], ...]:
        """Intervals where h is not constant; meshes must resolve each of them."""
        eps, ell = self.epsilon, self.collar_length
        spans = [(eps / 2.0, eps), (2.0 * eps, 3.0 * eps)]
        if self.symmetric:
            spans += [(ell - 3.0 * eps, ell - 2.0 * eps), (ell - eps, ell - eps / 2.0)]
        return tuple(spans)


@dataclass(frozen=True)
class FunctionWarp:
    """A warp given by a positive, finite array function h(t) on [0, collar_length].

    A scalar return, as from lambda t: 1.0, is broadcast over the points.
    Unless declared constant, the whole collar is one transition interval.
    """

    h: CoefficientFn
    collar_length: float
    symmetric: bool = False
    constant: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.collar_length < math.inf:  # NaN fails both comparisons
            raise DomainError("collar_length must be positive and finite")

    def log_eval(self, t):
        """ln h at the points t, all on the collar: h declares nothing past it."""
        t = _on_collar(t, self.collar_length)
        value = np.broadcast_to(self.h(t), t.shape)
        low, high = value.min(initial=math.inf), value.max(initial=0.0)
        if not (low > 0.0 and high < math.inf):  # NaN fails both comparisons
            bad = np.extract(~((value > 0.0) & (value < math.inf)), value)[0]
            raise DomainError(f"warp function must be positive and finite, got {bad}")
        return np.log(value)[()]

    def transition_intervals(self) -> tuple[tuple[float, float], ...]:
        """No interval if h is constant, else the whole collar."""
        return () if self.constant else ((0.0, self.collar_length),)


Warp = Union[WarpProfile, FunctionWarp]


# ln of the largest float: exp of more overflows, while one below -745 only underflows to 0
_LOG_MAX = math.log(np.finfo(float).max)


def power_fn(warp: Warp, p: float | tuple[float, ...]) -> CoefficientFn:
    """Array function t -> h(t)^p, computed in log space; exact 1.0 wherever h = 1.

    A sequence of powers p gives one row per power, all from one ln h
    sample. A power whose p ln h would overflow is refused before exp runs.
    """
    powers = np.asarray(p, dtype=float)

    def power(t):
        log_h = warp.log_eval(t)
        extremes = (np.min(log_h, initial=0.0), np.max(log_h, initial=0.0))
        if np.multiply.outer(powers, extremes).max() > _LOG_MAX:
            raise DomainError("a power h^p of the warp overflows a float")
        return np.exp(np.multiply.outer(powers, log_h))

    return power


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

"""Steklov spectra of warped products assembled from auxiliary base problems.

The mixed Steklov-Neumann spectrum of the warped product equals the union
over fiber eigenvalues of the spectra of auxiliary base operators, one per
fiber eigenvalue. For a collar base every auxiliary operator splits into 1D
problems over cross-section modes. This module holds the coefficients of
those problems for a metric, their discretization, evaluated once per
metric and mesh as one `sturm.SturmProblem`, and the public entry points;
`sturm.walk_below` walks the (fiber, mode) pairs of that problem.
Multiplicities follow the tensor basis count: fiber multiplicity times
cross-section multiplicity per source.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import profiles, sturm
from .errors import DomainError, HypothesisViolationError, NumericError
from .profiles import CoefficientFn, Warp, WarpedMetricSpec, power_fn, transition_spans
from .provenance import SpectrumWithProvenance
from .spectra import circle_spectrum, extend, point_spectrum
from .sturm import MirrorEnd, SteklovEnd, SturmProblem


@dataclass(frozen=True)
class MetricRecipes:
    """Coefficient closures of the auxiliary base problems for one metric."""

    grad_weight: CoefficientFn
    inv_sq_weight: CoefficientFn
    boundary_weights: tuple[float, float]
    spans: tuple[tuple[float, float], ...]


def metric_recipes(spec: WarpedMetricSpec) -> MetricRecipes:
    """Auxiliary problem coefficients for the given warped metric.

    Plain warp g_B + h^2 g_F: gradient and measure weight h^k, fiber term
    lambda * h^(k-2), endpoint measure h^k. Volume-preserving form
    h^(-2k/n) g_B + h^2 g_F, written in the unwarped base coordinates:
    gradient weight h^(2k/n), fiber term lambda * h^(-2) against the plain
    measure, endpoint measure h^(k/n).

    On a collar [0, L] the plain-warp auxiliary eigenvalues are the min-max
    values of

        R(a) = int_0^L (h^k a'^2 + lambda h^(k-2) a^2) dt
               / (h(0)^k a(0)^2 + h(L)^k a(L)^2).

    The endpoint measure h^k enters the denominator, so a larger warp does
    not by itself give larger eigenvalues: for constant h = c they are
    r tanh(rL/2) and r coth(rL/2) with r = sqrt(lambda)/c, which fall as c
    grows. Only when k >= 2 and the warps agree at the Steklov ends does a
    pointwise larger warp give eigenvalues that are all at least as large.
    """
    grad_p, inv_p, bw_p = _powers(spec)
    ends = np.array([0.0, spec.base.collar_length])
    return MetricRecipes(
        grad_weight=power_fn(spec.warp, grad_p),
        inv_sq_weight=power_fn(spec.warp, inv_p),
        boundary_weights=tuple(power_fn(spec.warp, bw_p)(ends)),
        spans=transition_spans(spec.warp),
    )


def surface_spec(
    warp: Warp, length: float, fiber_length: float, steklov_ends: str, mode: str
) -> WarpedMetricSpec:
    """The warped surface [0, length] x S^1(fiber_length): n = k = 1, a point cross-section."""
    return WarpedMetricSpec(
        base_dim=1,
        fiber_dim=1,
        warp=warp,
        base=sturm.BaseGeometry(point_spectrum(), length, steklov_ends),
        fiber=circle_spectrum(fiber_length, 2),
        mode=mode,
    )


def _powers(spec: WarpedMetricSpec) -> tuple[float, float, float]:
    """Powers of h in the gradient weight, the fiber term and the endpoint measure."""
    n = float(spec.base_dim)
    k = float(spec.fiber_dim)
    if spec.mode == "plain_warp":
        return k, k - 2.0, k
    return 2.0 * k / n, -2.0, k / n


# first_eigenvalues starts its cutoff here and doubles it at most this often
_START_TOP = 1.0
_MAX_DOUBLINGS = 60


def _discretize(spec: WarpedMetricSpec, n_elements: int) -> SturmProblem:
    """The collar's 1D family on a graded mesh; q is the fiber weight, lambda its eigenvalue.

    Only here is a collar mirrored (see sturm): a symmetric WarpProfile on
    its own collar with both ends Steklov is solved on its left half
    [0, L/2], ending in a MirrorEnd, on half the elements, so each ramp gets
    the whole's count. One power_fn call samples ln h once, at the nodes
    followed by the element midpoints, and refuses a power h^p there that
    would overflow. Its rows, q and w at the nodes, w at the midpoints and
    the boundary weights, are bit for bit what metric_recipes' closures give
    there, so the problem calls no closure.
    """
    warp, length, spans = spec.warp, spec.base.collar_length, transition_spans(spec.warp)
    if mirror := (isinstance(warp, profiles.WarpProfile) and warp.symmetric
                  and warp.collar_length == length and spec.base.steklov_ends == "both"):
        length, n_elements = 0.5 * length, 0.5 * n_elements
        spans = tuple(span for span in spans if span[1] <= length)
    nodes = sturm.graded_mesh(length, n_elements, spans)
    n, powers = len(nodes), _powers(spec)
    w, q, bw = power_fn(warp, powers)(np.concatenate((nodes, 0.5 * (nodes[:-1] + nodes[1:]))))
    grad, pot = power_fn(warp, powers[0]), power_fn(warp, powers[1])
    if mirror:
        problem = SturmProblem(length, grad, pot, SteklovEnd(bw[0]), MirrorEnd(), nodes, spans)
    else:
        problem = sturm.collar_problem(spec.base, grad, pot, nodes=nodes,
                                       boundary_weights=(bw[0], bw[n - 1]), transition_spans=spans)
    return problem.prime(q[:n], w[:n], w[n:])


def steklov_spectrum_warped(
    spec: WarpedMetricSpec, top: float, *, n_elements: int = 400
) -> SpectrumWithProvenance:
    """All warped-product Steklov eigenvalues <= top, with multiplicity and sources.

    The collar is discretized once, and sturm.walk_below walks its fiber
    branches on it.
    """
    fibers, modes = spec.fiber, spec.base.cross_section
    sturm.check_top(top, fibers, modes)
    return sturm.walk_below(_discretize(spec, n_elements), fibers, modes, top, {})


def first_eigenvalues(spec: WarpedMetricSpec, count: int, *, n_elements: int = 400):
    """First `count` eigenvalues (with multiplicity), found by doubling the cutoff.

    Returns (values, spectrum) where values has length `count`; the cutoff
    starts at 1 and doubles, on one discretized collar, until
    min(count + 1, size) eigenvalues are certified below it. The size of
    the discrete spectrum is infinite unless the fiber and cross-section
    spectra are complete, and then their multiplicity sums times the
    Steklov ends; a larger count is refused before any walk, and after the
    last doubling one walk at top = inf certifies all size. Each walk
    reads the same spectra and one row cache, so a (lambda, mu) row reduced
    below one cutoff is reused, not reduced again, above it. This is the
    one-spec case of first_eigenvalues_each.
    """
    return next(first_eigenvalues_each([spec], count, n_elements=n_elements))


def first_eigenvalues_each(
    specs: Iterable[WarpedMetricSpec], count: int, *, n_elements: int = 400
) -> Iterator[tuple[np.ndarray, SpectrumWithProvenance]]:
    """first_eigenvalues of each spec in turn, with the first walk steps of many reduced together.

    The specs are read lazily. Each is checked and discretized before any
    solve of it, and sturm.first_steps reduces the first step of its first
    walk together with those of the specs around it, in chunks whose size
    is bounded whatever the number of specs. The doubling walks then start
    from that row cache, so every value and row is what first_eigenvalues
    of the spec alone gives, bit for bit.
    """
    if not (isinstance(count, numbers.Integral) and count >= 1):  # NaN, inf and 1.5 too
        raise DomainError(f"count must be a positive integer, got {count}")
    plans, walks = itertools.tee(_doubling_plan(spec, count, n_elements) for spec in specs)
    caches = sturm.first_steps(walk[:3] for walk in walks)
    for (problem, fibers, modes, enough, tops), rows in zip(plans, caches):
        for top in tops:
            spectrum = sturm.walk_below(problem, fibers, modes, top, rows)
            if spectrum.total_multiplicity >= enough:
                break
        else:
            raise NumericError(
                f"could not certify {count} eigenvalues: {spectrum.total_multiplicity} "
                f"certified at the last cutoff walked, top={top}"
            )
        yield spectrum.flatten()[:count], spectrum


def _doubling_plan(spec: WarpedMetricSpec, count: int, n_elements: int):
    """The discretized collar, its spectra, how many eigenvalues certify count, and the cutoffs."""
    fibers, modes = spec.fiber, spec.base.cross_section
    enough, tops = count + 1, [_START_TOP * 2.0**doubling for doubling in range(_MAX_DOUBLINGS)]
    if fibers.complete and modes.complete:
        ends = 2 if spec.base.steklov_ends == "both" else 1
        size = sum(m for _, m in fibers.entries) * sum(m for _, m in modes.entries) * ends
        if count > size:
            raise DomainError(
                f"count={count} exceeds the {size} eigenvalues of the complete discrete spectrum"
            )
        enough = min(enough, size)
        tops.append(math.inf)  # a walk of every pair, should the doubling end short
    return _discretize(spec, n_elements), fibers, modes, enough, tops


@dataclass(frozen=True)
class Sigma1Result:
    """First nonzero eigenvalue of the construction and the branch attaining it."""

    value: float
    active_branch: str  # "lambda0" or "lambda1"
    branch_lambda0: float
    branch_lambda1: float
    n_elements: int  # of the whole collar solved: a mirrored half's count twice


def sigma1_construction(spec: WarpedMetricSpec, *, n_elements: int = 400) -> Sigma1Result:
    """Spectral gap of the warped metric as the minimum over the two candidate branches.

    The gap is min of (a) the first nonzero eigenvalue of the fiber-constant
    branch and (b) the smallest eigenvalue of the first-fiber-mode branch.
    Eigenvalues are nondecreasing in both mode parameters, so one reduction
    of three (lambda, mu) pairs decides it. Branch (a) is the smaller of the
    nonzero eigenvalue of mode (0, 0), which exists when both ends are
    Steklov and sits at index 1 behind the exact zero, and the smallest
    eigenvalue at (0, mu1), when the cross-section has a mu1. Branch (b) is
    the smallest eigenvalue at (lambda1, 0).
    """
    if spec.mode != "volume_preserving":
        raise DomainError("sigma1_construction expects a volume_preserving metric")
    problem = _discretize(spec, n_elements)
    fiber = extend(spec.fiber, 2).entries
    if len(fiber) < 2:
        raise DomainError("the fiber spectrum has no nonzero eigenvalue lambda1")
    lambda1 = float(fiber[1][0])
    cross = extend(spec.base.cross_section, 2).entries
    mu1 = float(cross[1][0]) if len(cross) > 1 else 0.0
    rows = sturm.dtn_eigenvalues(problem, [lambda1, 0.0, 0.0], [0.0, 0.0, mu1])

    candidates = []
    if spec.base.steklov_ends == "both":
        candidates.append(float(rows[1, 1]))
    if len(cross) > 1:
        candidates.append(float(rows[2, 0]))
    branch_a = min(candidates, default=math.inf)
    branch_b = float(rows[0, 0])

    n_solved = (len(problem.nodes) - 1) * (2 if isinstance(problem.right_bc, MirrorEnd) else 1)
    if branch_a <= branch_b:
        return Sigma1Result(branch_a, "lambda0", branch_a, branch_b, n_solved)
    return Sigma1Result(branch_b, "lambda1", branch_a, branch_b, n_solved)


def lower_bound_C(
    epsilon: float, delta: float, n: int, k: int, lambda1_fiber: float
) -> float:
    """Measured lower bound min(eps^(2 delta k/n - 1)/8, lambda1 * eps^(1 - 2 delta)/4) on sigma1.

    This is a measured bound, not the paper's constant: sigma1 / C was at
    least 3.9 on the nine (n, k, delta) families of
    tests/test_assembler.py::TestLowerBoundC, at eps = 1e-2 ... 1e-10 on
    400 elements. It needs n > k >= 1 and 1/2 < delta < min(1, n/(2k)),
    a window that is nonempty exactly when n > k. Outside it sigma1 does
    not diverge, whatever the mesh, since two test functions in the Rayleigh
    quotient of metric_recipes bound it from above. The fiber-lambda1 mode,
    constant along the base, gives
    sigma1 <= lambda1 * int h^-2 dt / (b0 + b1) ~ eps^(1 - 2 delta), and
    the (0, 0) mode gives
    sigma1 <= (1/b0 + 1/b1) / int dt / h^(2k/n) ~ eps^(2 delta k/n - 1).
    The bound's exponents are those two rates; at n = 2k it is
    min(eps^(delta-1)/8, lambda1 * eps^(1-2 delta)/4).
    """
    if not epsilon > 0.0:  # NaN too
        raise DomainError("epsilon must be positive")
    if not n > k >= 1:
        raise HypothesisViolationError(f"need n > k >= 1, got n={n}, k={k}")
    if not lambda1_fiber > 0.0:  # NaN too: min would drop its term
        raise DomainError("lambda1 of the fiber must be positive")
    if delta >= 1.0:
        raise DomainError("delta must be below 1")
    if not 0.5 < delta < n / (2.0 * k):
        raise HypothesisViolationError(
            f"delta must lie in (1/2, min(1, n/(2k))) with n/(2k) = {n}/{2 * k}; got delta={delta}"
        )
    first = epsilon ** (delta * (2.0 * k / n) - 1.0) / 8.0
    second = lambda1_fiber * epsilon ** (1.0 - 2.0 * delta) / 4.0
    return min(first, second)

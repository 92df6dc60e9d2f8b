"""Steklov spectra of warped products assembled from auxiliary base problems.

The mixed Steklov-Neumann spectrum of the warped product equals the union
over fiber eigenvalues of the spectra of auxiliary base operators, one per
fiber eigenvalue. For a collar base every auxiliary operator splits into 1D
problems over cross-section modes. The collar's coefficients are evaluated
once per metric and mesh, as one `sturm.SturmProblem`. The fiber branches
are then walked in blocks of 8. Each block reads the cross-section modes in
8-aligned sub-blocks, doubling the sub-blocks per step while the fibers
still live fit one reduction of 64 (fiber, mode) rows, and reduces the rows
still needed by the two-port ladder reduction of `sturm`, which gives the
known zero eigenvalue as exactly 0.0. Reduced rows are kept for the length
of one call, under (fiber position, sub-block start), so the cutoff
doublings of `first_eigenvalues` reduce no row twice.
Multiplicities follow the tensor basis count: fiber multiplicity times
cross-section multiplicity per source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sturm
from .errors import CompletenessError, DomainError, HypothesisViolationError, NumericError
from .profiles import CoefficientFn, WarpedMetricSpec, power_fn, transition_spans
from .provenance import EigenSource, SpectrumWithProvenance, merge_tagged
from .spectra import CachedEntries, extend
from .sturm import SturmProblem, collar_branch, collar_problem


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
    n = float(spec.base_dim)
    k = float(spec.fiber_dim)
    if spec.mode == "plain_warp":
        grad_p, inv_p, bw_p = k, k - 2.0, k
    else:
        grad_p, inv_p, bw_p = 2.0 * k / n, -2.0, k / n
    ends = np.array([0.0, spec.base.collar_length])
    return MetricRecipes(
        grad_weight=power_fn(spec.warp, grad_p),
        inv_sq_weight=power_fn(spec.warp, inv_p),
        boundary_weights=tuple(power_fn(spec.warp, bw_p)(ends)),
        spans=transition_spans(spec.warp),
    )


# first_eigenvalues starts its cutoff here and doubles it at most this often
_START_TOP = 1.0
_MAX_DOUBLINGS = 60

# fiber eigenvalues walked together: with one sub-block of 8 modes, one
# dtn_eigenvalues call of at most 64 rows
_FIBER_BLOCK = 8


def _discretize(spec: WarpedMetricSpec, n_elements: int) -> SturmProblem:
    """The collar's 1D family: q is the fiber weight, so lambda is the fiber eigenvalue."""
    recipes = metric_recipes(spec)
    return collar_problem(
        spec.base,
        recipes.grad_weight,
        recipes.inv_sq_weight,
        n_elements=n_elements,
        boundary_weights=recipes.boundary_weights,
        transition_spans=recipes.spans,
    )


def _union_below(
    problem: SturmProblem,
    fibers: CachedEntries,
    modes: CachedEntries,
    top: float,
    rows: dict[tuple[int, int], list[list[float]]],
) -> SpectrumWithProvenance:
    """Merged union over fiber branches of the collar's eigenvalues <= top.

    Fiber eigenvalues are read in ascending order, in blocks of
    _FIBER_BLOCK, and each block is walked by collar_branch on the shared
    row cache. Since the smallest auxiliary eigenvalue is nondecreasing in
    the fiber eigenvalue, the walk stops at the first fiber branch whose
    spectrum starts above top, and the union collected so far is complete
    below top. An incomplete fiber spectrum that ends first raises
    CompletenessError.
    """
    tagged: list[tuple[float, EigenSource]] = []
    start = 0
    while True:
        block = fibers.take(start, _FIBER_BLOCK)
        branches, stopped = collar_branch(problem, block, modes, top, rows, start)
        tagged += branches
        if stopped or len(block) < _FIBER_BLOCK:
            break
        start += _FIBER_BLOCK
    if not stopped and not fibers.complete:
        raise CompletenessError(
            f"fiber spectrum ends after {start + len(block)} entries, "
            f"before a branch starts above top={top}"
        )
    return merge_tagged(tagged)


def steklov_spectrum_warped(
    spec: WarpedMetricSpec, top: float, *, n_elements: int = 400
) -> SpectrumWithProvenance:
    """All warped-product Steklov eigenvalues <= top, with multiplicity and sources.

    The collar is discretized once, and the fiber branches are walked in
    blocks on it; see _union_below and sturm.collar_branch.
    """
    sturm.check_top(top, spec.fiber, spec.base.cross_section)
    fibers = CachedEntries(spec.fiber)
    modes = CachedEntries(spec.base.cross_section)
    return _union_below(_discretize(spec, n_elements), fibers, modes, top, {})


def first_eigenvalues(spec: WarpedMetricSpec, count: int, *, n_elements: int = 400):
    """First `count` eigenvalues (with multiplicity), found by doubling the cutoff.

    Returns (values, spectrum) where values has length `count`; the cutoff
    starts at 1 and doubles, on one discretized collar, until at least
    count + 1 eigenvalues are certified below it. Each walk reads the same
    fiber and cross-section streams and one row cache, so a (lambda, mu)
    row reduced below one cutoff is reused, not reduced again, above it.
    """
    if count < 1:
        raise DomainError("count must be positive")
    problem = _discretize(spec, n_elements)
    fibers = CachedEntries(spec.fiber)
    modes = CachedEntries(spec.base.cross_section)
    rows: dict[tuple[int, int], list[list[float]]] = {}
    top = _START_TOP
    for _ in range(_MAX_DOUBLINGS):
        spectrum = _union_below(problem, fibers, modes, top, rows)
        if spectrum.total_multiplicity >= count + 1:
            return spectrum.flatten()[:count], spectrum
        top *= 2.0
    raise NumericError(f"could not certify {count} eigenvalues below top={top}")


@dataclass(frozen=True)
class Sigma1Result:
    """First nonzero eigenvalue of the construction and the branch attaining it."""

    value: float
    active_branch: str  # "lambda0" or "lambda1"
    branch_lambda0: float
    branch_lambda1: float


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

    if branch_a <= branch_b:
        return Sigma1Result(branch_a, "lambda0", branch_a, branch_b)
    return Sigma1Result(branch_b, "lambda1", branch_a, branch_b)


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
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    if not n > k >= 1:
        raise HypothesisViolationError(f"need n > k >= 1, got n={n}, k={k}")
    if lambda1_fiber <= 0.0:
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

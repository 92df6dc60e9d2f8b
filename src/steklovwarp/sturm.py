"""Weighted 1D Steklov/Neumann boundary problems on a collar interval.

Separating a collar base over its cross-section modes and the fiber over
its eigenvalues leaves one family of 1D problems,

    -(w a')' + (lambda q + mu w) a = 0 on [0, L],

indexed by a fiber eigenvalue lambda and a cross-section mode mu, with a
spectral (Steklov) condition at one or both endpoints; their
Dirichlet-to-Neumann eigenvalues feed the warped product assembly.
Discretization is by piecewise-linear elements with midpoint quadrature for
the gradient weight w and trapezoidal (lumped) quadrature for the
zeroth-order term, which keeps the system symmetric positive and
second-order accurate.

The discrete problem is a resistor ladder: element e is a conductance
c_e = w(t_mid)/dt_e between its nodes and node i a shunt
s_i = (mu w(t_i) + lambda q(t_i)) lump_i to ground. A SturmProblem samples
the ladder of its family once. Its Dirichlet-to-Neumann map is the
admittance of the two-port seen from the end nodes (a Stieltjes continued
fraction; Curtis & Morrow, Inverse Problems for Electrical Networks, 2000).
The interior nodes are eliminated pairwise, as a tree of star-mesh steps,
in which every term is positive: nothing cancels, and a problem without
potential has the exact eigenvalue 0.0. The reduction runs on a 2-D array
with one row per (lambda, mu) pair, so a block of fibers and modes costs a
few array operations. `assemble` builds the same form as a banded
PartitionedSystem. No eigenvalue path calls it: it serves the minimizing
extension, the tests compare the reduction against it, and the
benchmark's tracer hooks it by name.

A mirrored problem is the left half [0, L/2] of a collar whose
coefficients are symmetric about its middle, with two Steklov ends of one
weight; a MirrorEnd marks the middle as its right end. Only
assembler.discretize decides that a collar is mirrored and builds its
half; `collar_problem` builds whole collars. By Bartlett's bisection
theorem (1927) the collar's eigenvalues are the half's with the middle
open (even mode) and grounded (odd mode): one reduction of the half gives
each row as (sigma_even, sigma_odd). `assemble`, `rayleigh_quotient` and
`minimizing_extension` serve whole ladders only.

`walk_below` collects every eigenvalue <= top of a family, reading the
spectra of fiber eigenvalues lambda and cross-section modes mu through
ClosedSpectrum.take. It reads the fibers in blocks of 8. For each block it
reads the modes in steps of whole 8-aligned sub-blocks: the first step
reads 8 modes, and each later one twice as many as the last, but never
more than keep the fibers still live within one reduction of 64 rows. So
a lone fiber reads 8, 16, 32 and then 64 modes, and a block of 8 fibers 8
at a time. Each step reduces the (lambda, mu) pairs that no earlier step
or walk reduced, in one call of at most 64 rows. Every eigenvalue is
nondecreasing in lambda and in mu. So a fiber's walk stops at its first
mode whose smallest eigenvalue exceeds top, and the whole walk stops at
the first fiber whose mode 0 starts above top: the union collected so far
is complete below top. Each eigenvalue <= top is tagged as a plain row
(value, lambda, mu, branch, fiber multiplicity, mode multiplicity), with
no object per value, and provenance.merge_tagged sorts the rows once into
the merged spectrum.

Only `first_steps` reduces more than 64 of a walk's rows in one call. It
reduces the first steps of many walks ahead of them, as
assembler.first_eigenvalues_each does for many metrics: the rows of every
problem with the same node count and ends go in one call of at most
_MAX_GROUP_ROWS rows, each row with its own problem's conductances. The
tree of merges depends only on the element count, so every row is the
same bit for bit as when its walk reduces it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, islice
from typing import Iterable, Iterator

import numpy as np
from numpy.typing import ArrayLike

from .errors import CompletenessError, DomainError, MeshResolutionError, NumericError
from .linalg import PartitionedSystem, _interior_solve
from .profiles import CoefficientFn
from .provenance import Row, SpectrumWithProvenance, merge_tagged
from .spectra import ClosedSpectrum

# fiber eigenvalues walked together: with one sub-block of 8 modes, one
# dtn_eigenvalues call of at most 64 rows
_FIBER_BLOCK = 8
# cross-section modes are read in steps of whole sub-blocks of _SUB_BLOCK,
# aligned to the spectrum's start; no dtn_eigenvalues call of a walk reduces
# more than _MAX_BLOCK (lambda, mu) rows
_SUB_BLOCK = 8
_MAX_BLOCK = 64
# first_steps reads walks in chunks whose first steps hold at most this many
# (lambda, mu) rows together, so that no call of it reduces more
_MAX_GROUP_ROWS = 512

# elements that every transition span of a mesh must hold: coefficient
# plateaus changing by orders of magnitude meet there
MIN_ELEMENTS_PER_SPAN = 8

# about the square root of the largest float, and a power of two, so that
# w * (1 / _MAX_COND) is exact: a product of two smaller conductances is finite
_MAX_COND = 2.0**512


@dataclass(frozen=True)
class SteklovEnd:
    """Spectral endpoint; weight is the boundary measure density there."""

    weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.weight < math.inf:  # NaN fails both comparisons
            raise DomainError("Steklov boundary weight must be positive and finite")


@dataclass(frozen=True)
class NeumannEnd:
    """Natural endpoint, absorbed into the weak form."""


@dataclass(frozen=True)
class MirrorEnd:
    """The middle of a mirrored collar, as the right end of its left half."""


BoundaryCondition = SteklovEnd | NeumannEnd | MirrorEnd


@dataclass(frozen=True, eq=False)
class SturmProblem:
    """The family -(w a')' + (lambda q + mu w) a = 0 on a mesh, with endpoint conditions.

    grad_weight w must be positive and potential q nonnegative on
    [0, length]. Both are array functions; a scalar return, such as that of
    lambda t: 0.0, is broadcast over the points. The ladder is sampled once
    per problem, on first use: w at the element midpoints `w_mid` for the
    edge conductances `cond`, the lumped masses `lump` and q `q_node` at the
    nodes, and w there `w_node` only when some mu is nonzero. `prime`
    hands over all three samples instead, such as a collar's powers of one
    ln h sample, and then no coefficient function is called.
    dtn_eigenvalues reduces any (lambda, mu) pairs on it; lambda = 1,
    mu = 0 is the single problem -(w a')' + q a = 0.
    transition_spans lists intervals that the mesh must resolve with at
    least MIN_ELEMENTS_PER_SPAN elements each.
    A MirrorEnd may only end it on the right: the problem is then the left
    half of a mirrored collar (see assembler.discretize).
    """

    length: float
    grad_weight: CoefficientFn
    potential: CoefficientFn
    left_bc: BoundaryCondition
    right_bc: BoundaryCondition
    nodes: np.ndarray
    transition_spans: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self) -> None:
        if is_real(self.length) and self.length <= 0.0:  # check_span refuses the rest
            raise DomainError("interval length must be positive")
        if isinstance(self.left_bc, MirrorEnd):
            raise DomainError("a MirrorEnd marks the middle of a collar, on the right only")
        if not any(isinstance(bc, SteklovEnd) for bc in (self.left_bc, self.right_bc)):
            raise DomainError("at least one endpoint must carry a Steklov condition")
        nodes = np.asarray(self.nodes, dtype=float)
        check_span(nodes, self.length)
        object.__setattr__(self, "nodes", nodes)

    @cached_property
    def cond(self) -> np.ndarray:
        """Edge conductances w(t_mid)/dt, on a mesh checked first.

        The reduction multiplies two conductances, so one of _MAX_COND or
        more is refused: the product would overflow to inf and the
        eigenvalues come out NaN.
        """
        check_mesh(self.nodes, self.transition_spans)
        w_mid, dt = self.w_mid, np.diff(self.nodes)
        if (w_mid * (1.0 / _MAX_COND) >= dt).any():  # w/dt >= _MAX_COND, with no w/dt to overflow
            raise NumericError(
                "a conductance w/dt reaches 2^512: the ladder reduction would overflow"
            )
        return w_mid / dt

    @cached_property
    def w_mid(self) -> np.ndarray:
        mid = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        return _checked(self.grad_weight(mid), mid.shape, False)

    @cached_property
    def lump(self) -> np.ndarray:
        return lumped_mass(self.nodes)

    @cached_property
    def q_node(self) -> np.ndarray:
        return _checked(self.potential(self.nodes), self.nodes.shape, True)

    @cached_property
    def w_node(self) -> np.ndarray:
        return _checked(self.grad_weight(self.nodes), self.nodes.shape, False)

    def prime(self, q_node: ArrayLike, w_node: ArrayLike, w_mid: ArrayLike) -> "SturmProblem":
        """Take q and w at every node and w at every element midpoint, each checked.

        They must be what potential and grad_weight give there.
        """
        n = len(self.nodes)
        vars(self).update(q_node=_checked(q_node, (n,), True), w_node=_checked(w_node, (n,), False),
                          w_mid=_checked(w_mid, (n - 1,), False))
        return self


def _checked(values: ArrayLike, shape: tuple[int, ...], potential: bool) -> np.ndarray:
    """Samples over shape; a potential must be nonnegative, a gradient weight positive."""
    if not (isinstance(values, np.ndarray) and values.shape == shape):
        values = np.broadcast_to(values, shape)
    low = values.min()  # NaN fails the comparisons below
    if not ((low >= 0.0 if potential else low > 0.0) and values.max() < math.inf):
        what = "potential must be nonnegative" if potential else "gradient weight must be positive"
        raise DomainError(f"{what} and finite on the interval")
    return values


@dataclass(frozen=True)
class BaseGeometry:
    """Collar base: cross-section spectrum, collar length, and endpoint roles.

    steklov_ends is "both", "left" or "right"; the remaining end, if any,
    carries the Neumann condition.
    """

    cross_section: ClosedSpectrum
    collar_length: float
    steklov_ends: str = "both"

    def __post_init__(self) -> None:
        if not 0.0 < self.collar_length < math.inf:  # NaN fails both comparisons
            raise DomainError("collar length must be positive and finite")
        if self.steklov_ends not in ("both", "left", "right"):
            raise DomainError(
                f"steklov_ends must be 'both', 'left' or 'right', got {self.steklov_ends!r}"
            )


def graded_mesh(
    length: float, n_elements: float, spans: tuple[tuple[float, float], ...] = ()
) -> np.ndarray:
    """Mesh of [0, length] refined so each span gets at least MIN_ELEMENTS_PER_SPAN elements.

    Elements are distributed across the segments cut by the span endpoints
    in proportion to segment length, with the per-span minimum enforced, and
    are uniform within each segment. n_elements may be a float, such as half
    an odd count on half a collar, where each segment but the one at the
    middle gets its count on the whole. When the cuts are symmetric about
    the middle, to 1e-12 length, a segment and its mirror image both get the
    larger of their two counts, which their lengths may round apart; the
    mesh is then symmetric by index, as the oracle's mirrored grids need.
    """
    if not 0.0 < length < math.inf:  # NaN fails both comparisons
        raise DomainError("length must be positive and finite")
    if not 1 <= n_elements < math.inf:  # NaN fails both comparisons
        raise DomainError("element count must be positive and finite")
    cuts = {0.0, length}
    for a, b in spans:
        if not 0.0 <= a < b <= length:
            raise DomainError(f"span ({a}, {b}) outside [0, {length}]")
        cuts.update((a, b))
    ordered = sorted(cuts)
    breaks = np.array(ordered)
    a, b = breaks[:-1], breaks[1:]
    seg = np.maximum(1, np.rint(n_elements * (b - a) / length)).astype(int)
    if spans:  # the segments that are whole spans; a span cut by another one is none
        start, stop = np.array(spans).T
        at = np.searchsorted(breaks, start)
        whole = at[breaks[at + 1] == stop]
        seg[whole] = np.maximum(seg[whole], MIN_ELEMENTS_PER_SPAN)
    if all(abs(x + y - length) <= 1e-12 * length for x, y in zip(ordered, reversed(ordered))):
        seg = np.maximum(seg, seg[::-1])
    step = (b - a) / seg
    ends = np.cumsum(seg)  # one past each segment's last node, the node at 0 left out
    which = np.repeat(np.arange(len(seg)), seg)
    k = np.arange(1, ends[-1] + 1) - (ends - seg)[which]  # 1 ... seg within each segment
    nodes = a[which] + k * step[which]
    nodes[ends - 1] = b  # each segment ends exactly at its cut
    return np.concatenate(([0.0], nodes))


def is_real(value: object) -> bool:
    """Whether value is a real scalar, a Python or numpy int or float; a bool is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_span(nodes: np.ndarray, length: float) -> None:
    """Check that a 1-D array of strictly increasing nodes runs from 0 to a finite length.

    Both ends are checked up to roundoff.
    """
    if not is_real(length):
        raise DomainError(
            f"mesh must span exactly [0, length], a real number, not {type(length).__name__}"
        )
    if nodes.ndim != 1 or len(nodes) < 2:
        raise DomainError("mesh must be a 1-D array of at least two nodes")
    end = abs(nodes[-1] - length) <= 1e-12 * max(length, 1.0)
    if not (math.isfinite(length) and abs(nodes[0]) <= 1e-14 and end):
        raise DomainError("mesh must span exactly [0, length]")
    if not (nodes[1:] > nodes[:-1]).all():  # NaN fails the comparison
        raise DomainError("mesh nodes must be strictly increasing")


def check_mesh(nodes: np.ndarray, spans: tuple[tuple[float, float], ...]) -> None:
    """Check that the mesh has at least 16 elements, and MIN_ELEMENTS_PER_SPAN in every span."""
    n_elements = len(nodes) - 1
    if n_elements < 16:
        raise DomainError(f"mesh must have at least 16 elements, got {n_elements}")
    tol = 1e-12 * max(nodes[-1], 1.0)
    for a, b in spans:
        inside = int(np.count_nonzero((nodes[:-1] >= a - tol) & (nodes[1:] <= b + tol)))
        if inside < MIN_ELEMENTS_PER_SPAN:
            raise MeshResolutionError(
                f"transition interval ({a:.6g}, {b:.6g}) resolved by only "
                f"{inside} elements, need at least {MIN_ELEMENTS_PER_SPAN}"
            )


def collar_problem(
    geom: BaseGeometry,
    grad_weight: CoefficientFn,
    potential: CoefficientFn,
    *,
    nodes: np.ndarray,
    boundary_weights: tuple[float, float],
    transition_spans: tuple[tuple[float, float], ...],
) -> SturmProblem:
    """The 1D family of a whole collar base on a mesh of it; its Steklov ends carry the weights.

    A mirrored collar's left half is built by assembler.discretize alone.
    """
    ends = geom.steklov_ends
    left = SteklovEnd(boundary_weights[0]) if ends in ("both", "left") else NeumannEnd()
    right = SteklovEnd(boundary_weights[1]) if ends in ("both", "right") else NeumannEnd()
    return SturmProblem(geom.collar_length, grad_weight, potential, left, right, nodes,
                        transition_spans)


def lumped_mass(nodes: np.ndarray) -> np.ndarray:
    """Trapezoidal node weights: half of each adjacent element's length."""
    half = 0.5 * (nodes[1:] - nodes[:-1])
    return np.concatenate((half[:1], half[:-1] + half[1:], half[-1:]))


def _steklov_nodes(p: SturmProblem) -> tuple[list[int], list[float]]:
    """Indices and boundary weights of the Steklov end nodes of a whole ladder."""
    if isinstance(p.right_bc, MirrorEnd):
        raise DomainError("a mirrored collar holds only its left half's ladder")
    ends = ((0, p.left_bc), (len(p.nodes) - 1, p.right_bc))
    spectral = [(i, bc.weight) for i, bc in ends if isinstance(bc, SteklovEnd)]
    return [i for i, _ in spectral], [weight for _, weight in spectral]


def assemble(p: SturmProblem) -> PartitionedSystem:
    """Discrete bilinear form of the problem, partitioned onto Steklov endpoints.

    Stiffness entries come from the gradient weight at element midpoints,
    the potential is lumped at the nodes with trapezoidal weights, and
    Neumann endpoints are treated as interior unknowns (natural condition).
    """
    boundary, weights = _steklov_nodes(p)
    cond = p.cond
    diag = np.zeros(len(p.nodes))
    diag[:-1] += cond
    diag[1:] += cond
    diag += p.q_node * p.lump
    # the Steklov nodes are end nodes: the interior nodes lo, ..., hi - 1 are
    # one run, and a Steklov end couples only to its neighbour in it
    lo = int(isinstance(p.left_bc, SteklovEnd))
    hi = len(diag) - int(isinstance(p.right_bc, SteklovEnd))
    ab = np.zeros((2, hi - lo))
    ab[0] = diag[lo:hi]
    ab[1, :-1] = -cond[lo : hi - 1]
    a_ib = np.zeros((hi - lo, len(boundary)))
    if lo:
        a_ib[0, 0] = -cond[0]
    if hi < len(diag):
        a_ib[-1, -1] = -cond[-1]
    return PartitionedSystem(ab, a_ib, np.diag(diag[boundary]), np.array(weights))


def _reduce_ladder(
    cond: np.ndarray, shunt: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pi-network (g1, y, g2) of each row's ladder between its end nodes.

    cond has one entry per element, shared by every row, or one row of them
    per ladder; shunt has one row per ladder and one column per node. Each
    element starts as (0, c_e, 0); neighbours A, B are merged by eliminating
    their shared node, whose total shunt is m = g2_A + s + g1_B, with
    d = y_A + y_B + m:

        y <- y_A y_B / d,  g1 <- g1_A + y_A m / d,  g2 <- g2_B + y_B m / d.

    The first level merges elements 2i and 2i + 1, whose g1 and g2 are 0,
    so it is built from cond and the odd nodes' shunts alone: m = s, and
    g1 = y_A share, g2 = y_B share with share = m / d, as the general step
    gives them exactly. Later levels update m and d in place and turn m
    into the share. The end nodes' shunts are left out of g1 and g2. Every
    step is elementwise and the tree depends on the element count alone, so
    a row comes out the same bit for bit whether its cond is shared or its
    own, and whatever other rows the call holds.
    """
    rows, n = shunt.shape[0], cond.shape[-1]
    paired = n - n % 2
    ya, yb = cond[..., 0:paired:2], cond[..., 1:paired:2]
    m = shunt[:, 1:paired:2]
    d = ya + yb + m
    share = m / d
    g1, y, g2 = ya * share, ya * yb / d, yb * share
    if paired < n:  # odd count: the last element, (0, c_e, 0), waits for the next level
        g1, y, g2 = (
            np.concatenate((new, np.broadcast_to(old, (rows, 1))), axis=1)
            for new, old in zip((g1, y, g2), (0.0, cond[..., -1:], 0.0))
        )
    junction = shunt[:, 2:-1:2]
    while y.shape[1] > 1:
        paired = y.shape[1] - y.shape[1] % 2
        ya, yb = y[:, 0:paired:2], y[:, 1:paired:2]
        m = g2[:, 0:paired:2] + junction[:, 0:paired:2]
        m += g1[:, 1:paired:2]
        d = ya + yb
        d += m
        m /= d  # now the share
        new_g1, new_y, new_g2 = ya * m, ya * yb, yb * m
        new_g1 += g1[:, 0:paired:2]
        new_y /= d
        new_g2 += g2[:, 1:paired:2]
        merged = new_g1, new_y, new_g2
        if paired < y.shape[1]:  # odd count: the last segment waits for the next level
            merged = tuple(
                np.concatenate((new, old[:, -1:]), axis=1)
                for new, old in zip(merged, (g1, y, g2))
            )
        g1, y, g2 = merged
        junction = junction[:, 1::2]
    return g1[:, 0], y[:, 0], g2[:, 0]


def _ladder_eigenvalues(cond: np.ndarray, shunt: np.ndarray, left: BoundaryCondition,
                        right: BoundaryCondition) -> np.ndarray:
    """Ascending Dirichlet-to-Neumann eigenvalues of each row's ladder, one column per Steklov end.

    With end admittances G1 = g1 + s_0 and G2 = g2 + s_N, both ends
    spectral give the 2x2 matrix [[G1 + y, -y], [-y, G2 + y]] against the
    boundary weights; its smaller eigenvalue is taken as det / sigma_max,
    det = G1 G2 + y (G1 + G2), so it keeps full relative precision down to
    an exact 0.0. One spectral end sees the other end through y in series.

    A MirrorEnd on the right makes node N the middle of a mirrored collar.
    The even mode sees G2 through y, as one spectral end does; the odd mode
    grounds node N, giving G1 + y, summed as sigma_even plus the
    nonnegative y^2 / (y + G2) so that the row stays ascending.
    """
    g1, y, g2 = _reduce_ladder(cond, shunt)
    end1 = g1 + shunt[:, 0]
    end2 = g2 + shunt[:, -1]
    if isinstance(right, MirrorEnd):
        share = y / (y + end2)
        even = end1 + end2 * share
        return np.stack((even, even + y * share), axis=1) / left.weight
    if not isinstance(right, SteklovEnd):
        return ((end1 + y * end2 / (y + end2)) / left.weight)[:, None]
    if not isinstance(left, SteklovEnd):
        return ((end2 + y * end1 / (y + end1)) / right.weight)[:, None]
    b0, b1 = left.weight, right.weight
    a = (end1 + y) / b0
    d = (end2 + y) / b1
    sigma_max = 0.5 * (a + d) + np.hypot(0.5 * (a - d), y / math.sqrt(b0 * b1))
    sigma_min = (end1 * end2 + y * (end1 + end2)) / (b0 * b1) / sigma_max
    return np.stack((sigma_min, sigma_max), axis=1)


def dtn_eigenvalues(
    p: SturmProblem, fiber_value: ArrayLike = 1.0, mu: ArrayLike = 0.0
) -> np.ndarray:
    """Ascending Dirichlet-to-Neumann eigenvalues of -(w a')' + (lambda q + mu w) a = 0.

    fiber_value (lambda) and mu broadcast against each other, and the result
    holds one row per pair, with one eigenvalue per Steklov endpoint; two
    scalars, such as the defaults lambda = 1, mu = 0, give a single row.
    Both must be nonnegative and finite, as the potential is: a negative
    shunt gives a wrong eigenvalue, not an error, and an infinite one NaN.
    The rows of a mirrored collar's half, ending in a MirrorEnd, hold
    (sigma_even, sigma_odd); mode (0, 0) still gives an exact 0.0.
    """
    lam, mu = np.asarray(fiber_value, float), np.asarray(mu, float)
    if not (lam.min(initial=0.0) >= 0.0 and mu.min(initial=0.0) >= 0.0  # min keeps a NaN
            and lam.max(initial=0.0) < math.inf and mu.max(initial=0.0) < math.inf):
        raise DomainError("fiber eigenvalue lambda and mode eigenvalue mu "
                          "must be nonnegative and finite")
    cond = p.cond  # a lazily sampled problem checks its mesh before sampling the nodes
    shunt = _shunts(p, lam, mu)
    values = _ladder_eigenvalues(cond, shunt.reshape(-1, len(p.nodes)), p.left_bc, p.right_bc)
    return values.reshape(shunt.shape[:-1] + values.shape[1:])


def _shunts(p: SturmProblem, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Node shunts (lambda q + mu w) lump, one row of nodes per pair of lam and mu broadcast."""
    shunt = lam[..., None] * p.q_node
    if mu.any():  # else mu w vanishes, and 0 + x is x exactly
        shunt = mu[..., None] * p.w_node + shunt
    return np.multiply(shunt, p.lump, out=np.empty(np.broadcast(lam, mu).shape + p.nodes.shape))


def rayleigh_quotient(p: SturmProblem, samples: np.ndarray) -> float:
    """Discrete energy quotient of nodal values against the Steklov boundary mass.

    The energy is sum_e c_e (a_(e+1) - a_e)^2 + sum_i s_i a_i^2 on the
    problem's ladder (lambda = 1, mu = 0). It is always at least the smallest
    Dirichlet-to-Neumann eigenvalue up to roundoff; equality holds for the
    discrete energy-minimizing extension of the minimizing boundary data.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != p.nodes.shape:
        raise DomainError("samples must match mesh nodes")
    boundary, weights = _steklov_nodes(p)
    denom = float(np.dot(weights, samples[boundary] ** 2))
    if denom <= 0.0:
        raise DomainError("test function vanishes on all Steklov nodes")
    energy = p.cond @ np.diff(samples) ** 2 + (p.q_node * p.lump) @ samples**2
    return float(energy) / denom


def minimizing_extension(p: SturmProblem, boundary_values: np.ndarray) -> np.ndarray:
    """Energy-minimizing nodal values for endpoint data b: interior x solves A_II x = -A_IB b."""
    system = assemble(p)
    boundary, _ = _steklov_nodes(p)
    full = np.zeros(len(p.nodes))
    full[boundary] = boundary_values
    lo = int(isinstance(p.left_bc, SteklovEnd))  # the interior nodes follow a Steklov left end
    full[lo : lo + system.n_interior] = -_interior_solve(system, system.a_ib @ full[boundary])
    return full


def walk_below(problem: SturmProblem, fibers: ClosedSpectrum, modes: ClosedSpectrum,
               top: float, rows: dict[int, list[list[float]]]) -> SpectrumWithProvenance:
    """Merged union of the collar's eigenvalues <= top over its (lambda, mu) pairs.

    fibers and modes are the spectra of lambda and mu; the module docstring
    says in what order they are walked and why the union is complete below
    top when the walk stops. rows[i] holds the reduced rows of the fiber at
    position i from mode 0 on, as lists of Python floats, so a later walk
    over the same problem and spectra, such as one at a doubled top,
    reduces no row twice. A spectrum that ends before the walk stops raises
    CompletenessError, unless it is complete.
    """
    tagged: list[Row] = []
    for start in count(0, _FIBER_BLOCK):
        block = fibers.take(start, _FIBER_BLOCK)
        live = [(rows.setdefault(i, []), fiber) for i, fiber in enumerate(block, start)]
        _walk_modes(problem, live, modes, top, tagged)
        if any(known[0][0] > top for known, _ in live):  # so does every later fiber
            return merge_tagged(tagged)
        if len(block) < _FIBER_BLOCK:
            break
    if not fibers.complete:
        raise CompletenessError(f"fiber spectrum ends after {start + len(block)} entries, "
                                f"before a branch starts above top={top}")
    return merge_tagged(tagged)


def _walk_modes(problem: SturmProblem, live: list[tuple[list[list[float]], tuple[float, int]]],
                modes: ClosedSpectrum, top: float, tagged: list[Row]) -> None:
    """Tag the eigenvalues <= top of one block of fibers, live as (known rows, fiber entry).

    A fiber that starts above top at mode 0 ends the walk of every later
    one, while the block's earlier fibers finish theirs.
    """
    first, size = 0, _SUB_BLOCK  # the step's first mode and its length
    while live:
        size = min(size, _SUB_BLOCK * max(1, _MAX_BLOCK // (_SUB_BLOCK * len(live))))
        step = modes.take(first, size)
        if not step:  # the spectrum ended at the last step's end
            break
        # a live fiber's rows reach the step's first mode; the rest are missing
        missing = [(known, fiber_value, step[len(known) - first :])
                   for known, (fiber_value, _) in live]
        lam = [fiber_value for _, fiber_value, new in missing for _ in new]
        mu = [value for *_, new in missing for value, _ in new]
        reduced = iter(dtn_eigenvalues(problem, lam, mu).tolist() if lam else ())
        for known, _, new in missing:
            known += islice(reduced, len(new))
        walking = []
        for known, (fiber_value, fiber_mult) in live:
            for j, ((cross_value, cross_mult), row) in enumerate(zip(step, known[first:])):
                if row[0] > top:
                    break
                for branch, value in enumerate(row):
                    if value <= top:
                        tagged.append(
                            (value, fiber_value, cross_value, branch, fiber_mult, cross_mult)
                        )
            else:
                walking.append((known, (fiber_value, fiber_mult)))
                continue
            if first == j == 0:  # this fiber and every later one start above top
                break
        live = walking
        if len(step) < size:
            break
        first += size
        size *= 2
    if live and not modes.complete:
        raise CompletenessError(f"cross-section spectrum ends after {first + len(step)} entries, "
                                f"before a mode exceeds top={top}")


def first_steps(walks: Iterable[tuple[SturmProblem, ClosedSpectrum, ClosedSpectrum]]
                ) -> Iterator[dict[int, list[list[float]]]]:
    """The rows that the first step of each walk reduces, reduced together, as walk caches.

    Each walk is walk_below's (problem, fibers, modes). Its first step
    reduces fibers.take(0, _FIBER_BLOCK) x modes.take(0, _SUB_BLOCK)
    whatever top is, and its cache maps each of those fibers' positions to
    their rows, as walk_below's rows do: a walk_below given it reduces none
    of them again. The walks are read in chunks whose first steps hold at
    most _MAX_GROUP_ROWS rows together, and the caches of a chunk come out
    in order once it is reduced.
    """
    chunk, held = [], 0
    for problem, fibers, modes in walks:
        lam = [value for value, _ in fibers.take(0, _FIBER_BLOCK)]
        mu = [value for value, _ in modes.take(0, _SUB_BLOCK)]
        if held + len(lam) * len(mu) > _MAX_GROUP_ROWS:
            yield from _reduce_first_steps(chunk)
            chunk, held = [], 0
        chunk.append((problem, lam, mu))
        held += len(lam) * len(mu)
    yield from _reduce_first_steps(chunk)


def _reduce_first_steps(chunk: list[tuple[SturmProblem, list[float], list[float]]]
                        ) -> list[dict[int, list[list[float]]]]:
    """The caches of first_steps for (problem, first step's fibers, its modes) walks.

    The rows of every problem with the same node count and ends are reduced
    in one call, each with its own problem's conductances: the shunts and
    the tree of merges are those of dtn_eigenvalues on its rows alone, so
    every row is the same bit for bit.
    """
    groups: dict[tuple, list[tuple[int, int, np.ndarray, np.ndarray]]] = {}
    for index, (problem, lam, mu) in enumerate(chunk):
        cond = problem.cond  # a lazily sampled problem checks its mesh before sampling the nodes
        lam_rows = np.repeat(np.asarray(lam, float), len(mu))  # fiber by fiber, as a walk's step
        shunt = _shunts(problem, lam_rows, np.tile(np.asarray(mu, float), len(lam)))
        key = (len(problem.nodes), problem.left_bc, problem.right_bc)
        groups.setdefault(key, []).append((index, len(mu), cond, shunt))
    caches: list[dict[int, list[list[float]]]] = [{} for _ in chunk]
    for (_, left, right), members in groups.items():
        conds = [cond for _, _, cond, _ in members]
        shunts = [shunt for *_, shunt in members]
        cond = np.repeat(conds, [len(shunt) for shunt in shunts], axis=0)
        values = iter(_ladder_eigenvalues(cond, np.concatenate(shunts), left, right).tolist())
        for index, n_modes, _, shunt in members:
            caches[index] = {i: list(islice(values, n_modes)) for i in range(len(shunt) // n_modes)}
    return caches


def check_top(top: float, *walked: ClosedSpectrum) -> None:
    """Reject a cutoff at which a walk over the `walked` spectra would never stop.

    No branch starts above inf, so top = inf needs every walked spectrum complete.
    """
    if not top > 0.0:  # NaN too: no eigenvalue would exceed it, and no walk would stop
        raise DomainError("top must be positive")
    if top == math.inf and not all(spectrum.complete for spectrum in walked):
        raise DomainError("top = inf needs complete spectra; a generated spectrum never ends")


def base_dtn_spectrum(
    geom: BaseGeometry,
    grad_weight: CoefficientFn,
    fiber_eigenvalue: float,
    inv_sq_weight: CoefficientFn,
    top: float,
    *,
    n_elements: int = 400,
    boundary_weights: tuple[float, float] = (1.0, 1.0),
    transition_spans: tuple[tuple[float, float], ...] = (),
) -> SpectrumWithProvenance:
    """Mixed Steklov-Neumann spectrum of one auxiliary base operator, up to `top`.

    Each cross-section mode mu reduces the base problem to the 1D problem
    with lambda = fiber_eigenvalue and q = inv_sq_weight; the modes are
    walked as those of one fiber block of walk_below. A lone lambda is no
    ClosedSpectrum, whose first value is 0.
    """
    check_top(top, geom.cross_section)
    problem = collar_problem(
        geom, grad_weight, inv_sq_weight, boundary_weights=boundary_weights,
        nodes=graded_mesh(geom.collar_length, n_elements, transition_spans),
        transition_spans=transition_spans)
    tagged: list[Row] = []
    _walk_modes(problem, [([], (fiber_eigenvalue, 1))], geom.cross_section, top, tagged)
    return merge_tagged(tagged)

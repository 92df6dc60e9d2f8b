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
few array operations. `assemble` builds the same form as a partitioned
matrix; it serves the minimizing extension, and as the reference the
reduction is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np
from numpy.typing import ArrayLike

from .errors import CompletenessError, DomainError, MeshResolutionError
from .linalg import PartitionedSystem, harmonic_extension
from .profiles import CoefficientFn
from .provenance import EigenSource, SpectrumWithProvenance, merge_tagged
from .spectra import CachedEntries, ClosedSpectrum

# cross-section modes are read in aligned sub-blocks of _SUB_BLOCK, the unit
# of the row cache; no dtn_eigenvalues call of a walk reduces more than
# _MAX_BLOCK (lambda, mu) rows
_SUB_BLOCK = 8
_MAX_BLOCK = 64

# elements that every transition span of a mesh must hold: coefficient
# plateaus changing by orders of magnitude meet there
MIN_ELEMENTS_PER_SPAN = 8


@dataclass(frozen=True)
class SteklovEnd:
    """Spectral endpoint; weight is the boundary measure density there."""

    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0.0:
            raise DomainError("Steklov boundary weight must be positive")


@dataclass(frozen=True)
class NeumannEnd:
    """Natural endpoint, absorbed into the weak form."""


BoundaryCondition = SteklovEnd | NeumannEnd


@dataclass(frozen=True, eq=False)
class SturmProblem:
    """The family -(w a')' + (lambda q + mu w) a = 0 on a mesh, with endpoint conditions.

    grad_weight w must be positive and potential q nonnegative on
    [0, length]. Both are array functions; a scalar return, such as that of
    lambda t: 0.0, is broadcast over the points. The ladder is sampled once
    per problem, on first use: the edge conductances `cond`, the lumped node
    masses `lump` and q at the nodes `q_node`, and w at the nodes `w_node`
    only when some mu is nonzero. dtn_eigenvalues reduces any (lambda, mu)
    pairs on it; lambda = 1, mu = 0 is the single problem -(w a')' + q a = 0.
    transition_spans lists intervals that the mesh must resolve with at
    least MIN_ELEMENTS_PER_SPAN elements each.
    """

    length: float
    grad_weight: CoefficientFn
    potential: CoefficientFn
    left_bc: BoundaryCondition
    right_bc: BoundaryCondition
    nodes: np.ndarray
    transition_spans: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.length <= 0.0:
            raise DomainError("interval length must be positive")
        if not isinstance(self.left_bc, SteklovEnd) and not isinstance(
            self.right_bc, SteklovEnd
        ):
            raise DomainError("at least one endpoint must carry a Steklov condition")
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise DomainError("mesh must contain at least two nodes")
        if abs(nodes[0]) > 1e-14 or abs(nodes[-1] - self.length) > 1e-12 * max(self.length, 1.0):
            raise DomainError("mesh must span exactly [0, length]")
        if np.any(np.diff(nodes) <= 0.0):
            raise DomainError("mesh nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @cached_property
    def cond(self) -> np.ndarray:
        """Edge conductances w(t_mid)/dt, on a mesh checked first."""
        check_mesh(self.nodes, self.transition_spans)
        mid = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        w_mid = np.broadcast_to(self.grad_weight(mid), mid.shape)
        if np.any(w_mid <= 0.0):
            raise DomainError("gradient weight must be positive on the interval")
        return w_mid / np.diff(self.nodes)

    @cached_property
    def lump(self) -> np.ndarray:
        return lumped_mass(self.nodes)

    @cached_property
    def q_node(self) -> np.ndarray:
        return _nonnegative_samples(self.potential, self.nodes)

    @cached_property
    def w_node(self) -> np.ndarray:
        return _nonnegative_samples(self.grad_weight, self.nodes)


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
        if self.collar_length <= 0.0:
            raise DomainError("collar length must be positive")
        if self.steklov_ends not in ("both", "left", "right"):
            raise DomainError(
                f"steklov_ends must be 'both', 'left' or 'right', got {self.steklov_ends!r}"
            )


def graded_mesh(
    length: float, n_elements: int, spans: tuple[tuple[float, float], ...] = ()
) -> np.ndarray:
    """Mesh of [0, length] refined so each span gets at least MIN_ELEMENTS_PER_SPAN elements.

    Elements are distributed across the segments cut by the span endpoints
    in proportion to segment length, with the per-span minimum enforced, and
    are uniform within each segment.
    """
    if length <= 0.0:
        raise DomainError("length must be positive")
    if n_elements < 1:
        raise DomainError("element count must be positive")
    cuts = {0.0, length}
    for a, b in spans:
        if not 0.0 <= a < b <= length:
            raise DomainError(f"span ({a}, {b}) outside [0, {length}]")
        cuts.add(a)
        cuts.add(b)
    breaks = sorted(cuts)
    span_set = {(a, b) for a, b in spans}
    pieces = [[0.0]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        seg = max(1, round(n_elements * (b - a) / length))
        if (a, b) in span_set:
            seg = max(seg, MIN_ELEMENTS_PER_SPAN)
        step = (b - a) / seg
        pieces += [a + np.arange(1, seg) * step, [b]]
    return np.concatenate(pieces)


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
    n_elements: int,
    boundary_weights: tuple[float, float],
    transition_spans: tuple[tuple[float, float], ...],
) -> SturmProblem:
    """The 1D family of a collar base on its graded mesh; its Steklov ends carry the weights."""
    ends = geom.steklov_ends
    left = SteklovEnd(boundary_weights[0]) if ends in ("both", "left") else NeumannEnd()
    right = SteklovEnd(boundary_weights[1]) if ends in ("both", "right") else NeumannEnd()
    return SturmProblem(
        length=geom.collar_length,
        grad_weight=grad_weight,
        potential=potential,
        left_bc=left,
        right_bc=right,
        nodes=graded_mesh(geom.collar_length, n_elements, transition_spans),
        transition_spans=transition_spans,
    )


def lumped_mass(nodes: np.ndarray) -> np.ndarray:
    dt = np.diff(nodes)
    lump = np.zeros(len(nodes))
    lump[:-1] += 0.5 * dt
    lump[1:] += 0.5 * dt
    return lump


def _nonnegative_samples(fn: CoefficientFn, nodes: np.ndarray) -> np.ndarray:
    values = np.broadcast_to(fn(nodes), nodes.shape)
    if np.any(values < 0.0):
        raise DomainError("potential must be nonnegative on the interval")
    return values


def _steklov_nodes(p: SturmProblem) -> tuple[list[int], list[float]]:
    """Indices and boundary weights of the Steklov end nodes."""
    ends = ((0, p.left_bc), (len(p.nodes) - 1, p.right_bc))
    spectral = [(i, bc.weight) for i, bc in ends if isinstance(bc, SteklovEnd)]
    return [i for i, _ in spectral], [weight for _, weight in spectral]


def assemble(p: SturmProblem) -> PartitionedSystem:
    """Discrete bilinear form of the problem, partitioned onto Steklov endpoints.

    Stiffness entries come from the gradient weight at element midpoints,
    the potential is lumped at the nodes with trapezoidal weights, and
    Neumann endpoints are treated as interior unknowns (natural condition).
    """
    cond = p.cond
    n = len(p.nodes)
    diag = np.zeros(n)
    diag[:-1] += cond
    diag[1:] += cond
    diag += p.q_node * p.lump
    off = -cond  # coupling between consecutive nodes

    boundary, weights = _steklov_nodes(p)
    interior = [i for i in range(n) if i not in boundary]

    n_i = len(interior)
    ab = np.zeros((2, n_i))
    ab[0] = diag[interior]
    inter = np.array(interior)
    consecutive = inter[1:] - inter[:-1] == 1
    ab[1, : n_i - 1][consecutive] = off[inter[:-1][consecutive]]

    a_ib = np.zeros((n_i, len(boundary)))
    for col, bnode in enumerate(boundary):
        for drow, inode in ((0, bnode - 1), (0, bnode + 1)):
            if 0 <= inode < n and inode in interior:
                a_ib[interior.index(inode), col] = off[min(inode, bnode)]
    a_bb = np.diag(diag[boundary])
    return PartitionedSystem(ab, a_ib, a_bb, np.array(weights))


def _reduce_ladder(
    cond: np.ndarray, shunt: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pi-network (g1, y, g2) of each row's ladder between its end nodes.

    cond has one entry per element; shunt has one row per ladder and one
    column per node. Each element starts as (0, c_e, 0); neighbours A, B
    are merged by eliminating their shared node, whose total shunt is
    m = g2_A + s + g1_B, with d = y_A + y_B + m:

        y <- y_A y_B / d,  g1 <- g1_A + y_A m / d,  g2 <- g2_B + y_B m / d.

    The first level merges elements 2i and 2i + 1, whose g1 and g2 are 0,
    so it is built from cond and the odd nodes' shunts alone: m = s, and
    g1 = y_A share, g2 = y_B share with share = m / d, as the general step
    gives them exactly. The shunts of the two end nodes are left out of g1
    and g2.
    """
    rows, n = shunt.shape[0], len(cond)
    paired = n - n % 2
    ya, yb = cond[0:paired:2], cond[1:paired:2]
    m = shunt[:, 1:paired:2]
    d = ya + yb + m
    share = m / d
    g1, y, g2 = ya * share, ya * yb / d, yb * share
    if paired < n:  # odd count: the last element, (0, c_e, 0), waits for the next level
        g1, y, g2 = (
            np.concatenate((new, np.broadcast_to(old, (rows, 1))), axis=1)
            for new, old in zip((g1, y, g2), (0.0, cond[-1], 0.0))
        )
    junction = shunt[:, 2:-1:2]
    while y.shape[1] > 1:
        paired = y.shape[1] - y.shape[1] % 2
        ya, yb = y[:, 0:paired:2], y[:, 1:paired:2]
        m = g2[:, 0:paired:2] + junction[:, 0:paired:2] + g1[:, 1:paired:2]
        d = ya + yb + m
        share = m / d
        merged = (g1[:, 0:paired:2] + ya * share, ya * yb / d, g2[:, 1:paired:2] + yb * share)
        if paired < y.shape[1]:  # odd count: the last segment waits for the next level
            merged = tuple(
                np.concatenate((new, old[:, -1:]), axis=1)
                for new, old in zip(merged, (g1, y, g2))
            )
        g1, y, g2 = merged
        junction = junction[:, 1::2]
    return g1[:, 0], y[:, 0], g2[:, 0]


def _ladder_eigenvalues(
    cond: np.ndarray, shunt: np.ndarray, left: BoundaryCondition, right: BoundaryCondition
) -> np.ndarray:
    """Ascending Dirichlet-to-Neumann eigenvalues of each row's ladder, one column per Steklov end.

    With end admittances G1 = g1 + s_0 and G2 = g2 + s_N, both ends
    spectral give the 2x2 matrix [[G1 + y, -y], [-y, G2 + y]] against the
    boundary weights; its smaller eigenvalue is taken as det / sigma_max,
    det = G1 G2 + y (G1 + G2), so it keeps full relative precision down to
    an exact 0.0. One spectral end sees the other end through y in series.
    """
    g1, y, g2 = _reduce_ladder(cond, shunt)
    end1 = g1 + shunt[:, 0]
    end2 = g2 + shunt[:, -1]
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
    """
    lam, mu = np.asarray(fiber_value, float), np.asarray(mu, float)
    pairs = np.broadcast(lam, mu).shape
    cond = p.cond  # checks the mesh before any coefficient is sampled at the nodes
    shunt = lam[..., None] * p.q_node
    if mu.any():  # else mu w vanishes, and 0 + x is x exactly
        shunt = mu[..., None] * p.w_node + shunt
    shunt = np.multiply(shunt, p.lump, out=np.empty(pairs + p.nodes.shape))
    values = _ladder_eigenvalues(cond, shunt.reshape(-1, len(p.nodes)), p.left_bc, p.right_bc)
    return values.reshape(pairs + values.shape[1:])


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
    """Nodal values of the discrete energy-minimizing extension of endpoint data."""
    system = assemble(p)
    boundary, _ = _steklov_nodes(p)
    interior = [i for i in range(len(p.nodes)) if i not in boundary]
    full = np.zeros(len(p.nodes))
    full[boundary] = boundary_values
    full[interior] = harmonic_extension(system, np.asarray(boundary_values, float))
    return full


def _reduce_rows(
    problem: SturmProblem,
    live: list[tuple[int, tuple[float, int]]],
    start: int,
    block: list[tuple[float, int]],
    rows: dict[tuple[int, int], list[list[float]]],
) -> None:
    """Put in rows, under (fiber position, sub-block start), each live fiber's rows of a mode block.

    block holds the modes from position `start`, a multiple of _SUB_BLOCK,
    and is cut into sub-blocks of _SUB_BLOCK modes; live holds
    (position, (lambda, multiplicity)) entries. The (fiber, sub-block)
    pairs already in rows are skipped, and the (lambda, mu) pairs of the
    rest are reduced through dtn_eigenvalues, at most _MAX_BLOCK rows per
    call. A row is stored as a list of Python floats.
    """
    todo = [
        (position, lam, sub, block[sub - start : sub - start + _SUB_BLOCK])
        for position, (lam, _) in live
        for sub in range(start, start + len(block), _SUB_BLOCK)
        if (position, sub) not in rows
    ]
    if not todo:
        return
    lam = [fiber_value for _, fiber_value, _, sub_block in todo for _ in sub_block]
    mu = [value for *_, sub_block in todo for value, _ in sub_block]
    values = [
        row
        for i in range(0, len(lam), _MAX_BLOCK)
        for row in dtn_eigenvalues(problem, lam[i : i + _MAX_BLOCK], mu[i : i + _MAX_BLOCK]).tolist()
    ]
    at = 0
    for position, _, sub, sub_block in todo:
        rows[position, sub] = values[at : at + len(sub_block)]
        at += len(sub_block)


def collar_branch(
    problem: SturmProblem,
    fibers: list[tuple[float, int]],
    modes: CachedEntries,
    top: float,
    rows: dict[tuple[int, int], list[list[float]]],
    first: int = 0,
) -> tuple[list[tuple[float, EigenSource]], bool]:
    """Tagged eigenvalues <= top of the auxiliary operators of a block of fiber eigenvalues.

    fibers holds ascending (lambda, multiplicity) entries; the first sits
    at position `first` of its stream. The cross-section modes mu are read
    in ascending order, in sub-blocks of 8 aligned to the stream's start.
    The first step reads one sub-block and each later step twice as many
    modes as the last, but never more sub-blocks than keep the fibers whose
    walk is still live within one dtn_eigenvalues call of 64 rows: a lone
    fiber reads 8, 16, 32 and then 64 modes, a block of 8 fibers 8 at a
    time. Each step's modes are reduced for the live fibers as flat
    (lambda, mu) pairs. Reduced rows are kept in `rows` under (fiber
    position, sub-block start), so a later walk over the same problem and
    streams, such as one at a doubled top, reuses them.

    Every eigenvalue is nondecreasing in lambda and in mu. So a fiber's
    walk stops at its first mode whose smallest eigenvalue exceeds top, and
    the fiber walk stops at the first fiber whose mode 0 starts above top;
    the second value returned says whether that fiber is in the block. The
    union collected so far is complete below top. If the cross-section
    spectrum ends first, the union is complete when the spectrum is; an
    incomplete list raises CompletenessError.
    """
    tagged: list[tuple[float, EigenSource]] = []
    live = list(enumerate(fibers, first))
    stopped = False
    start, size = 0, _SUB_BLOCK
    while live:
        size = min(size, _SUB_BLOCK * max(1, _MAX_BLOCK // (_SUB_BLOCK * len(live))))
        block = modes.take(start, size)
        if not block:  # the stream ended at the last block's end
            break
        _reduce_rows(problem, live, start, block, rows)
        subs = range(start, start + len(block), _SUB_BLOCK)
        walking = []
        for position, (fiber_value, fiber_mult) in live:
            fiber_rows = chain.from_iterable(rows[position, sub] for sub in subs)
            for j, ((cross_value, cross_mult), row) in enumerate(zip(block, fiber_rows)):
                if row[0] > top:
                    break
                for branch, value in enumerate(row):
                    if value <= top:
                        tagged.append((value, EigenSource(
                            fiber_value, fiber_mult, cross_value, cross_mult, branch
                        )))
            else:
                walking.append((position, (fiber_value, fiber_mult)))
                continue
            if start == j == 0:  # this branch and every later one start above top
                stopped = True
                break
        live = walking
        if len(block) < size:
            break
        start += size
        size *= 2
    if live and not modes.complete:
        raise CompletenessError(
            f"cross-section spectrum ends after {start + len(block)} entries, "
            f"before a mode exceeds top={top}"
        )
    return tagged, stopped


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
    with lambda = fiber_eigenvalue and q = inv_sq_weight; see collar_branch
    for how the modes are walked and when the union is complete below top.
    """
    check_top(top, geom.cross_section)
    if fiber_eigenvalue < 0.0:
        raise DomainError("fiber eigenvalue must be nonnegative")
    problem = collar_problem(
        geom,
        grad_weight,
        inv_sq_weight,
        n_elements=n_elements,
        boundary_weights=boundary_weights,
        transition_spans=transition_spans,
    )
    modes = CachedEntries(geom.cross_section)
    tagged, _ = collar_branch(problem, [(fiber_eigenvalue, 1)], modes, top, {})
    return merge_tagged(tagged)

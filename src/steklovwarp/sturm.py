"""Weighted 1D Steklov/Neumann boundary problems on a collar interval.

The separated form of the auxiliary base problem is a weighted equation
-(w a')' + q a = 0 on [0, L] with a spectral (Steklov) condition at one or
both endpoints; its Dirichlet-to-Neumann eigenvalues feed the warped
product assembly. Discretization is by piecewise-linear elements with
midpoint quadrature for the gradient weight and trapezoidal (lumped)
quadrature for the zeroth-order term, which keeps the system symmetric
positive and second-order accurate.

The discrete problem is a resistor ladder: element e is a conductance
c_e = w(t_mid)/dt_e between its nodes and node i a shunt s_i = q(t_i) lump_i
to ground. Its Dirichlet-to-Neumann map is the admittance of the two-port
seen from the end nodes (a Stieltjes continued fraction; Curtis & Morrow,
Inverse Problems for Electrical Networks, 2000). The interior nodes are
eliminated pairwise, as a tree of star-mesh steps, in which every term is
positive: nothing cancels, and a problem without potential has the exact
eigenvalue 0.0. The reduction runs on a 2-D array with one row per
cross-section mode, so a whole auxiliary base spectrum costs a few array
operations per block of modes, on coefficients evaluated once per collar
(DiscreteCollar). `assemble` builds the same form as a partitioned matrix;
it serves the Rayleigh quotient, the minimizing extension, and as the
reference the reduction is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CompletenessError, DomainError, MeshResolutionError
from .linalg import PartitionedSystem, harmonic_extension
from .profiles import CoefficientFn
from .provenance import EigenSource, SpectrumWithProvenance, merge_tagged
from .spectra import CachedEntries, ClosedSpectrum

# cross-section modes reduced together: the first block, and the cap that
# bounds the arrays of a block as it doubles
_FIRST_BLOCK = 8
_MAX_BLOCK = 64


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
    """Weighted 1D problem -(w a')' + q a = 0 with endpoint conditions and a mesh.

    grad_weight w must be positive and potential q nonnegative on [0, length].
    transition_spans lists intervals that the mesh must resolve with at
    least 8 elements each (coefficient plateaus changing by orders of
    magnitude live there).
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

    @property
    def n_elements(self) -> int:
        return len(self.nodes) - 1

    @property
    def steklov_side(self) -> str:
        left = isinstance(self.left_bc, SteklovEnd)
        right = isinstance(self.right_bc, SteklovEnd)
        return "both" if left and right else ("left" if left else "right")


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
    length: float,
    n_elements: int,
    spans: tuple[tuple[float, float], ...] = (),
    min_per_span: int = 8,
) -> np.ndarray:
    """Mesh of [0, length] refined so each span gets at least min_per_span elements.

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
    nodes = [0.0]
    for a, b in zip(breaks[:-1], breaks[1:]):
        seg = max(1, round(n_elements * (b - a) / length))
        if (a, b) in span_set:
            seg = max(seg, min_per_span)
        step = (b - a) / seg
        for i in range(1, seg):
            nodes.append(a + i * step)
        nodes.append(b)
    return np.array(nodes)


def elements_inside(nodes: np.ndarray, a: float, b: float) -> int:
    tol = 1e-12 * max(nodes[-1], 1.0)
    left = nodes[:-1]
    right = nodes[1:]
    return int(np.count_nonzero((left >= a - tol) & (right <= b + tol)))


def end_conditions(
    steklov_ends: str, boundary_weights: tuple[float, float]
) -> tuple[BoundaryCondition, BoundaryCondition]:
    """Left and right conditions of a collar whose Steklov ends carry the given weights."""
    left = steklov_ends in ("both", "left")
    right = steklov_ends in ("both", "right")
    return (
        SteklovEnd(boundary_weights[0]) if left else NeumannEnd(),
        SteklovEnd(boundary_weights[1]) if right else NeumannEnd(),
    )


def _check_mesh(nodes: np.ndarray, spans: tuple[tuple[float, float], ...]) -> None:
    n_elements = len(nodes) - 1
    if n_elements < 16:
        raise DomainError(f"mesh must have at least 16 elements, got {n_elements}")
    for a, b in spans:
        inside = elements_inside(nodes, a, b)
        if inside < 8:
            raise MeshResolutionError(
                f"transition interval ({a:.6g}, {b:.6g}) resolved by only "
                f"{inside} elements, need at least 8"
            )


def _lumped_mass(nodes: np.ndarray) -> np.ndarray:
    dt = np.diff(nodes)
    lump = np.zeros(len(nodes))
    lump[:-1] += 0.5 * dt
    lump[1:] += 0.5 * dt
    return lump


def _conductances(nodes: np.ndarray, grad_weight: CoefficientFn) -> np.ndarray:
    """Edge conductances w(t_mid)/dt of the ladder."""
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    w_mid = np.array([grad_weight(x) for x in mid])
    if np.any(w_mid <= 0.0):
        raise DomainError("gradient weight must be positive on the interval")
    return w_mid / np.diff(nodes)


def _nonnegative_samples(fn: CoefficientFn, nodes: np.ndarray) -> np.ndarray:
    values = np.array([fn(x) for x in nodes])
    if np.any(values < 0.0):
        raise DomainError("potential must be nonnegative on the interval")
    return values


def _ladder(p: SturmProblem) -> tuple[np.ndarray, np.ndarray]:
    """Edge conductances and node shunts of the problem's resistor ladder."""
    _check_mesh(p.nodes, p.transition_spans)
    cond = _conductances(p.nodes, p.grad_weight)
    shunt = _nonnegative_samples(p.potential, p.nodes) * _lumped_mass(p.nodes)
    return cond, shunt


def assemble(p: SturmProblem) -> PartitionedSystem:
    """Discrete bilinear form of the problem, partitioned onto Steklov endpoints.

    Stiffness entries come from the gradient weight at element midpoints,
    the potential is lumped at the nodes with trapezoidal weights, and
    Neumann endpoints are treated as interior unknowns (natural condition).
    """
    cond, shunt = _ladder(p)
    n = len(p.nodes)
    diag = np.zeros(n)
    diag[:-1] += cond
    diag[1:] += cond
    diag += shunt
    off = -cond  # coupling between consecutive nodes

    boundary: list[int] = []
    weights: list[float] = []
    if isinstance(p.left_bc, SteklovEnd):
        boundary.append(0)
        weights.append(p.left_bc.weight)
    if isinstance(p.right_bc, SteklovEnd):
        boundary.append(n - 1)
        weights.append(p.right_bc.weight)
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

    The shunts of the two end nodes are left out of g1 and g2.
    """
    rows = shunt.shape[0]
    y = np.broadcast_to(cond, (rows, len(cond)))
    g1 = np.zeros_like(y)
    g2 = np.zeros_like(y)
    junction = shunt[:, 1:-1]
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


def dtn_eigenvalues(p: SturmProblem) -> np.ndarray:
    """Ascending Dirichlet-to-Neumann eigenvalues: one per Steklov endpoint."""
    cond, shunt = _ladder(p)
    return _ladder_eigenvalues(cond, shunt[None, :], p.left_bc, p.right_bc)[0]


def rayleigh_quotient(p: SturmProblem, samples: np.ndarray) -> float:
    """Discrete energy quotient of nodal values against the Steklov boundary mass.

    Always at least the smallest Dirichlet-to-Neumann eigenvalue up to
    roundoff; equality holds for the discrete energy-minimizing extension
    of the minimizing boundary data.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != p.nodes.shape:
        raise DomainError("samples must match mesh nodes")
    system = assemble(p)
    boundary = [0] if isinstance(p.left_bc, SteklovEnd) else []
    if isinstance(p.right_bc, SteklovEnd):
        boundary.append(len(p.nodes) - 1)
    interior = [i for i in range(len(p.nodes)) if i not in boundary]
    x_b = samples[boundary]
    x_i = samples[interior]
    denom = float(x_b @ (system.b_bb * x_b))
    if denom <= 0.0:
        raise DomainError("test function vanishes on all Steklov nodes")
    a_ii = system.interior_dense()
    num = float(
        x_i @ (a_ii @ x_i) + 2.0 * x_i @ (system.a_ib @ x_b) + x_b @ (system.a_bb @ x_b)
    )
    return num / denom


def minimizing_extension(p: SturmProblem, boundary_values: np.ndarray) -> np.ndarray:
    """Nodal values of the discrete energy-minimizing extension of endpoint data."""
    system = assemble(p)
    boundary = [0] if isinstance(p.left_bc, SteklovEnd) else []
    if isinstance(p.right_bc, SteklovEnd):
        boundary.append(len(p.nodes) - 1)
    interior = [i for i in range(len(p.nodes)) if i not in boundary]
    full = np.zeros(len(p.nodes))
    full[boundary] = boundary_values
    full[interior] = harmonic_extension(system, np.asarray(boundary_values, float))
    return full


@dataclass(frozen=True, eq=False)
class DiscreteCollar:
    """A collar base discretized once for all its auxiliary problems.

    Holds the cross-section modes, read once and shared by every fiber
    branch, the graded mesh, the edge conductances w(t_mid)/dt, the lumped
    node masses, the gradient weight w and the fiber weight v at the nodes,
    and the endpoint conditions. Cross-section mode mu under fiber
    eigenvalue lambda has node shunts (mu w + lambda v) lump.
    """

    modes: CachedEntries
    nodes: np.ndarray
    cond: np.ndarray
    lump: np.ndarray
    w_node: np.ndarray
    v_node: np.ndarray
    left_bc: BoundaryCondition
    right_bc: BoundaryCondition


def discretize_collar(
    geom: BaseGeometry,
    grad_weight: CoefficientFn,
    inv_sq_weight: CoefficientFn,
    *,
    n_elements: int,
    boundary_weights: tuple[float, float],
    transition_spans: tuple[tuple[float, float], ...],
) -> DiscreteCollar:
    """Evaluate the coefficients of a collar's auxiliary problems on its graded mesh."""
    nodes = graded_mesh(geom.collar_length, n_elements, transition_spans)
    _check_mesh(nodes, transition_spans)
    left, right = end_conditions(geom.steklov_ends, boundary_weights)
    return DiscreteCollar(
        modes=CachedEntries(geom.cross_section),
        nodes=nodes,
        cond=_conductances(nodes, grad_weight),
        lump=_lumped_mass(nodes),
        w_node=_nonnegative_samples(grad_weight, nodes),
        v_node=_nonnegative_samples(inv_sq_weight, nodes),
        left_bc=left,
        right_bc=right,
    )


def collar_branch(
    collar: DiscreteCollar, fiber_value: float, fiber_mult: int, top: float
) -> list[tuple[float, EigenSource]]:
    """Tagged eigenvalues <= top of the auxiliary operator of one fiber eigenvalue.

    Cross-section modes are read in ascending mu, in blocks of 8 that
    double up to 64, and each block is reduced as one array. Since every
    eigenvalue is nondecreasing in mu, the walk stops at the first mode
    whose smallest eigenvalue exceeds top, and the union collected so far
    is complete below top. A stream that ends first is complete if it is
    the point spectrum; an explicit list raises CompletenessError.
    """
    tagged: list[tuple[float, EigenSource]] = []
    start, size = 0, _FIRST_BLOCK
    end: Exception | None = None
    while end is None:
        block, end = collar.modes.take(start, size)
        start += size
        mu = np.array([value for value, _ in block])
        shunt = (mu[:, None] * collar.w_node + fiber_value * collar.v_node) * collar.lump
        values = _ladder_eigenvalues(collar.cond, shunt, collar.left_bc, collar.right_bc)
        for (cross_value, cross_mult), row in zip(block, values):
            if row[0] > top:
                return tagged
            tagged += [
                (float(value), EigenSource(fiber_value, fiber_mult, cross_value, cross_mult, branch))
                for branch, value in enumerate(row)
                if value <= top
            ]
        size = min(2 * size, _MAX_BLOCK)
    if isinstance(end, CompletenessError):
        raise end
    return tagged


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

    Each cross-section mode mu reduces the base problem to a 1D problem with
    potential q = mu * w + fiber_eigenvalue * inv_sq_weight; see
    collar_branch for how the modes are walked and when the union is
    complete below top.
    """
    if top <= 0.0:
        raise DomainError("top must be positive")
    if fiber_eigenvalue < 0.0:
        raise DomainError("fiber eigenvalue must be nonnegative")
    collar = discretize_collar(
        geom,
        grad_weight,
        inv_sq_weight,
        n_elements=n_elements,
        boundary_weights=boundary_weights,
        transition_spans=transition_spans,
    )
    return merge_tagged(collar_branch(collar, fiber_eigenvalue, 1, top))

"""Direct Steklov solver for 2D warped cylinders, independent of the decomposition.

The surface [0, L] x S^1 with metric dt^2 + h(t)^2 dtheta^2 is discretized
on a tensor grid by conservative finite differences in the weighted energy
form: axial fluxes carry h at element midpoints, fiber differences carry
1/h, and the boundary circles carry the measure h dtheta. Ordered ring by
ring (one ring of n_theta nodes per axial node), the energy is
block-tridiagonal: ring j has the block K_j = diag_ring[j] I - cfib[j] N,
with N the periodic neighbour matrix, and rings j and j+1 couple through
-cax[j] I.

revolution_spectrum computes the boundary Schur complement by block
Gaussian elimination, one interior ring at a time (Golub & Van Loan,
Matrix Computations, 4.5), so nothing larger than a few n_theta x n_theta
blocks is formed, and then solves the dense boundary eigenproblem. Each K_j
is treated as a general SPD block. Its circulant structure is deliberately
left unused: separating Fourier modes would reduce the grid to the same
per-mode 1D problems the decomposition solves, and the oracle would check
the decomposition against itself.

assemble_revolution builds the same energy as a banded partitioned system,
the reference the ring elimination is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError, NumericError
from .linalg import PartitionedSystem, sym_eig
from .profiles import Warp, WarpedMetricSpec, transition_spans, value_fn
from .spectra import circle_spectrum, point_spectrum
from .sturm import BaseGeometry, check_mesh, graded_mesh, lumped_mass
from .assembler import steklov_spectrum_warped


@dataclass(frozen=True, eq=False)
class RevolutionGrid:
    """Tensor grid for the warped cylinder: graded axial nodes, uniform fiber angle."""

    axial_nodes: np.ndarray
    n_theta: int
    length: float
    fiber_length: float
    warp: Warp
    steklov_ends: str = "both"

    def __post_init__(self) -> None:
        nodes = np.asarray(self.axial_nodes, dtype=float)
        if len(nodes) < 32:
            raise DomainError(f"need at least 32 axial nodes, got {len(nodes)}")
        if self.n_theta < 16 or self.n_theta % 2 != 0:
            raise DomainError("n_theta must be an even integer of at least 16")
        if self.fiber_length <= 0.0:
            raise DomainError("fiber length must be positive")
        if self.steklov_ends not in ("both", "left", "right"):
            raise DomainError(f"bad steklov_ends {self.steklov_ends!r}")
        check_mesh(nodes, transition_spans(self.warp))
        object.__setattr__(self, "axial_nodes", nodes)

    @property
    def n_axial(self) -> int:
        return len(self.axial_nodes)

    @property
    def n_boundary(self) -> int:
        return self.n_theta * (2 if self.steklov_ends == "both" else 1)


def make_grid(
    length: float,
    fiber_length: float,
    warp: Warp,
    n_axial: int,
    n_theta: int,
    steklov_ends: str = "both",
) -> RevolutionGrid:
    """Build a grid whose axial mesh resolves the warp's transition intervals."""
    nodes = graded_mesh(length, max(n_axial - 1, 1), transition_spans(warp))
    return RevolutionGrid(nodes, n_theta, length, fiber_length, warp, steklov_ends)


def _ring_coefficients(
    grid: RevolutionGrid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Warp at the rings, axial and fiber conductances, ring diagonals, angle step.

    Ring i couples to ring i+1 by -cax[i] per angle and to its own angular
    neighbours by -cfib[i]; diag_ring[i] is the matching diagonal entry.
    """
    t = grid.axial_nodes
    dth = grid.fiber_length / grid.n_theta
    h = value_fn(grid.warp)
    hv = h(t)
    if np.any(hv <= 0.0):
        raise DomainError("warp must be positive along the axis")
    hm = h(0.5 * (t[:-1] + t[1:]))

    # axial conductance between rings i and i+1, fiber conductance within ring i
    cax = hm * dth / np.diff(t)
    cfib = lumped_mass(t) / (hv * dth)

    diag_ring = np.zeros(len(t))
    diag_ring[:-1] += cax
    diag_ring[1:] += cax
    diag_ring += 2.0 * cfib
    return hv, cax, cfib, diag_ring, dth


def assemble_revolution(grid: RevolutionGrid) -> PartitionedSystem:
    """Partitioned discrete energy of the warped cylinder, boundary = Steklov circles.

    The banded reference form of what revolution_spectrum reduces ring by ring.
    """
    hv, cax, cfib, diag_ring, dth = _ring_coefficients(grid)
    n_t = grid.n_axial
    n_th = grid.n_theta

    left_st = grid.steklov_ends in ("both", "left")
    right_st = grid.steklov_ends in ("both", "right")
    i0 = 1 if left_st else 0
    i1 = n_t - 2 if right_st else n_t - 1
    rings = np.arange(i0, i1 + 1)
    n_rings = len(rings)
    n_i = n_rings * n_th

    ab = np.zeros((n_th + 1, n_i))
    ab[0] = np.repeat(diag_ring[rings], n_th)
    # fiber neighbors within each ring: distance 1, except the wrap pair at distance n_th-1
    fib = np.repeat(-cfib[rings], n_th)
    mask = np.ones(n_i, dtype=bool)
    mask[n_th - 1 :: n_th] = False  # no distance-1 coupling across ring ends
    ab[1, : n_i - 1] = np.where(mask[:-1], fib[:-1], 0.0)
    ab[n_th - 1, 0::n_th] = -cfib[rings]  # wrap: (ring, 0) with (ring, n_th-1)
    # axial neighbors between consecutive interior rings: distance n_th
    if n_rings > 1:
        inter_cax = cax[rings[:-1]]
        ab[n_th, : n_i - n_th] = np.repeat(-inter_cax, n_th)

    boundary_rings = ([0] if left_st else []) + ([n_t - 1] if right_st else [])
    n_b = len(boundary_rings) * n_th
    a_ib = np.zeros((n_i, n_b))
    col = 0
    for ring in boundary_rings:
        if ring == 0:
            rows = np.arange(n_th)  # interior ring 1 is the first block
            a_ib[rows, col + rows] = -cax[0]
        else:
            rows = (n_rings - 1) * n_th + np.arange(n_th)
            a_ib[rows, col + np.arange(n_th)] = -cax[-1]
        col += n_th

    a_bb = np.zeros((n_b, n_b))
    col = 0
    for ring in boundary_rings:
        block = np.zeros((n_th, n_th))
        np.fill_diagonal(block, diag_ring[ring])
        idx = np.arange(n_th - 1)
        block[idx, idx + 1] = -cfib[ring]
        block[idx + 1, idx] = -cfib[ring]
        block[0, n_th - 1] = -cfib[ring]
        block[n_th - 1, 0] = -cfib[ring]
        a_bb[col : col + n_th, col : col + n_th] = block
        col += n_th

    b_bb = np.repeat(hv[boundary_rings] * dth, n_th)
    return PartitionedSystem(ab, a_ib, a_bb, b_bb)


def _neighbour_matrix(n: int) -> np.ndarray:
    """Adjacency of n points on a circle: ones at angular distance 1, periodically."""
    idx = np.arange(n)
    nbr = np.zeros((n, n))
    nbr[idx, (idx + 1) % n] = 1.0
    nbr[idx, (idx - 1) % n] = 1.0
    return nbr


def _ring_schur(
    cax: np.ndarray, cfib: np.ndarray, diag_ring: np.ndarray, n_theta: int, both: bool
) -> np.ndarray:
    """Schur complement of the grid energy onto ring 0, and onto the last ring if `both`.

    Eliminates rings 1, 2, ... one at a time. The state is the two-port
    [[P, Q], [Q^T, R]] on ring 0 and the frontier ring; eliminating the
    frontier ring j, which couples to ring j+1 by -cax[j] I, gives
    P - Q R^-1 Q^T, cax[j] Q R^-1 and K_{j+1} - cax[j]^2 R^-1.
    """
    nbr = _neighbour_matrix(n_theta)
    lower = np.tri(n_theta, dtype=bool)

    def ring_block(j: int) -> np.ndarray:
        block = -cfib[j] * nbr
        block.flat[:: n_theta + 1] += diag_ring[j]
        return block

    n_t = len(diag_ring)
    last_eliminated = n_t - 2 if both else n_t - 1
    p = ring_block(0)
    q = -cax[0] * np.eye(n_theta)
    r = ring_block(1)
    for j in range(1, last_eliminated + 1):
        factor, info = lapack.dpotrf(r, lower=1)
        if info != 0:
            raise NumericError(
                f"interior block is not positive definite: ring {j}, LAPACK info {info}"
            )
        r_inv, info = lapack.dpotri(factor, lower=1)
        if info != 0:
            raise NumericError(f"inverse of ring block {j} failed, LAPACK info {info}")
        r_inv = np.where(lower, r_inv, r_inv.T)  # dpotri fills the lower triangle only
        z = q @ r_inv
        p -= z @ q.T
        if j < n_t - 1:
            q = cax[j] * z
            r = ring_block(j + 1) - cax[j] ** 2 * r_inv
    if not both:
        return p
    return np.block([[p, q], [q.T, r]])


def revolution_spectrum(grid: RevolutionGrid) -> np.ndarray:
    """All discrete Steklov eigenvalues of the grid, ascending, the first an exact 0.0.

    The rings are eliminated from the left; with only the right end
    Steklov they are numbered from the right instead.
    """
    hv, cax, cfib, diag_ring, dth = _ring_coefficients(grid)
    if grid.steklov_ends == "right":
        hv, cax, cfib, diag_ring = hv[::-1], cax[::-1], cfib[::-1], diag_ring[::-1]
    both = grid.steklov_ends == "both"
    schur = _ring_schur(cax, cfib, diag_ring, grid.n_theta, both)
    ends = hv[[0, -1]] if both else hv[:1]
    sqrt_mass = np.sqrt(np.repeat(ends * dth, grid.n_theta))
    d = schur / sqrt_mass[None, :] / sqrt_mass[:, None]
    # B^(1/2) 1 spans the kernel of d, as the constants span that of the Schur
    # complement; a Householder reflection onto the first axis splits it off
    v = sqrt_mass / np.linalg.norm(sqrt_mass)
    v[0] += 1.0
    reflect = np.eye(len(v)) - np.outer(v, v) / v[0]
    deflated = (reflect @ d @ reflect)[1:, 1:]
    values, _ = sym_eig(0.5 * (deflated + deflated.T))
    return np.concatenate(([0.0], values))


def revolution_steklov(grid: RevolutionGrid, count: int) -> np.ndarray:
    """First `count` discrete Steklov eigenvalues of the warped cylinder."""
    if count < 1 or count > grid.n_boundary:
        raise DomainError(
            f"count must lie in [1, {grid.n_boundary}] (boundary nodes), got {count}"
        )
    return revolution_spectrum(grid)[:count]


@dataclass(frozen=True)
class ComparisonReport:
    """Pairing of oracle and assembler spectra below a cutoff."""

    passed: bool
    top: float
    tol: float
    oracle_count: int
    assembler_count: int
    max_rel_dev: float
    first_mismatch: str | None

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = (
            f"{status}: {self.oracle_count} oracle vs {self.assembler_count} assembler "
            f"eigenvalues <= {self.top:.6g}, max relative deviation {self.max_rel_dev:.3e} "
            f"(tol {self.tol:.1e})"
        )
        if self.first_mismatch:
            line += f"; first mismatch: {self.first_mismatch}"
        return line


def matching_metric_spec(grid: RevolutionGrid) -> WarpedMetricSpec:
    """The warped-product description of the same surface the grid discretizes."""
    base = BaseGeometry(
        cross_section=point_spectrum(),
        collar_length=grid.length,
        steklov_ends=grid.steklov_ends,
    )
    return WarpedMetricSpec(
        base_dim=1,
        fiber_dim=1,
        warp=grid.warp,
        base=base,
        fiber=circle_spectrum(grid.fiber_length, 8),
        mode="plain_warp",
    )


def compare_with_assembler(
    grid: RevolutionGrid, top: float, tol: float, *, n_elements: int = 800
) -> ComparisonReport:
    """Check the decomposition: direct grid spectrum against the assembled union.

    Passes when the eigenvalue counts below `top` agree exactly (with
    multiplicity) and the paired sorted values deviate by at most `tol`
    relatively. Near-zero values are compared with `tol` absolutely.
    """
    direct = revolution_spectrum(grid)
    direct = direct[direct <= top]
    assembled = steklov_spectrum_warped(
        matching_metric_spec(grid), top, n_elements=n_elements
    ).flatten()

    n_pairs = min(len(direct), len(assembled))
    max_dev = 0.0
    first_bad = None
    for i in range(n_pairs):
        a, b = float(direct[i]), float(assembled[i])
        dev = abs(a - b) / max(abs(a), abs(b), 1.0)
        max_dev = max(max_dev, dev)
        if dev > tol and first_bad is None:
            first_bad = f"index {i}: oracle {a:.8g} vs assembler {b:.8g}"
    if len(direct) != len(assembled) and first_bad is None:
        i = n_pairs
        extra = direct if len(direct) > len(assembled) else assembled
        side = "oracle" if len(direct) > len(assembled) else "assembler"
        first_bad = f"count mismatch at index {i}: unmatched {side} value {float(extra[i]):.8g}"
    passed = len(direct) == len(assembled) and max_dev <= tol
    return ComparisonReport(
        passed=passed,
        top=top,
        tol=tol,
        oracle_count=len(direct),
        assembler_count=len(assembled),
        max_rel_dev=max_dev,
        first_mismatch=first_bad,
    )

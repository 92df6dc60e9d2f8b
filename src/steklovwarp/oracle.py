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
Matrix Computations, 4.5), and then only the eigenvalues of the dense
boundary eigenproblem. A ring costs one Cholesky factor of its frontier
block, the factor's triangular inverse and triangular BLAS-3 updates, in
place on a few n_theta x n_theta blocks, 4 n_theta^3 flops.

On a plateau warp most axial sections agree to about 1e-13. A
run of m sections that agree with its first to a relative 1e-12 is
folded instead: its two-port is built from one section by repeated
doubling, as cyclic reduction does for constant-coefficient block
systems (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970), and
joined to the state in one block elimination of 9.7 n_theta^3 flops
instead of m ring steps. The doubling costs about log2(m) + popcount(m)
eliminations, and a run is folded only when that is fewer than its
ring steps. Folding moves each conductance of the run by at most 1e-12
relative, and so each eigenvalue by at most that factor (see _ring_schur).

The collar warp is a function of the distance to the boundary, so a grid
is most often mirror-symmetric about its middle, whichever ends are
Steklov. When each conductance lies within the same 1e-12 of its mirror
image, only the left half is eliminated, and its two-port is joined to
its own reflection through the middle (a symmetric two-port is fixed by
its half, Bartlett's bisection theorem): half the ring steps plus one
join, and with one end Neumann one more join that eliminates that end
ring. This moves each right-half conductance by at most 1e-12 relative,
and so each eigenvalue by at most that factor.

Each K_j is treated as a general SPD block.
Its circulant structure is deliberately left unused: separating Fourier
modes would reduce the grid to the same per-mode 1D problems the
decomposition solves, and the oracle would check the decomposition
against itself. This module imports nothing from the assembler; acceptance
criterion 2 pairs revolution_spectrum with the assembled spectrum.

assemble_revolution builds the same energy as a banded PartitionedSystem.
No eigenvalue path calls it. It stays because the tests compare the ring
elimination against it, and the benchmark's tracer hooks it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .linalg import PartitionedSystem, sym_eig
from .profiles import Warp, log_value, transition_spans
from .sturm import check_mesh, check_span, graded_mesh, lumped_mass


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
        if not 0.0 < self.fiber_length < math.inf:  # NaN fails both comparisons
            raise DomainError("circle length must be positive and finite")
        if self.steklov_ends not in ("both", "left", "right"):
            raise DomainError(f"bad steklov_ends {self.steklov_ends!r}")
        check_span(nodes, self.length)
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


def _ring_coefficients(grid: RevolutionGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Warp at the rings, axial and fiber conductances, angle step.

    h at the rings and at the element midpoints is exp of one ln h sample
    on both point sets, the same bits as the 1D ladder's power_fn(warp, 1.0)
    at those points. Ring i couples to ring i+1 by -cax[i] per angle and to
    its own angular neighbours by -cfib[i].
    """
    t = grid.axial_nodes
    dth = grid.fiber_length / grid.n_theta
    h = np.exp(log_value(grid.warp, np.concatenate((t, 0.5 * (t[:-1] + t[1:])))))
    hv, hm = h[: len(t)], h[len(t) :]

    # axial conductance between rings i and i+1, fiber conductance within ring i
    cax = hm * dth / np.diff(t)
    cfib = lumped_mass(t) / (hv * dth)
    return hv, cax, cfib, dth


def _ring_diagonals(cax: np.ndarray, cfib: np.ndarray) -> np.ndarray:
    """Diagonal entry of each ring block: its axial conductances, then twice its fiber one."""
    diag_ring = np.zeros(len(cfib))
    diag_ring[:-1] += cax
    diag_ring[1:] += cax
    return diag_ring + 2.0 * cfib


def assemble_revolution(grid: RevolutionGrid) -> PartitionedSystem:
    """Partitioned discrete energy of the warped cylinder, boundary = Steklov circles.

    The banded reference form of what revolution_spectrum reduces ring by ring.
    """
    from scipy.linalg import block_diag, circulant  # here, so the package imports without it
    hv, cax, cfib, dth = _ring_coefficients(grid)
    diag_ring = _ring_diagonals(cax, cfib)
    n_t, n_th = grid.n_axial, grid.n_theta
    ends = {"both": [0, n_t - 1], "left": [0], "right": [n_t - 1]}[grid.steklov_ends]
    rings = np.delete(np.arange(n_t), ends)
    n_i = len(rings) * n_th
    ab = np.zeros((n_th + 1, n_i))
    ab[0] = np.repeat(diag_ring[rings], n_th)
    # fiber neighbors within each ring: distance 1, except the wrap pair at distance n_th-1
    ab[1] = np.repeat(-cfib[rings], n_th)
    ab[1, n_th - 1 :: n_th] = 0.0  # no distance-1 coupling across ring ends
    ab[n_th - 1, 0::n_th] = -cfib[rings]  # wrap: (ring, 0) with (ring, n_th-1)
    # axial neighbors between consecutive interior rings: distance n_th
    ab[n_th, : n_i - n_th] = np.repeat(-cax[rings[:-1]], n_th)
    a_ib = np.zeros((n_i, len(ends) * n_th))
    for k, ring in enumerate(ends):  # an end ring couples only to its interior neighbour
        row, edge = (0, 0) if ring == 0 else (n_i - n_th, -1)
        a_ib[row : row + n_th, k * n_th : (k + 1) * n_th] = -cax[edge] * np.eye(n_th)

    a_bb = block_diag(*[  # each end ring's block K_ring, a symmetric circulant
        circulant(np.r_[diag_ring[ring], -cfib[ring], np.zeros(n_th - 3), -cfib[ring]])
        for ring in ends
    ])
    b_bb = np.repeat(hv[ends] * dth, n_th)
    return PartitionedSystem(ab, a_ib, a_bb, b_bb)


# relative tolerance within which the sections of a run agree with its first
_RUN_RTOL = 1e-12
# relative step between neighbouring sections that no run crosses: 2 _RUN_RTOL
# and a slack far above the roundoff of the comparisons
_RUN_SPLIT = 2.5 * _RUN_RTOL
# a join sets entries below this to zero: a product of two entries at or above
# it is never subnormal, and subnormal operands or results take a slow path
# in the floating-point unit, up to 100 times slower per operation
_FLUSH_BELOW = np.sqrt(np.finfo(float).tiny)  # 1.5e-154


def _uniform_runs(cax: np.ndarray, cfib: np.ndarray) -> dict[int, int]:
    """Start -> length of each run of uniform sections worth folding.

    Section j is the axial edge from ring j to ring j+1, of conductance
    cax[j], with the fiber conductance cfib[j+1] of ring j+1. A run is a
    maximal stretch of sections that agree with its first section to a
    relative _RUN_RTOL, taken greedily from the left. A run of m sections
    replaces m ring steps (m - 1 from ring 0, whose first section costs
    none) by floor(log2 m) squarings, popcount(m) - 1 joins and one fold
    (none from ring 0); it is kept only when that is fewer, which holds
    exactly when m >= 4.

    Two neighbouring sections of one run both lie within _RUN_RTOL of its
    first, so they differ by at most about 2 _RUN_RTOL: no run crosses a
    step of more than _RUN_SPLIT. The greedy scan runs only inside the
    stretches between such steps that are long enough to hold a kept run,
    which gives the same runs as one scan along the whole axis.
    """
    sections = np.column_stack([cax, cfib[1:]])
    steps = np.abs(np.diff(sections, axis=0)) > _RUN_SPLIT * np.abs(sections[:-1])
    bounds = [0, *(np.flatnonzero(steps.any(axis=1)) + 1).tolist(), len(sections)]
    runs = {}
    for start, end in zip(bounds, bounds[1:]):
        while end - start >= 4:
            first = sections[start]
            off = np.any(np.abs(sections[start:end] - first) > _RUN_RTOL * np.abs(first), axis=1)
            length = int(np.argmax(off)) if off.any() else len(off)
            if length >= 4:
                runs[start] = length
            start += length
    return runs


def _mirror_symmetric(cax: np.ndarray, cfib: np.ndarray) -> bool:
    """Whether each conductance lies within _RUN_RTOL of its mirror image about the middle."""
    return all(
        np.all(np.abs(c - c[::-1]) <= _RUN_RTOL * np.abs(c)) for c in (cax, cfib)
    )


def _ring_schur(cax: np.ndarray, cfib: np.ndarray, n_theta: int, both: bool) -> np.ndarray:
    """Schur complement of the grid energy onto ring 0, and onto the last ring if `both`.

    Eliminates rings 1, 2, ... one at a time. The state is the two-port
    [[P, Q], [Q^T, R]] on ring 0 and the frontier ring; eliminating the
    frontier ring j, which couples to ring j+1 by -cax[j] I, gives
    P - Q R^-1 Q^T, cax[j] Q R^-1 and K_{j+1} - cax[j]^2 R^-1, where K_j
    has the diagonal diag_ring[j] of _ring_diagonals.

    Each step uses one Cholesky factor R = L L^T and M = L^-1 (dtrtri), so
    R^-1 = M^T M. With W = Q M^T (dtrmm), P loses W W^T (dsyrk), Q becomes
    cax[j] W M (dtrmm) and R becomes K_{j+1} - cax[j]^2 M^T M (dlauum):
    4 n_theta^3 flops per ring, in place. P and R are kept as lower
    triangles in Fortran order and mirrored once, at the end.

    A run of uniform sections (see _uniform_runs) is folded instead, with
    the conductances c = cax[s], f = cfib[s + 1] of its first section s.
    Two-ports are joined in the form (X, B, Y), X = A + B and Y = C + B^T:
    the parts of the energy that vanish on constant rings. They are small
    where the axial conductance dwarfs the fiber one (1e8 times on the
    (512, 128) grid's plateau at epsilon = 0.05, 6e10 times on (128, 32) at
    0.01); as parts of A and C they would drown in the roundoff of the
    large terms, the same in every copy of a power. Joining (X1, B1, Y1)
    and (X2, B2, Y2), which share a ring, eliminates it: with Z = Y1 + X2,
    S = Z - B1^T - B2 = C1 + A2 = L L^T and M = L^-1 (dtrtri), the result
    is (X1 - B1 S^-1 Z, -B1 S^-1 B2, Y2 - B2^T S^-1 Z), no difference of
    large terms, in 9.7 n_theta^3 flops (three dtrmm by M, three dgemm).
    One section is (0, -c I, (d - 2c) I - f N), where d = 2c + 2f is
    rounded as diag_ring rounds it, so that the rings of a run keep the
    rounding of the grid's own ring diagonals. Binary powering builds a
    run of m sections: it squares (joins a power with itself)
    floor(log2 m) times and joins the popcount(m) powers that m's binary
    digits select. One more join folds the run into the state, turned
    into (X, B, Y) and back. So the fold costs about
    (log2 m + popcount m) 9.7 n_theta^3 flops, against 4 m n_theta^3 for
    the ring steps of the run. So that no edge is added to a block and
    taken away again, a frontier ring where a run starts holds only the
    half of its block it owns, the fiber energy and the edge on its left;
    the run brings the edge on its right. The blocks stay general SPD; their
    Fourier structure is not used. Rings outside runs take the ring step
    above.

    Every section of a run is within _RUN_RTOL = 1e-12 of its first
    section s, so folding moves each conductance by at most that
    factor. The grid energy is a sum of conductance-weighted squared
    differences, and the boundary mass does not change, so each
    eigenvalue of the Schur complement, and each Steklov eigenvalue,
    moves by at most a factor 1e-12. A join also sets entries below
    _FLUSH_BELOW = 1.5e-154 to zero, far below the roundoff of any entry
    they would be added to.

    When each cax[j] lies within _RUN_RTOL of cax[N - 1 - j] and each
    cfib[j] of cfib[N - j] (N = len(cax)), the steps above run on the
    left half only, with the ring diagonals of the cut arrays, and its
    two-port (X, B, Y) is joined to its reflection (Y, B^T, X), which
    eliminates the middle: about half the ring steps and half the runs,
    plus one join of 9.7 n_theta^3 flops. With an odd ring count the
    middle ring ends the half and keeps half its fiber energy (cfib scaled
    by 0.5, exactly). With an even ring count the middle edge c becomes
    two edges 2c in series through a ring with no fiber energy, which the
    join eliminates. Without `both`, the last ring, a Neumann end, is then
    eliminated by one more join, against the empty two-port (0, 0, 0):
    X - B C^-1 Y with C = Y - B^T, again no difference of large terms.
    Taking the right half as the reflection of the left moves each of its
    conductances by at most _RUN_RTOL = 1e-12 relative, and so, as for a
    run, each eigenvalue by at most that factor.
    """
    from scipy.linalg import blas, lapack  # here, so the package imports without it

    n_t = len(cfib)
    mirrored = n_t >= 3 and _mirror_symmetric(cax, cfib)
    if mirrored:  # from here on, the arrays describe the left half only
        end, half = n_t - 1, n_t // 2
        if n_t % 2:  # ring `half` is the middle: it keeps half its fiber energy
            middle = half
            cax, cfib = cax[:half], np.append(cfib[:half], 0.5 * cfib[half])
        else:  # the middle edge c becomes 2c up to a ring with no fiber energy
            middle = half - 0.5  # an error names the new ring by where it sits
            cax = np.append(cax[: half - 1], 2.0 * cax[half - 1])
            cfib = np.append(cfib[:half], 0.0)
        n_t = len(cfib)
    diag_ring = _ring_diagonals(cax, cfib)

    def add_ring(block: np.ndarray, diag: float, fib: float) -> np.ndarray:
        # adds diag I - fib N to the lower triangle, in place
        flat = block.ravel(order="F")  # a view: LAPACK returns Fortran-order arrays
        flat[:: n_theta + 1] += diag
        flat[1 :: n_theta + 1] -= fib
        flat[n_theta - 1] -= fib  # the wrap pair (n_theta - 1, 0)
        return block

    def new_ring(diag: float, fib: float) -> np.ndarray:
        return add_ring(np.zeros((n_theta, n_theta), order="F"), diag, fib)

    def inverse_factor(block: np.ndarray, ring: float) -> np.ndarray:
        # M = L^-1 for block = L L^T, in place
        factor, info = lapack.dpotrf(block, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise NumericError(
                f"interior block is not positive definite: ring {ring}, LAPACK info {info}"
            )
        m, info = lapack.dtrtri(factor, lower=1, overwrite_c=1)
        if info != 0:
            raise NumericError(f"inverse of ring block {ring} failed, LAPACK info {info}")
        return m

    def flush(block: np.ndarray) -> np.ndarray:
        block[np.abs(block) < _FLUSH_BELOW] = 0.0
        return block

    def join(first, second, ring: float):
        # eliminates `ring`, shared by two-ports (X1, B1, Y1) and (X2, B2, Y2)
        x1, b1, y1 = first
        x2, b2, y2 = second
        z = y1 + x2
        m = flush(inverse_factor(z - b1.T - b2, ring))
        w1 = flush(blas.dtrmm(1.0, m, b1, side=1, lower=1, trans_a=1))
        w2 = flush(blas.dtrmm(1.0, m, b2.T, side=1, lower=1, trans_a=1))
        u = flush(blas.dtrmm(1.0, m, z, lower=1))  # L^-1 Z
        return (
            flush(blas.dgemm(-1.0, w1, u, beta=1.0, c=x1)),
            flush(blas.dgemm(-1.0, w1, w2, trans_b=1)),
            flush(blas.dgemm(-1.0, w2, u, beta=1.0, c=y2)),
        )

    def run_two_port(start: int, length: int) -> tuple:
        c, f = cax[start], cfib[start + 1]
        y = new_ring((2.0 * c + 2.0 * f) - 2.0 * c, f)
        y += np.tril(y, -1).T
        power, run, covered = (np.zeros_like(y), -c * np.eye(n_theta, order="F"), y), None, 0
        for i in range(length.bit_length()):  # power spans 2^i sections
            if i > 0:
                power = join(power, power, start + 2 ** (i - 1))
            if length >> i & 1:
                run = power if run is None else join(run, power, start + covered)
                covered += 2**i
        return run

    def frontier_diag(ring: int) -> float:
        # diagonal of K_ring, or of only the half it owns if a run starts there
        return cax[ring - 1] + 2.0 * cfib[ring] if ring in runs else diag_ring[ring]

    upper = np.triu_indices(n_theta, 1)
    last_eliminated = n_t - 2 if both or mirrored else n_t - 1
    runs = _uniform_runs(cax, cfib)
    j = 0  # the frontier ring; a run from ring 0 starts the state itself
    if 0 not in runs:
        p = new_ring(diag_ring[0], cfib[0])
        q = np.asfortranarray(-cax[0] * np.eye(n_theta))
        r = new_ring(frontier_diag(1), cfib[1])
        j = 1
    while j <= last_eliminated:
        if j in runs:
            run = run_two_port(j, runs[j])
            if j > 0:  # the state as (X, B, Y), from P and R mirrored
                p += np.tril(p, -1).T
                r += np.tril(r, -1).T
                run = join((p + q, q, r + q.T), run, j)
            x, q, y = run
            p, r = np.subtract(x, q, order="F"), np.subtract(y, q.T, order="F")
            p[upper], r[upper] = 0.0, 0.0  # lower triangles again
            if j == 0:
                add_ring(p, 2.0 * cfib[0], cfib[0])  # ring 0's own fiber energy
            j += runs[j]
            if j < n_t - 1 and j not in runs:
                r.ravel(order="F")[:: n_theta + 1] += cax[j]  # the edge on its right
            continue
        m = inverse_factor(r, j)
        w = blas.dtrmm(1.0, m, q, side=1, lower=1, trans_a=1, overwrite_b=1)
        p = blas.dsyrk(-1.0, w, beta=1.0, c=p, lower=1, overwrite_c=1)
        if j < n_t - 1:
            q = blas.dtrmm(cax[j], m, w, side=1, lower=1, overwrite_b=1)
            r, _ = lapack.dlauum(m, lower=1, overwrite_c=1)
            r *= -cax[j] ** 2
            add_ring(r, frontier_diag(j + 1), cfib[j + 1])
        j += 1
    p += np.tril(p, -1).T  # the upper triangles were never written, so they hold 0
    if not (both or mirrored):
        return p
    r += np.tril(r, -1).T
    if mirrored:  # the half (X, B, Y) joined to its reflection (Y, B^T, X)
        x, y = p + q, r + q.T
        x, q, y = join((x, q, y), (y, q.T, x), middle)
        if not both:  # the Neumann end ring, joined to nothing
            x, q, y = join((x, q, y), (np.zeros_like(x),) * 3, end)
        p, r = np.tril(x - q), np.tril(y - q.T)
        p += np.tril(p, -1).T
        r += np.tril(r, -1).T
    return np.block([[p, q], [q.T, r]]) if both else p


def revolution_spectrum(grid: RevolutionGrid) -> np.ndarray:
    """All discrete Steklov eigenvalues of the grid, ascending, the first an exact 0.0.

    The rings are eliminated from the left; with only the right end
    Steklov they are numbered from the right instead. A mirror-symmetric
    grid, at any ends, eliminates only its left half (see _ring_schur).
    """
    hv, cax, cfib, dth = _ring_coefficients(grid)
    if grid.steklov_ends == "right":
        hv, cax, cfib = hv[::-1], cax[::-1], cfib[::-1]
    both = grid.steklov_ends == "both"
    schur = _ring_schur(cax, cfib, grid.n_theta, both)
    ends = hv[[0, -1]] if both else hv[:1]
    sqrt_mass = np.sqrt(np.repeat(ends * dth, grid.n_theta))
    d = schur / np.outer(sqrt_mass, sqrt_mass)  # as symmetric as the Schur complement
    # B^(1/2) 1 spans the kernel of d, as the constants span that of the Schur
    # complement; a Householder reflection H = I - v v^T / v[0] onto the first
    # axis splits it off. H d H = d - v w^T - w v^T, with p = d v / v[0] and
    # w = p - (v^T p / 2 v[0]) v (Golub & Van Loan, 5.1.4); only the block
    # that the kernel's axis leaves is formed
    v = sqrt_mass / np.linalg.norm(sqrt_mass)
    v[0] += 1.0
    p = d @ v / v[0]
    w = p - (v @ p / (2.0 * v[0])) * v
    deflated = d[1:, 1:] - np.outer(v[1:], w[1:]) - np.outer(w[1:], v[1:])
    return np.concatenate(([0.0], sym_eig(deflated)))

"""Direct Steklov solver for 2D warped cylinders, independent of the decomposition.

The surface [0, L] x S^1 with metric dt^2 + h(t)^2 dtheta^2 is discretized
on a tensor grid by conservative finite differences in the weighted energy
form: axial fluxes carry h at element midpoints, fiber differences carry
1/h, and the boundary circles carry the measure h dtheta. Ordered ring by
ring (one ring of n_theta nodes per axial node), the energy is
block-tridiagonal: ring j has the block K_j = diag_ring[j] I - cfib[j] N,
with N the periodic neighbour matrix, and rings j and j+1 couple through
-cax[j] I.

Each ring is mapped to itself by the reflection about a meridian,
theta -> -theta, which takes node i to node (n_theta - i) mod n_theta.
Written in the orthonormal basis of the vectors that the reflection fixes
(even) and of those it negates (odd), every ring block splits into
diag_ring[j] I - cfib[j] N+, on n_theta/2 + 1 rows, and
diag_ring[j] I - cfib[j] N-, on n_theta/2 - 1 rows, with N+ and N- path
adjacencies (see _chains). The axial coupling -cax[j] I and the boundary
mass keep their form, so the grid's boundary problem is two independent
chains of blocks, and each is reduced by itself.

revolution_spectrum computes each chain's boundary Schur complement by
block Gaussian elimination, one interior ring at a time (Golub & Van Loan,
Matrix Computations, 4.5), and then only the eigenvalues of the dense
boundary eigenproblems. A ring costs one Cholesky factor of its frontier
block, the factor's triangular inverse and triangular BLAS-3 updates, in
place on a few blocks of w rows, 4 w^3 flops: about n_theta^3 for the two
chains together, a quarter of a periodic ring's 4 n_theta^3. From 128
rows on, a block is factored and inverted as 2 x 2 blocks, with tiny
entries flushed between the pieces: on the decayed blocks of a folded
plateau, LAPACK's factor and inverse compute subnormal numbers and slow
down.

On a plateau warp most axial sections agree to about 1e-13. A
run of m sections that agree with its first to a relative 1e-12 is
folded instead. sturm.uniform_runs finds the runs, the one finder by
which the 1D ladder folds its uniform elements too (see _sections).
A run's two-port is built from one section by repeated
doubling, as cyclic reduction does for constant-coefficient block
systems (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970), and
joined to the state in one block elimination of 9.7 w^3 flops
instead of m ring steps. The section is taken mirror-symmetric, so every
power is too and is kept by half its blocks: a squaring costs 5.7
w^3 flops and a join of two powers 7.7. The doubling costs about
log2(m) + popcount(m) eliminations, and a run is folded only when that
is fewer than its ring steps. Folding moves each conductance of the run
by at most 1e-12 relative, and so each eigenvalue by at most that factor
(see _ring_schur).

The collar warp is a function of the distance to the boundary, so a grid
is most often mirror-symmetric about its middle, whichever ends are
Steklov. When each conductance lies within the same 1e-12 of its mirror
image, only the left half is eliminated (a symmetric two-port is fixed
by its half, Bartlett's bisection theorem, Phil. Mag. 4, 1927). With both
ends Steklov the half gives each chain two blocks on ring 0 whose
eigenvalues together are the chain's boundary eigenproblem's: the
axially odd block, the half with its middle grounded, and the axially
even block, with its middle free. With one end Steklov the half's
two-port is joined to its own reflection through the middle, and one
more join eliminates the Neumann end ring. This moves each right-half
conductance by at most 1e-12 relative, and so each eigenvalue by at
most that factor.

Each chain's block is treated as a general SPD block. The meridian
reflection is the one symmetry of the ring that is used, and the
rotations are deliberately left unused: the reflection only halves each
ring, and each chain still couples about n_theta/2 Fourier modes, so the
oracle still solves coupled modes where the decomposition solves one 1D
problem per mode. Separating the modes by the rotations would reduce the
grid to the decomposition's own per-mode problems, and the oracle would
check the decomposition against itself. This module imports nothing from
the assembler; acceptance criterion 2 pairs revolution_spectrum with the
assembled spectrum.

assemble_revolution builds the same energy, periodic rings unsplit, as a
banded PartitionedSystem. No eigenvalue path calls it. It stays because
the tests compare the ring elimination against it, and the benchmark's
tracer hooks it by name.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .linalg import PartitionedSystem, sym_eig
from .profiles import Warp, log_value, transition_spans
from .sturm import (RUN_RTOL, check_mesh, check_span, graded_mesh, is_real, lumped_mass,
                    uniform_runs)


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
        if nodes.size < 32:
            raise DomainError(f"need at least 32 axial nodes, got {nodes.size}")
        n_theta = self.n_theta
        # even, so that the meridian reflection fixes the two nodes 0 and
        # n_theta / 2 and splits each ring into chains of n_theta / 2 +- 1 rows
        if not (isinstance(n_theta, numbers.Integral) and n_theta >= 16 and n_theta % 2 == 0):
            raise DomainError("n_theta must be an even integer of at least 16")
        fiber_length = self.fiber_length
        if not (is_real(fiber_length) and 0.0 < fiber_length < math.inf):  # NaN fails too
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
    if not is_real(n_axial):  # graded_mesh refuses a length that is not a real number
        raise DomainError(f"axial node count must be a real number, not {type(n_axial).__name__}")
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


# a join sets entries below this to zero: a product of two entries at or above
# it is never subnormal, and subnormal operands or results take a slow path
# in the floating-point unit, up to 100 times slower per operation
_FLUSH_BELOW = np.sqrt(np.finfo(float).tiny)  # 1.5e-154
# a block of this many rows or more is inverse-factored as 2 x 2 blocks: the
# even chain from n_theta = 254 on, wider than any benchmark grid's (see
# _ring_schur)
_SPLIT_FROM = 128


def _sections(cax: np.ndarray, cfib: np.ndarray) -> np.ndarray:
    """The axial sections as rows for sturm.uniform_runs: (cax[j], cfib[j + 1]).

    Section j is the axial edge from ring j to ring j+1 with the fiber
    conductance of ring j+1. A run of m sections replaces m ring steps
    (m - 1 from ring 0, whose first section costs none) by floor(log2 m)
    squarings, popcount(m) - 1 joins and one fold (none from ring 0); that
    is fewer exactly when m >= 4, the finder's shortest run. The rule
    counts eliminations, not flops: on a chain of w rows a ring step costs
    4 w^3 flops, a squaring 5.7 w^3, a join of two powers 7.7 w^3 and the
    fold 9.7 w^3 (see _ring_schur).
    """
    return np.column_stack([cax, cfib[1:]])


def _mirror_symmetric(cax: np.ndarray, cfib: np.ndarray) -> bool:
    """Whether each conductance lies within RUN_RTOL of its mirror image about the middle."""
    return all(
        np.all(np.abs(c - c[::-1]) <= RUN_RTOL * np.abs(c)) for c in (cax, cfib)
    )


def _chains(n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """Couplings of the even and odd chains' path adjacencies N+ and N-, below the diagonal.

    The reflection i -> (n_theta - i) mod n_theta maps every ring to itself.
    In the orthonormal basis e_0, (e_i + e_{n-i}) / sqrt 2 for 0 < i < n/2
    and e_{n/2} of the vectors it fixes, the periodic neighbour matrix N is
    the path N+ on n/2 + 1 nodes with sqrt 2 on its first and last
    couplings; in the basis (e_i - e_{n-i}) / sqrt 2 of those it negates,
    it is the plain path N- on n/2 - 1 nodes.
    """
    half = n_theta // 2
    even = np.ones(half)
    even[[0, -1]] = math.sqrt(2.0)
    return even, np.ones(half - 2)


def _add_ring(block: np.ndarray, diag: float, fib: float, links: np.ndarray) -> np.ndarray:
    """Add diag I - fib N to the lower triangle of a Fortran-order block, in place.

    N is the path adjacency with the couplings `links` below its diagonal,
    one chain's N+ or N- (see _chains).
    """
    width = len(block)
    flat = block.ravel(order="F")  # a view: LAPACK returns Fortran-order arrays
    flat[:: width + 1] += diag
    flat[1 :: width + 1] -= fib * links
    return block


def _flush(block: np.ndarray) -> np.ndarray:
    """Set the entries below _FLUSH_BELOW to zero, in place."""
    block[np.abs(block) < _FLUSH_BELOW] = 0.0
    return block


# The block operations below import scipy where they run, so that the
# package imports without it.


def _inverse_factor(block: np.ndarray, ring: float) -> np.ndarray:
    """M = L^-1 for block = L L^T, read from the lower triangle and written over it.

    A block of _SPLIT_FROM rows or more is split into 2 x 2 blocks:
    M11 = L11^-1, L21 = S21 M11^T, S22' = S22 - L21 L21^T, M22 = L22^-1
    of S22' = L22 L22^T, and M21 = -M22 L21 M11, each flushed below
    _FLUSH_BELOW. The flop count is that of dpotrf + dtrtri, n^3 / 3 each.
    """
    from scipy.linalg import blas, lapack

    size = len(block)
    if size >= _SPLIT_FROM:
        k = size // 2
        m11 = _flush(_inverse_factor(block[:k, :k], ring))
        l21 = _flush(blas.dtrmm(1.0, m11, block[k:, :k], side=1, lower=1, trans_a=1))
        s22 = blas.dsyrk(-1.0, l21, beta=1.0, c=block[k:, k:], lower=1)
        m22 = _flush(_inverse_factor(_flush(s22), ring))
        block[:k, :k], block[k:, k:] = m11, m22
        m22_l21 = _flush(blas.dtrmm(-1.0, m22, l21, lower=1))
        block[k:, :k] = _flush(blas.dtrmm(1.0, m11, m22_l21, side=1, lower=1))
        return block
    factor, info = lapack.dpotrf(block, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise NumericError(
            f"interior block is not positive definite: ring {ring}, LAPACK info {info}"
        )
    m, info = lapack.dtrtri(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericError(f"inverse of ring block {ring} failed, LAPACK info {info}")
    return m


def _close(x: np.ndarray, b: np.ndarray, z: np.ndarray, s: np.ndarray, ring: float) -> tuple:
    """X - B S^-1 Z, with W = B M^T, U = M Z and M = L^-1 for S = L L^T.

    One factor, two dtrmm and one dgemm: 4 2/3 n^3 flops. S is overwritten.
    """
    from scipy.linalg import blas

    m = _flush(_inverse_factor(s, ring))
    w = _flush(blas.dtrmm(1.0, m, b, side=1, lower=1, trans_a=1))
    u = _flush(blas.dtrmm(1.0, m, z, lower=1))
    return _flush(blas.dgemm(-1.0, w, u, beta=1.0, c=x)), w, u, m


def _join(first: tuple, second: tuple, ring: float) -> tuple:
    """Eliminate `ring`, shared by the two-ports (X1, B1, Y1) and (X2, B2, Y2)."""
    from scipy.linalg import blas

    x1, b1, y1 = first
    x2, b2, y2 = second
    z = y1 + x2
    x, w1, u, m = _close(x1, b1, z, z - b1.T - b2, ring)
    w2 = _flush(blas.dtrmm(1.0, m, b2.T, side=1, lower=1, trans_a=1))
    return (
        x,
        _flush(blas.dgemm(-1.0, w1, w2, trans_b=1)),
        _flush(blas.dgemm(-1.0, w2, u, beta=1.0, c=y2)),
    )


def _square(power: tuple, ring: int) -> tuple:
    """A symmetric two-port (X, B), Y = X and B = B^T, joined to itself."""
    from scipy.linalg import blas

    x, b = power
    z = 2.0 * x
    x, w, _, _ = _close(x, b, z, z - 2.0 * b, ring)
    b = blas.dsyrk(-1.0, w, lower=1)
    b += np.tril(b, -1).T
    return x, _flush(b)


def _join_powers(first: tuple, second: tuple, ring: int) -> tuple:
    """Two symmetric two-ports of one uniform chain joined: a symmetric one again."""
    from scipy.linalg import blas

    (x1, b1), (x2, b2) = first, second
    z = x1 + x2
    x, w1, _, m = _close(x1, b1, z, z - b1 - b2, ring)
    w2 = _flush(blas.dtrmm(1.0, m, b2, side=1, lower=1, trans_a=1))
    return x, _flush(blas.dgemm(-1.0, w1, w2, trans_b=1))


def _run_two_port(c: float, f: float, links: np.ndarray, start: int, length: int) -> tuple:
    """(X, B, Y) of `length` uniform sections from ring `start`, by symmetric powering.

    The powers are of the symmetric section (H, -c I, H), with
    H = ((d - 2c) / 2) I - (f / 2) N on the chain of `links`; the run is
    returned in the convention of _ring_schur, (X - H, B, X + H), all fiber
    energy of its first ring left out and all of its last ring's taken in.
    """
    width = len(links) + 1
    h = np.zeros((width, width), order="F")
    _add_ring(h, 0.5 * ((2.0 * c + 2.0 * f) - 2.0 * c), 0.5 * f, links)
    h += np.tril(h, -1).T
    power, run, covered = (h, -c * np.eye(width, order="F")), None, 0
    for i in range(length.bit_length()):  # power spans 2^i sections
        if i > 0:
            power = _square(power, start + 2 ** (i - 1))
        if length >> i & 1:
            run = power if run is None else _join_powers(run, power, start + covered)
            covered += 2**i
    x, b = run
    return x - h, b, x + h


def _ring_schur(
    cax: np.ndarray, cfib: np.ndarray, n_theta: int, both: bool
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Schur complement of the grid energy onto ring 0, and onto the last ring if `both`.

    Returns it for the even chain and for the odd chain of _chains, each
    as diagonal blocks whose eigenvalues together are the chain's: the
    whole complement as one block, or for a mirrored grid with both ends
    Steklov its axially even and odd blocks on ring 0 (see below). The
    even chain's first block holds the constants' kernel, spanned by
    (1, sqrt 2, ..., sqrt 2, 1) on each ring; every block is symmetric.
    The runs and the axial mirror are decided once, and each chain is
    then eliminated the same way, with its own blocks
    K_j = diag_ring[j] I - cfib[j] N.

    Eliminates rings 1, 2, ... one at a time. The state is the two-port
    [[P, Q], [Q^T, R]] on ring 0 and the frontier ring; eliminating the
    frontier ring j, which couples to ring j+1 by -cax[j] I, gives
    P - Q R^-1 Q^T, cax[j] Q R^-1 and K_{j+1} - cax[j]^2 R^-1, where K_j
    has the diagonal diag_ring[j] of _ring_diagonals.

    Each step uses one Cholesky factor R = L L^T and M = L^-1 (dtrtri), so
    R^-1 = M^T M. With W = Q M^T (dtrmm), P loses W W^T (dsyrk), Q becomes
    cax[j] W M (dtrmm) and R becomes K_{j+1} - cax[j]^2 M^T M (dlauum):
    4 w^3 flops per ring on a chain of w rows, in place, and about
    n_theta^3 for both chains. P and R are kept as lower triangles in
    Fortran order and mirrored once, at the end.

    A block of _SPLIT_FROM = 128 rows or more is inverse-factored as 2 x 2
    blocks of dpotrf + dtrtri, flushed between the pieces (_inverse_factor),
    at the same flop count. On the blocks that fold a decayed plateau,
    dpotrf + dtrtri compute subnormal numbers in L^-1, which slows them
    down on wide blocks. The (512, 128) grid's chains have 65 and 63 rows.
    At seed 1, L^-1 held 9-69 subnormal entries on 11 of its 60 factored
    65-row blocks. dpotrf + dtrtri took 44-79 us on those, where the split
    took 55-57 us. On the other 49 the split took 57 us against 38 us
    (medians). Splitting from 64 rows made _ring_schur slower, 18.0 ms
    against 16.7 ms, and from 32 rows 23.8 ms, hence the threshold of 128.
    The even chain reaches it from n_theta = 254 on; neither the benchmark's
    oracle grid nor criterion 2's does. On the (512, 256) grid at seed 1,
    L^-1 held 21-237 subnormal entries on 13 of the 60 factored 129-row
    blocks; dpotrf + dtrtri took 209-413 us on those, the split 182-283 us,
    and on the other 47 the split took 183 us against 203 us (medians).
    _ring_schur took 76.6 ms with the split against 78.4 ms without it
    (85.0 against 86.9 ms at seed 2). (Best of 30 per block and of 20
    per pass, 15 at n_theta = 256, OpenBLAS 0.3.31 with one thread, 2-CPU
    Xeon host.)

    A run of uniform sections (see _sections) is folded instead, with
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
    large terms, in 9.7 w^3 flops (three dtrmm by M, three dgemm).

    The run is built by binary powering of the mirror-symmetric section
    (H, -c I, H), H = ((d - 2c) / 2) I - (f / 2) N, where d = 2c + 2f is
    rounded as diag_ring rounds it and halving is exact, so that the rings
    of a run keep the rounding of the grid's own ring diagonals. Every
    power is a uniform chain, reflection-symmetric, and is kept as (X, B)
    with Y = X and B = B^T. A squaring, with Z = 2X and S = Z - 2B,
    returns X - W U and -W W^T (dsyrk), W = B M^T and U = M Z: 5.7
    w^3 flops. A join of two different powers forms X' and B' only,
    7.7 w^3 flops. A run of m sections takes floor(log2 m) squarings
    and popcount(m) - 1 such joins, and goes back to the general form as
    (X - H, B, X + H), which one general join folds into the state, turned
    into (X, B, Y) and back. So the fold costs at most about
    (5.7 log2 m + 7.7 popcount m + 9.7) w^3 flops, against
    4 m w^3 for the ring steps of the run. So that no edge is added
    to a block and taken away again, a frontier ring where a run starts
    holds only the half of its block it owns, the fiber energy and the
    edge on its left; the run brings the edge on its right. The blocks
    stay general SPD; their Fourier structure is not used. Rings outside
    runs take the ring step above.

    Every section of a run is within RUN_RTOL = 1e-12 of its first
    section s, so folding moves each conductance by at most that
    factor. The grid energy is a sum of conductance-weighted squared
    differences, and the boundary mass does not change, so each
    eigenvalue of the Schur complement, and each Steklov eigenvalue,
    moves by at most a factor 1e-12. Block operations also set entries
    below _FLUSH_BELOW = 1.5e-154 to zero, far below the roundoff of any
    entry they would be added to.

    When each cax[j] lies within RUN_RTOL of cax[N - 1 - j] and each
    cfib[j] of cfib[N - j] (N = len(cax)), the steps above run on the
    left half only, with the ring diagonals of the cut arrays: about half
    the ring steps and half the runs. With an odd ring count the middle
    ring ends the half and keeps half its fiber energy (cfib scaled by
    0.5, exactly). With an even ring count the middle edge c becomes two
    edges 2c in series through a ring with no fiber energy. Taking the
    right half as the reflection of the left moves each of its
    conductances by at most RUN_RTOL = 1e-12 relative, and so, as for a
    run, each eigenvalue by at most that factor.

    With both ends Steklov, the half's state (P, Q, R) between ring 0 and
    the middle gives the whole complement's eigenvalues by Bartlett's
    bisection theorem: its vectors are axially even, equal on the two end
    rings, or axially odd, opposite on them. The odd block is P, the half
    with its middle grounded. The even block leaves the middle free:
    X - B R^-1 Y, with X = P + Q, B = Q and Y = R + Q^T, one closing in
    the (X, B, Y) form (one factor, two dtrmm, one dgemm); in the even
    chain it annihilates the constant ring up to roundoff. With one end
    Steklov, the half (X, B, Y) is joined to its reflection (Y, B^T, X),
    which eliminates the middle, and the last ring, a Neumann end, then by
    one more join against the empty two-port (0, 0, 0): X - B C^-1 Y with
    C = Y - B^T, again no difference of large terms.
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
    last_eliminated = n_t - 2 if both or mirrored else n_t - 1
    runs = uniform_runs(_sections(cax, cfib))

    def frontier_diag(ring: int) -> float:
        # diagonal of K_ring, or of only the half it owns if a run starts there
        return cax[ring - 1] + 2.0 * cfib[ring] if ring in runs else diag_ring[ring]

    def eliminate(links: np.ndarray) -> tuple[np.ndarray, ...]:
        width = len(links) + 1

        def new_ring(diag: float, fib: float) -> np.ndarray:
            return _add_ring(np.zeros((width, width), order="F"), diag, fib, links)

        upper = np.triu_indices(width, 1)
        j = 0  # the frontier ring; a run from ring 0 starts the state itself
        if 0 not in runs:
            p = new_ring(diag_ring[0], cfib[0])
            q = np.asfortranarray(-cax[0] * np.eye(width))
            r = new_ring(frontier_diag(1), cfib[1])
            j = 1
        while j <= last_eliminated:
            if j in runs:
                run = _run_two_port(cax[j], cfib[j + 1], links, j, runs[j])
                if j > 0:  # the state as (X, B, Y), from P and R mirrored
                    p += np.tril(p, -1).T
                    r += np.tril(r, -1).T
                    run = _join((p + q, q, r + q.T), run, j)
                x, q, y = run
                p, r = np.subtract(x, q, order="F"), np.subtract(y, q.T, order="F")
                p[upper], r[upper] = 0.0, 0.0  # lower triangles again
                if j == 0:
                    _add_ring(p, 2.0 * cfib[0], cfib[0], links)  # ring 0's own fiber energy
                j += runs[j]
                if j < n_t - 1 and j not in runs:
                    r.ravel(order="F")[:: width + 1] += cax[j]  # the edge on its right
                continue
            m = _inverse_factor(r, j)
            w = blas.dtrmm(1.0, m, q, side=1, lower=1, trans_a=1, overwrite_b=1)
            p = blas.dsyrk(-1.0, w, beta=1.0, c=p, lower=1, overwrite_c=1)
            if j < n_t - 1:
                q = blas.dtrmm(cax[j], m, w, side=1, lower=1, overwrite_b=1)
                r, _ = lapack.dlauum(m, lower=1, overwrite_c=1)
                r *= -cax[j] ** 2
                _add_ring(r, frontier_diag(j + 1), cfib[j + 1], links)
            j += 1
        p += np.tril(p, -1).T  # the upper triangles were never written, so they hold 0
        if not (both or mirrored):
            return (p,)
        r += np.tril(r, -1).T
        if not mirrored:
            return (np.block([[p, q], [q.T, r]]),)
        x, y = p + q, r + q.T
        if both:
            even = np.tril(_close(x, q, y, r, middle)[0])
            even += np.tril(even, -1).T
            return even, p
        x, q, y = _join((x, q, y), (y, q.T, x), middle)
        x, _, _ = _join((x, q, y), (np.zeros_like(x),) * 3, end)
        p = np.tril(x)
        p += np.tril(p, -1).T
        return (p,)

    even, odd = _chains(n_theta)
    return eliminate(even), eliminate(odd)


def revolution_spectrum(grid: RevolutionGrid) -> np.ndarray:
    """All discrete Steklov eigenvalues of the grid, ascending, the first an exact 0.0.

    The even and odd chains of the meridian reflection are eliminated
    apart, their rings from the left; with only the right end Steklov the
    rings are numbered from the right instead. A mirror-symmetric grid, at
    any ends, eliminates only its left half, and with both ends Steklov
    each chain ends in an axially even and an axially odd block on ring 0
    (see _ring_schur). Each block is solved against the mass of the rings
    it is on: an axially even or odd block against ring 0's, equal to the
    last ring's to the mirror tolerance. The eigenvalues of all blocks of
    both chains together are the grid's.
    """
    hv, cax, cfib, dth = _ring_coefficients(grid)
    if grid.steklov_ends == "right":
        hv, cax, cfib = hv[::-1], cax[::-1], cfib[::-1]
    even, odd = _ring_schur(cax, cfib, grid.n_theta, grid.steklov_ends == "both")
    half = grid.n_theta // 2
    sqrt_mass = np.sqrt(hv[[0, -1]] * dth)  # ring 0, then the last ring

    def scaled(block: np.ndarray, width: int) -> np.ndarray:
        root = np.repeat(sqrt_mass, width)[: len(block)]
        return block / np.outer(root, root)  # as symmetric as the block

    d = scaled(even[0], half + 1)
    # B^(1/2) c spans the kernel of d, where c = (1, sqrt 2, ..., sqrt 2, 1) on
    # each ring is the constant ring in the even basis; a Householder
    # reflection H = I - v v^T / v[0] onto the first axis splits it off.
    # H d H = d - v w^T - w v^T, with p = d v / v[0] and
    # w = p - (v^T p / 2 v[0]) v (Golub & Van Loan, 5.1.4); only the block
    # that the kernel's axis leaves is formed
    constant = np.r_[1.0, np.full(half - 1, math.sqrt(2.0)), 1.0]
    v = (np.repeat(sqrt_mass, half + 1) * np.tile(constant, 2))[: len(d)]
    v /= np.linalg.norm(v)
    v[0] += 1.0
    p = d @ v / v[0]
    w = p - (v @ p / (2.0 * v[0])) * v
    deflated = d[1:, 1:] - np.outer(v[1:], w[1:]) - np.outer(w[1:], v[1:])
    values = [
        sym_eig(deflated),
        *(sym_eig(scaled(block, half + 1)) for block in even[1:]),
        *(sym_eig(scaled(block, half - 1)) for block in odd),
    ]
    return np.concatenate(([0.0], np.sort(np.concatenate(values))))

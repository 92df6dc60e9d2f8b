"""Symmetric eigensolves, and the banded reference form of a Dirichlet-to-Neumann map.

sym_eig is the package's one eigensolve. The rest is the reference layer:
PartitionedSystem holds a quadratic form as a banded interior block and
boundary blocks, and dtn_matrix takes its boundary Schur complement by
banded Cholesky, symmetrized by the (diagonal, positive) boundary mass.
No eigenvalue path builds one. It stays because the tests compare both
reductions against it, and the benchmark's tracer hooks dtn_matrix by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError


@dataclass(frozen=True, eq=False)
class PartitionedSystem:
    """Quadratic form split into interior and boundary blocks.

    a_ii_banded holds the interior block in symmetric lower banded storage,
    ab[d, c] = A[c + d, c] for 0 <= d <= bandwidth; a_ib has shape
    (n_interior, n_boundary); b_bb is the diagonal of the boundary mass.
    """

    a_ii_banded: np.ndarray
    a_ib: np.ndarray
    a_bb: np.ndarray
    b_bb: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.b_bb <= 0.0):
            raise DomainError("boundary mass entries must be strictly positive")
        if self.a_ib.shape != (self.n_interior, self.n_boundary):
            raise DomainError(
                f"a_ib shape {self.a_ib.shape}, not ({self.n_interior}, {self.n_boundary})")
        if self.a_bb.shape != (self.n_boundary, self.n_boundary):
            raise DomainError("a_bb must be square of boundary order")

    @property
    def n_interior(self) -> int:
        return self.a_ii_banded.shape[1]

    @property
    def n_boundary(self) -> int:
        return len(self.b_bb)

    @property
    def bandwidth(self) -> int:
        return self.a_ii_banded.shape[0] - 1 if self.n_interior else 0


def sym_eig(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of symmetric a, read from its lower triangle; no eigenvectors."""
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        residual = float(np.abs(a).max()) if a.size else 0.0
        raise NumericError(
            f"symmetric eigensolve failed to converge (scale {residual:.3e})"
        ) from exc


def _interior_solve(sys: PartitionedSystem, rhs: np.ndarray) -> np.ndarray:
    """Solve A_II X = rhs by banded Cholesky."""
    import scipy.linalg as sla  # here, so the package imports without it
    if sys.n_interior == 0:
        return rhs
    try:
        factor = sla.cholesky_banded(sys.a_ii_banded, lower=True)
        return sla.cho_solve_banded((factor, True), rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"interior block is not positive definite: {exc}") from exc


def dtn_matrix(sys: PartitionedSystem) -> np.ndarray:
    """Symmetrized discrete Dirichlet-to-Neumann matrix of the partitioned system.

    D = B^(-1/2) (A_BB - A_IB^T A_II^(-1) A_IB) B^(-1/2); its eigenvalues
    are the discrete Steklov eigenvalues of the quadratic form pair.
    """
    schur = sys.a_bb - sys.a_ib.T @ _interior_solve(sys, sys.a_ib)
    scale = 1.0 / np.sqrt(sys.b_bb)
    d = schur * scale[None, :] * scale[:, None]
    return 0.5 * (d + d.T)


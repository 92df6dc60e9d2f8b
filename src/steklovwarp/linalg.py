"""Symmetric eigensolves and Schur complements onto boundary degrees of freedom.

The discrete Dirichlet-to-Neumann matrix of a partitioned stiffness system
is the boundary Schur complement, symmetrized by the inverse square root of
the (diagonal, positive) boundary mass. Interior blocks are stored in
symmetric banded form; eigensolves and factorizations are delegated to
LAPACK via numpy/scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

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
        for name in ("a_ii_banded", "a_ib", "a_bb", "b_bb"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.b_bb <= 0.0):
            raise DomainError("boundary mass entries must be strictly positive")
        if self.a_ib.shape != (self.n_interior, self.n_boundary):
            raise DomainError(
                f"a_ib shape {self.a_ib.shape} does not match "
                f"({self.n_interior}, {self.n_boundary})"
            )
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

    @classmethod
    def from_dense(
        cls, a_ii: np.ndarray, a_ib: np.ndarray, a_bb: np.ndarray, b_bb: np.ndarray
    ) -> "PartitionedSystem":
        return cls(dense_to_banded(np.asarray(a_ii, float)), np.asarray(a_ib, float),
                   np.asarray(a_bb, float), np.asarray(b_bb, float))

    def interior_dense(self) -> np.ndarray:
        return banded_to_dense(self.a_ii_banded)


def dense_to_banded(a: np.ndarray, bandwidth: int | None = None) -> np.ndarray:
    """Pack a symmetric matrix into lower banded storage."""
    n = a.shape[0]
    if n == 0:
        return np.zeros((1, 0))
    if bandwidth is None:
        bandwidth = 0
        rows, cols = np.nonzero(a)
        if len(rows):
            bandwidth = int(np.max(rows - cols))
    ab = np.zeros((bandwidth + 1, n))
    for d in range(bandwidth + 1):
        ab[d, : n - d] = np.diagonal(a, -d)
    return ab


def banded_to_dense(ab: np.ndarray) -> np.ndarray:
    n = ab.shape[1]
    a = np.zeros((n, n))
    for d in range(ab.shape[0]):
        idx = np.arange(n - d)
        a[idx + d, idx] = ab[d, : n - d]
        a[idx, idx + d] = ab[d, : n - d]
    return a


def sym_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors (columns) of symmetric a."""
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        residual = float(np.abs(a).max()) if a.size else 0.0
        raise NumericError(
            f"symmetric eigensolve failed to converge (scale {residual:.3e})"
        ) from exc
    return values, vectors


def _interior_solve(sys: PartitionedSystem, rhs: np.ndarray) -> np.ndarray:
    """Solve A_II X = rhs by banded Cholesky."""
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
    if sys.n_interior:
        x = _interior_solve(sys, sys.a_ib)
        schur = sys.a_bb - sys.a_ib.T @ x
    else:
        schur = sys.a_bb.copy()
    scale = 1.0 / np.sqrt(sys.b_bb)
    d = schur * scale[None, :] * scale[:, None]
    return 0.5 * (d + d.T)


def harmonic_extension(sys: PartitionedSystem, boundary_values: np.ndarray) -> np.ndarray:
    """Interior values of the discrete energy-minimizing extension of boundary data."""
    if sys.n_interior == 0:
        return np.zeros(0)
    return -_interior_solve(sys, sys.a_ib @ np.asarray(boundary_values, float))

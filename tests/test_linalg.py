"""Eigensolves and boundary Schur complements on small reference systems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovwarp import (
    DomainError,
    NumericError,
    PartitionedSystem,
    dtn_matrix,
    harmonic_extension,
    sym_eig,
)
from steklovwarp.linalg import banded_to_dense, dense_to_banded


def laplacian_1d_system(n_nodes, q=0.0, mass_scale=1.0):
    """Uniform 1D stiffness on [0,1] with both endpoints in the boundary block."""
    h = 1.0 / (n_nodes - 1)
    main = np.full(n_nodes, 2.0 / h) + q * h
    main[0] = 1.0 / h + q * h / 2
    main[-1] = 1.0 / h + q * h / 2
    full = np.diag(main) + np.diag(np.full(n_nodes - 1, -1.0 / h), 1) \
        + np.diag(np.full(n_nodes - 1, -1.0 / h), -1)
    b = [0, n_nodes - 1]
    i = list(range(1, n_nodes - 1))
    return PartitionedSystem.from_dense(
        full[np.ix_(i, i)], full[np.ix_(i, b)], full[np.ix_(b, b)],
        np.array([mass_scale, mass_scale]),
    )


class TestSymEig:
    def test_identity(self):
        w, _ = sym_eig(np.eye(4))
        assert w == pytest.approx([1.0, 1.0, 1.0, 1.0])

    def test_diagonal_sorted(self):
        w, _ = sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert w == pytest.approx([1.0, 2.0, 3.0])

    def test_two_by_two(self):
        w, _ = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert w == pytest.approx([1.0, 3.0])

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 24))
    @settings(max_examples=60, deadline=None)
    def test_residual_and_orthonormality(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        m = a + a.T
        w, v = sym_eig(m)
        scale = np.linalg.norm(m)
        for j in range(n):
            assert np.linalg.norm(m @ v[:, j] - w[j] * v[:, j]) <= 1e-10 * max(scale, 1.0)
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-10

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 24))
    @settings(max_examples=60, deadline=None)
    def test_trace_identity(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        m = a + a.T
        w, _ = sym_eig(m)
        trace = np.trace(m)
        assert abs(w.sum() - trace) <= 1e-9 * max(abs(trace), 1.0)


class TestBandedStorage:
    @given(seed=st.integers(0, 5000), n=st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a = a + a.T
        assert np.allclose(banded_to_dense(dense_to_banded(a)), a)


class TestDtnMatrix:
    def test_interval_dtn_closed_form(self):
        # continuum DtN of [0,1] has harmonic extensions a + b t: eigenvalues 0 and 2
        system = laplacian_1d_system(101)
        w, _ = sym_eig(dtn_matrix(system))
        assert w == pytest.approx([0.0, 2.0], abs=1e-4)

    def test_empty_interior(self):
        a_bb = np.array([[2.0, -1.0], [-1.0, 2.0]])
        system = PartitionedSystem.from_dense(
            np.zeros((0, 0)), np.zeros((0, 2)), a_bb, np.array([4.0, 4.0])
        )
        assert np.allclose(dtn_matrix(system), a_bb / 4.0)

    def test_boundary_mass_scaling(self):
        w1, _ = sym_eig(dtn_matrix(laplacian_1d_system(64, mass_scale=1.0)))
        w4, _ = sym_eig(dtn_matrix(laplacian_1d_system(64, mass_scale=4.0)))
        assert w4 == pytest.approx(w1 / 4.0, abs=1e-12)

    def test_positive_semidefinite_with_nonneg_potential(self):
        for q in (0.0, 0.7, 3.0):
            w, _ = sym_eig(dtn_matrix(laplacian_1d_system(80, q=q)))
            assert w.min() >= -1e-10

    def test_monotone_in_potential(self):
        qs = [0.0, 0.5, 1.0, 2.0, 5.0]
        spectra = [sorted(sym_eig(dtn_matrix(laplacian_1d_system(80, q=q)))[0]) for q in qs]
        for lo, hi in zip(spectra, spectra[1:]):
            assert all(b >= a - 1e-12 for a, b in zip(lo, hi))

    def test_non_positive_definite_interior_raises(self):
        a_ii = -np.eye(4)
        system = PartitionedSystem.from_dense(
            a_ii, np.zeros((4, 1)), np.eye(1), np.array([1.0])
        )
        with pytest.raises(NumericError):
            dtn_matrix(system)

    def test_nonpositive_boundary_mass_rejected(self):
        with pytest.raises(DomainError):
            PartitionedSystem.from_dense(
                np.eye(2), np.zeros((2, 1)), np.eye(1), np.array([0.0])
            )


class TestHarmonicExtension:
    def test_linear_extension_on_interval(self):
        system = laplacian_1d_system(51)
        interior = harmonic_extension(system, np.array([0.0, 1.0]))
        expected = np.linspace(0.0, 1.0, 51)[1:-1]
        assert np.allclose(interior, expected, atol=1e-10)

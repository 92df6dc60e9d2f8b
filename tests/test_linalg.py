"""Eigensolves and boundary Schur complements on small reference systems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovwarp import DomainError, NumericError, SteklovEnd, SturmProblem, graded_mesh
from steklovwarp.linalg import PartitionedSystem, dtn_matrix, sym_eig
from steklovwarp.sturm import assemble


def laplacian_1d_system(n_nodes, q=0.0, mass_scale=1.0):
    """Uniform 1D stiffness on [0,1] with both endpoints in the boundary block."""
    return assemble(SturmProblem(
        1.0, lambda t: 1.0, lambda t: q, SteklovEnd(mass_scale), SteklovEnd(mass_scale),
        graded_mesh(1.0, n_nodes - 1),
    ))


class TestSymEig:
    def test_identity(self):
        w = sym_eig(np.eye(4))
        assert w == pytest.approx([1.0, 1.0, 1.0, 1.0])

    def test_diagonal_sorted(self):
        w = sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert w == pytest.approx([1.0, 2.0, 3.0])

    def test_two_by_two(self):
        w = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert w == pytest.approx([1.0, 3.0])

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 24))
    @settings(max_examples=60, deadline=None)
    def test_planted_spectrum_from_lower_triangle(self, seed, n):
        # Q diag(planted) Q^T with Q orthogonal; the strict upper triangle is
        # overwritten, since only the lower one is read
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        planted = rng.uniform(-5.0, 5.0, n)
        m = (q * planted) @ q.T
        m[np.triu_indices(n, 1)] = rng.standard_normal(n * (n - 1) // 2)
        w = sym_eig(m)
        assert np.abs(w - np.sort(planted)).max() <= 1e-12 * 5.0 * n

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 24))
    @settings(max_examples=60, deadline=None)
    def test_trace_identity(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        m = a + a.T
        w = sym_eig(m)
        trace = np.trace(m)
        assert abs(w.sum() - trace) <= 1e-9 * max(abs(trace), 1.0)


class TestDtnMatrix:
    def test_interval_dtn_closed_form(self):
        # continuum DtN of [0,1] has harmonic extensions a + b t: eigenvalues 0 and 2
        system = laplacian_1d_system(101)
        w = sym_eig(dtn_matrix(system))
        assert w == pytest.approx([0.0, 2.0], abs=1e-4)

    def test_empty_interior(self):
        a_bb = np.array([[2.0, -1.0], [-1.0, 2.0]])
        system = PartitionedSystem(np.zeros((1, 0)), np.zeros((0, 2)), a_bb, np.array([4.0, 4.0]))
        assert np.allclose(dtn_matrix(system), a_bb / 4.0)

    def test_boundary_mass_scaling(self):
        w1 = sym_eig(dtn_matrix(laplacian_1d_system(64, mass_scale=1.0)))
        w4 = sym_eig(dtn_matrix(laplacian_1d_system(64, mass_scale=4.0)))
        assert w4 == pytest.approx(w1 / 4.0, abs=1e-12)

    def test_positive_semidefinite_with_nonneg_potential(self):
        for q in (0.0, 0.7, 3.0):
            w = sym_eig(dtn_matrix(laplacian_1d_system(80, q=q)))
            assert w.min() >= -1e-10

    def test_monotone_in_potential(self):
        qs = [0.0, 0.5, 1.0, 2.0, 5.0]
        spectra = [sorted(sym_eig(dtn_matrix(laplacian_1d_system(80, q=q)))) for q in qs]
        for lo, hi in zip(spectra, spectra[1:]):
            assert all(b >= a - 1e-12 for a, b in zip(lo, hi))

    def test_non_positive_definite_interior_raises(self):
        a_ii = -np.ones((1, 4))  # -I in banded storage
        system = PartitionedSystem(a_ii, np.zeros((4, 1)), np.eye(1), np.array([1.0]))
        with pytest.raises(NumericError):
            dtn_matrix(system)

    def test_nonpositive_boundary_mass_rejected(self):
        with pytest.raises(DomainError):
            PartitionedSystem(np.ones((1, 2)), np.zeros((2, 1)), np.eye(1), np.array([0.0]))


"""Tensor-grid oracle: ring-by-ring elimination against the banded Schur reference,
and against the decomposition given the grid's own discrete fiber."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovwarp import (
    BaseGeometry,
    MeshResolutionError,
    NumericError,
    RevolutionGrid,
    WarpedMetricSpec,
    WarpProfile,
    dtn_matrix,
    explicit_spectrum,
    point_spectrum,
    steklov_spectrum_warped,
    sym_eig,
)
from steklovwarp.oracle import (
    _RUN_RTOL,
    _ring_coefficients,
    _ring_schur,
    _uniform_runs,
    assemble_revolution,
    make_grid,
    revolution_spectrum,
)

# plateau and bump are mirror-symmetric; the ramp is not, so "left" and
# "right" differ and the reversed elimination of "right" is checked. The
# ring elimination folds runs of uniform sections on the plateau and
# constant grids, and none on the bump and ramp grids.
WARPS = {
    "plateau": WarpProfile(0.05, 2.0 / 3.0, 1.0, symmetric=True),
    "bump": lambda t: 1.0 + t * (1.0 - t),
    "ramp": lambda t: 1.0 + 0.5 * t,
    "constant": lambda t: 1.5,
}
GRIDS = [(64, 16), (128, 32)]
ENDS = ["both", "left", "right"]


def grid_for(warp_name, shape, ends):
    n_axial, n_theta = shape
    return make_grid(1.0, 2.0 * math.pi, WARPS[warp_name], n_axial, n_theta, ends)


@pytest.mark.parametrize("ends", ENDS)
@pytest.mark.parametrize("shape", GRIDS)
@pytest.mark.parametrize("warp_name", sorted(WARPS))
class TestRingElimination:
    def test_matches_banded_schur_reference(self, warp_name, shape, ends):
        grid = grid_for(warp_name, shape, ends)
        reference = np.sort(sym_eig(dtn_matrix(assemble_revolution(grid))))
        values = revolution_spectrum(grid)
        assert values.shape == (grid.n_boundary,)
        dev = np.abs(values - reference) / np.maximum(np.abs(reference), 1.0)
        assert dev.max() <= 1e-8

    def test_single_constant_mode(self, warp_name, shape, ends):
        values = revolution_spectrum(grid_for(warp_name, shape, ends))
        assert values[0] == 0.0
        assert np.all(values[1:] > 1e-8 * values.max())


@pytest.mark.parametrize("ends", ENDS)
def test_benchmark_ring_width_matches_banded_reference(ends):
    # n_theta = 128, the ring width of the benchmark's oracle grid, on few rings
    grid = grid_for("plateau", (64, 128), ends)
    values = revolution_spectrum(grid)
    reference = np.sort(sym_eig(dtn_matrix(assemble_revolution(grid))))
    assert values[0] == 0.0
    dev = np.abs(values - reference) / np.maximum(np.abs(reference), 1.0)
    assert dev.max() <= 1e-8


@pytest.mark.parametrize("both", [True, False])
@pytest.mark.parametrize("shape", GRIDS + [(256, 64)])
@pytest.mark.parametrize("warp_name", sorted(WARPS))
def test_ring_schur_is_symmetric_and_annihilates_constants(warp_name, shape, both):
    grid = grid_for(warp_name, shape, "both" if both else "left")
    _, cax, cfib, diag_ring, _ = _ring_coefficients(grid)
    schur = _ring_schur(cax, cfib, diag_ring, grid.n_theta, both)
    assert np.array_equal(schur, schur.T)
    assert np.abs(schur.sum(axis=1)).max() <= 1e-9 * np.abs(schur).max()


@pytest.mark.parametrize("both", [True, False])
@pytest.mark.parametrize("bad_ring", [1, 2])
def test_indefinite_ring_block_is_named(bad_ring, both):
    # with cax = 1, K_j = (2 + 2 cfib[j]) I - cfib[j] N, and N has the
    # eigenvalues 2 cos(theta): cfib[j] = -2 makes K_j indefinite, and so the
    # frontier block K_j - R^-1 of ring j; cfib = 1 keeps the other rings
    # definite, and no run of uniform sections is long enough to fold
    n_t = 5
    cax = np.ones(n_t - 1)
    cfib = np.ones(n_t)
    cfib[bad_ring] = -2.0
    diag_ring = 2.0 + 2.0 * cfib
    diag_ring[[0, -1]] -= 1.0
    assert _uniform_runs(cax, cfib) == {}
    with pytest.raises(NumericError, match=f"not positive definite: ring {bad_ring},"):
        _ring_schur(cax, cfib, diag_ring, 16, both)


def test_indefinite_block_in_a_folded_run_is_named():
    # a negative fiber conductance on every ring: the first squaring of the
    # run that spans the axis eliminates ring 1 and finds it indefinite
    n_t = 12
    cax = np.ones(n_t - 1)
    cfib = np.full(n_t, -2.0)
    diag_ring = 2.0 + 2.0 * cfib
    diag_ring[[0, -1]] -= 1.0
    assert _uniform_runs(cax, cfib) == {0: n_t - 1}
    with pytest.raises(NumericError, match="not positive definite: ring 1,"):
        _ring_schur(cax, cfib, diag_ring, 16, True)


def per_ring_schur(cax, cfib, diag_ring, n_theta, both):
    """The ring elimination without folding: every interior ring takes one step."""
    from scipy.linalg import blas, lapack

    def add_ring(block, j):
        flat = block.ravel(order="F")
        flat[:: n_theta + 1] += diag_ring[j]
        flat[1 :: n_theta + 1] -= cfib[j]
        flat[n_theta - 1] -= cfib[j]
        return block

    n_t = len(diag_ring)
    p = add_ring(np.zeros((n_theta, n_theta), order="F"), 0)
    q = np.asfortranarray(-cax[0] * np.eye(n_theta))
    r = add_ring(np.zeros((n_theta, n_theta), order="F"), 1)
    for j in range(1, n_t - 1 if both else n_t):
        factor, info = lapack.dpotrf(r, lower=1, clean=0, overwrite_a=1)
        assert info == 0
        m, info = lapack.dtrtri(factor, lower=1, overwrite_c=1)
        assert info == 0
        w = blas.dtrmm(1.0, m, q, side=1, lower=1, trans_a=1, overwrite_b=1)
        p = blas.dsyrk(-1.0, w, beta=1.0, c=p, lower=1, overwrite_c=1)
        if j < n_t - 1:
            q = blas.dtrmm(cax[j], m, w, side=1, lower=1, overwrite_b=1)
            r, _ = lapack.dlauum(m, lower=1, overwrite_c=1)
            r *= -cax[j] ** 2
            add_ring(r, j + 1)
    p += np.tril(p, -1).T
    if not both:
        return p
    r += np.tril(r, -1).T
    return np.block([[p, q], [q.T, r]])


@pytest.mark.parametrize("ends", ENDS)
@pytest.mark.parametrize("shape", GRIDS + [(256, 64)])
@pytest.mark.parametrize("warp_name", ["bump", "ramp"])
def test_grid_without_runs_is_eliminated_ring_by_ring(warp_name, shape, ends):
    grid = grid_for(warp_name, shape, ends)
    _, cax, cfib, diag_ring, _ = _ring_coefficients(grid)
    if ends == "right":  # the order revolution_spectrum eliminates them in
        cax, cfib, diag_ring = cax[::-1], cfib[::-1], diag_ring[::-1]
    assert _uniform_runs(cax, cfib) == {}
    both = ends == "both"
    schur = _ring_schur(cax, cfib, diag_ring, grid.n_theta, both)
    assert np.array_equal(schur, per_ring_schur(cax, cfib, diag_ring, grid.n_theta, both))


@pytest.mark.parametrize("shape", GRIDS + [(256, 64)])
def test_constant_warp_folds_one_run_along_the_axis(shape):
    # the end ring's half mass ends the run one section before the last ring
    grid = grid_for("constant", shape, "both")
    _, cax, cfib, _, _ = _ring_coefficients(grid)
    runs = _uniform_runs(cax, cfib)
    assert runs == {0: grid.n_axial - 2}


def test_plateau_grid_folds_its_plateaus():
    grid = grid_for("plateau", (256, 64), "both")
    _, cax, cfib, _, _ = _ring_coefficients(grid)
    runs = _uniform_runs(cax, cfib)
    assert sum(runs.values()) >= 0.8 * (grid.n_axial - 1)
    sections = np.column_stack([cax, cfib[1:]])
    for start, length in runs.items():
        run = sections[start : start + length]
        assert np.all(np.abs(run - run[0]) <= 1e-12 * run[0])


def greedy_uniform_runs(cax, cfib):
    """_uniform_runs as one greedy scan along the whole axis, a numpy pass per run."""
    sections = np.column_stack([cax, cfib[1:]])
    runs = {}
    start = 0
    while start < len(sections):
        first = sections[start]
        off = np.any(np.abs(sections[start:] - first) > _RUN_RTOL * np.abs(first), axis=1)
        length = int(np.argmax(off)) if off.any() else len(off)
        if length.bit_length() - 1 + length.bit_count() < length:
            runs[start] = length
        start += length
    return runs


def random_sections(rng, count):
    """Sections in stretches: planted runs with offsets up to 1.5 _RUN_RTOL, some
    exactly at it, slow drifts of 0.9 _RUN_RTOL a step, and scattered values."""
    rows = []
    while len(rows) < count:
        kind = rng.integers(3)
        first = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-3.0, 3.0, 2)
        if rng.random() < 0.1:
            first[rng.integers(2)] = 0.0
        length = int(rng.integers(1, 40))
        if kind == 0:
            offsets = rng.uniform(-1.5, 1.5, (length, 2))
            at_tolerance = rng.random((length, 2)) < 0.2
            offsets[at_tolerance] = rng.choice([-1.0, 1.0], at_tolerance.sum())
            offsets *= rng.random((length, 1)) < 0.7  # some sections leave both in place
            rows.extend(first * (1.0 + _RUN_RTOL * offsets))
        elif kind == 1:
            steps = np.cumsum(np.full((length, 2), 0.9 * _RUN_RTOL), axis=0)
            rows.extend(first * (1.0 + steps * rng.choice([-1.0, 1.0], 2)))
        else:
            signs = rng.choice([-1.0, 1.0], (length, 2))
            rows.extend(signs * 10.0 ** rng.uniform(-3.0, 3.0, (length, 2)))
    sections = np.array(rows[:count])
    return sections[:, 0], np.concatenate(([1.0], sections[:, 1]))


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 300))
@settings(max_examples=300, deadline=None)
def test_uniform_runs_match_one_greedy_scan(seed, count):
    cax, cfib = random_sections(np.random.default_rng(seed), count)
    assert _uniform_runs(cax, cfib) == greedy_uniform_runs(cax, cfib)


@pytest.mark.parametrize("warp_name", sorted(WARPS))
def test_uniform_runs_of_the_grids_match_one_greedy_scan(warp_name):
    grid = grid_for(warp_name, (256, 64), "both")
    _, cax, cfib, _, _ = _ring_coefficients(grid)
    assert _uniform_runs(cax, cfib) == greedy_uniform_runs(cax, cfib)


@pytest.mark.parametrize("ends", ["both", "left"])
def test_later_run_reuses_a_power_from_ring_0(ends):
    # the ring-0 run has 4 sections, a power of two, so its two-port is a
    # cached power whose B block becomes the state's Q; the last run has the
    # same section and length and reuses it, after the ring steps that update Q
    warp = WarpProfile(0.15, 2.0 / 3.0, 1.0, symmetric=True)
    grid = make_grid(1.0, 2.0 * math.pi, warp, 64, 16, ends)
    _, cax, cfib, diag_ring, _ = _ring_coefficients(grid)
    runs = _uniform_runs(cax, cfib)
    last = max(runs)
    assert runs[0] == runs[last] == 4
    sections = np.column_stack([cax, cfib[1:]])
    shared = sections[last : last + 4]
    assert np.all(np.abs(shared - sections[0]) <= _RUN_RTOL * np.abs(sections[0]))
    both = ends == "both"
    schur = _ring_schur(cax, cfib, diag_ring, grid.n_theta, both)
    reference = per_ring_schur(cax, cfib, diag_ring, grid.n_theta, both)
    values, expected = np.linalg.eigvalsh(schur), np.linalg.eigvalsh(reference)
    dev = np.abs(values - expected) / np.maximum(np.abs(expected), 1.0)
    assert dev.max() <= 1e-8


def count_joins(monkeypatch):
    """Joins made from here on: each makes three dgemm calls, and nothing else makes one."""
    from scipy.linalg import blas

    calls = []
    dgemm = blas.dgemm
    monkeypatch.setattr(blas, "dgemm", lambda *a, **kw: calls.append(1) or dgemm(*a, **kw))
    return lambda: len(calls) // 3


@pytest.mark.parametrize("offsets, joins", [
    ([0.5e-12] * 8, 3 + 1),
    ([2e-12] * 8, 3 + 3 + 1),
    ([0.9e-12] + [1.8e-12] * 7, 3 + 3 + 1),  # only its first section is near enough
])
def test_run_near_an_earlier_section_gets_its_own_powers(monkeypatch, offsets, joins):
    # two runs of 8 sections split by 3 others: the second reuses the first's
    # powers only when each of its sections lies within _RUN_RTOL of the first
    # run's section; 3 squarings build a run of 8, and one join folds it in
    section = np.array([3.0, 0.25])
    others = np.array([[5.0, 0.5], [7.0, 0.75], [2.0, 0.125]])
    near = section * (1.0 + np.array(offsets)[:, None])
    sections = np.vstack([np.tile(section, (8, 1)), others, near, [[4.0, 0.2]]])
    cax, cfib = sections[:, 0], np.concatenate(([0.125], sections[:, 1]))
    diag_ring = 2.0 * cfib
    diag_ring[:-1] += cax
    diag_ring[1:] += cax
    assert _uniform_runs(cax, cfib) == {0: 8, 11: 8}
    joins_made = count_joins(monkeypatch)
    schur = _ring_schur(cax, cfib, diag_ring, 16, True)
    assert joins_made() == joins
    reference = per_ring_schur(cax, cfib, diag_ring, 16, True)
    expected = np.linalg.eigvalsh(reference)
    assert np.abs(np.linalg.eigvalsh(schur) - expected).max() <= 1e-8 * np.abs(expected).max()


def longdouble_cholesky(a):
    low = np.zeros_like(a)
    for k in range(len(a)):
        low[k, k] = np.sqrt(a[k, k] - low[k, :k] @ low[k, :k])
        low[k + 1 :, k] = (a[k + 1 :, k] - low[k + 1 :, :k] @ low[k, :k]) / low[k, k]
    return low


def longdouble_lower_inverse(low):
    inv = np.zeros_like(low)
    for i in range(len(low)):
        inv[i, :i] = -(low[i, :i] @ inv[:i, :i]) / low[i, i]
        inv[i, i] = 1.0 / low[i, i]
    return inv


def longdouble_schur(cax, cfib, diag_ring, n_theta, both):
    """The per-ring elimination of the same float64 coefficients in numpy.longdouble."""
    cax, cfib, diag_ring = (np.asarray(x, dtype=np.longdouble) for x in (cax, cfib, diag_ring))
    eye = np.eye(n_theta, dtype=np.longdouble)
    neighbours = np.roll(eye, 1, axis=0) + np.roll(eye, -1, axis=0)
    n_t = len(diag_ring)
    p, q = diag_ring[0] * eye - cfib[0] * neighbours, -cax[0] * eye
    r = diag_ring[1] * eye - cfib[1] * neighbours
    for j in range(1, n_t - 1 if both else n_t):
        m = longdouble_lower_inverse(longdouble_cholesky(r))
        r_inv = m.T @ m
        p = p - q @ r_inv @ q.T
        if j < n_t - 1:
            q = cax[j] * (q @ r_inv)
            r = diag_ring[j + 1] * eye - cfib[j + 1] * neighbours - cax[j] ** 2 * r_inv
    return np.block([[p, q], [q.T, r]]) if both else p


@pytest.mark.parametrize("ends", ["both", "left"])
@pytest.mark.parametrize("epsilon", [0.01, 0.05])
def test_ring_elimination_matches_extended_precision(epsilon, ends):
    # the far plateau's axial conductances are up to 6e10 times the fiber
    # ones; the reference eliminates the grid's own float64 coefficients in
    # extended precision and takes the eigenvalues as revolution_spectrum does
    warp = WarpProfile(epsilon, 2.0 / 3.0, 1.0, symmetric=True)
    grid = make_grid(1.0, 2.0 * math.pi, warp, 128, 32, ends)
    hv, cax, cfib, diag_ring, dth = _ring_coefficients(grid)
    assert _uniform_runs(cax, cfib)
    schur = longdouble_schur(cax, cfib, diag_ring, grid.n_theta, ends == "both").astype(float)
    ends_h = hv[[0, -1]] if ends == "both" else hv[:1]
    sqrt_mass = np.sqrt(np.repeat(ends_h * dth, grid.n_theta))
    d = schur / sqrt_mass[None, :] / sqrt_mass[:, None]
    v = sqrt_mass / np.linalg.norm(sqrt_mass)
    v[0] += 1.0
    reflect = np.eye(len(v)) - np.outer(v, v) / v[0]
    deflated = (reflect @ d @ reflect)[1:, 1:]
    reference = np.concatenate(([0.0], np.linalg.eigvalsh(0.5 * (deflated + deflated.T))))
    values = revolution_spectrum(grid)
    dev = np.abs(values - reference) / np.maximum(np.abs(reference), 1.0)
    assert dev.max() <= 1e-8


def discrete_circle(fiber_length, n_theta):
    """Complete spectrum of the n_theta-point periodic Laplacian on a circle.

    Its eigenvalues are (4/dth^2) sin^2(pi j/n_theta) for j = 0 ... n_theta/2,
    with multiplicity 1 at both ends of that range and 2 between.
    """
    dth = fiber_length / n_theta
    half = n_theta // 2
    values = [(4.0 / dth**2) * math.sin(math.pi * j / n_theta) ** 2 for j in range(half + 1)]
    mults = [1] + [2] * (half - 1) + [1]
    return explicit_spectrum(zip(values, mults), complete=True)


@pytest.mark.parametrize("ends", ENDS)
@pytest.mark.parametrize("shape", GRIDS + [(256, 64)])
@pytest.mark.parametrize("warp_name", ["bump", "ramp"])
def test_decomposition_matches_grid_with_its_discrete_fiber(warp_name, shape, ends):
    # Given the grid's fiber spectrum and axial nodes, each fiber mode's 1D
    # problem is the grid problem restricted to one Fourier mode, so the
    # assembled union is the whole grid spectrum up to roundoff.
    grid = grid_for(warp_name, shape, ends)
    spec = WarpedMetricSpec(
        base_dim=1,
        fiber_dim=1,
        warp=grid.warp,
        base=BaseGeometry(point_spectrum(), grid.length, ends),
        fiber=discrete_circle(grid.fiber_length, grid.n_theta),
        mode="plain_warp",
    )
    assembled = steklov_spectrum_warped(spec, math.inf, n_elements=grid.n_axial - 1).flatten()
    direct = revolution_spectrum(grid)
    assert assembled.shape == direct.shape
    dev = np.abs(assembled - direct) / np.maximum(np.abs(direct), 1.0)
    assert dev.max() <= 1e-9


def test_directly_built_grid_must_resolve_transitions():
    # 40 uniform elements put about one element in each plateau transition
    with pytest.raises(MeshResolutionError):
        RevolutionGrid(np.linspace(0.0, 1.0, 41), 16, 1.0, 2.0 * math.pi, WARPS["plateau"])

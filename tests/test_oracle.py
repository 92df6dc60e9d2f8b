"""Tensor-grid oracle: ring-by-ring elimination against the banded Schur reference,
and against the decomposition given the grid's own discrete fiber."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovwarp import (
    BaseGeometry,
    DomainError,
    MeshResolutionError,
    NumericError,
    RevolutionGrid,
    WarpedMetricSpec,
    WarpProfile,
    point_spectrum,
)
from steklovwarp import oracle, sturm
from steklovwarp.assembler import metric_recipes
from steklovwarp.linalg import dtn_matrix, sym_eig
from steklovwarp.oracle import (
    _FLUSH_BELOW,
    _RUN_RTOL,
    _SPLIT_FROM,
    _add_ring,
    _chains,
    _inverse_factor,
    _join,
    _mirror_symmetric,
    _ring_coefficients,
    _ring_diagonals,
    _ring_schur,
    _run_two_port,
    _uniform_runs,
    assemble_revolution,
    make_grid,
    revolution_spectrum,
)
from steklovwarp.profiles import power_fn
from steklovwarp.spectra import discrete_circle_spectrum

# plateau, bump and constant are mirror-symmetric, so at any ends only their
# left half is eliminated; the ramp is not, so "left" and "right" differ and
# the reversed elimination of "right" is checked. The ring elimination folds
# runs of uniform sections on the plateau and constant grids, and none on
# the bump and ramp grids.
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

    def test_odd_chain_values_pair_with_even_ones(self, warp_name, shape, ends):
        # the grid is invariant under rotations, so each Fourier mode k of
        # 0 < k < n_theta / 2 gives its values once as cos(k theta), in the
        # even chain, and once as sin(k theta), in the odd one; the even chain
        # alone holds modes 0 and n_theta / 2. The elimination never uses this
        cax, cfib, _ = ring_arrays(grid_for(warp_name, shape, ends))
        even, odd = map(block_eigenvalues, _ring_schur(cax, cfib, shape[1], ends == "both"))
        rings = len(even) // (shape[1] // 2 + 1)
        assert len(even) - len(odd) == 2 * rings
        unmatched = list(even)
        for value in odd:
            dev = np.abs(np.array(unmatched) - value) / value
            assert dev.min() <= 1e-10
            del unmatched[int(np.argmin(dev))]


@pytest.mark.parametrize("ends", ENDS)
@pytest.mark.parametrize("n_theta", [16, 128, 256])
def test_benchmark_ring_width_matches_banded_reference(n_theta, ends):
    # on few rings: n_theta = 128, the ring width of the benchmark's oracle
    # grid, with chains of 65 and 63 rows; 16, with chains of 9 and 7; and
    # 256, whose even chain of 129 rows is inverse-factored in halves
    grid = grid_for("plateau", (64, n_theta), ends)
    values = revolution_spectrum(grid)
    reference = np.sort(sym_eig(dtn_matrix(assemble_revolution(grid))))
    assert values[0] == 0.0
    dev = np.abs(values - reference) / np.maximum(np.abs(reference), 1.0)
    assert dev.max() <= 1e-8


@pytest.mark.parametrize("both", [True, False])
@pytest.mark.parametrize("shape", GRIDS + [(256, 64)])
@pytest.mark.parametrize("warp_name", sorted(WARPS))
def test_ring_schur_is_symmetric_and_annihilates_constants(warp_name, shape, both):
    # the even chain's first block is its whole complement, or a mirrored
    # grid's axially even block; the constant ring is (1, sqrt 2, ..., sqrt 2, 1)
    # in the even basis, and the odd basis holds no constant
    grid = grid_for(warp_name, shape, "both" if both else "left")
    _, cax, cfib, _ = _ring_coefficients(grid)
    even, odd = _ring_schur(cax, cfib, grid.n_theta, both)
    assert all(np.array_equal(block, block.T) for block in even + odd)
    first = even[0]
    half = grid.n_theta // 2
    constant = np.r_[1.0, np.full(half - 1, math.sqrt(2.0)), 1.0]
    constant = np.tile(constant, len(first) // (half + 1))
    assert np.abs(first @ constant).max() <= 1e-9 * np.abs(first).max()
    for block in odd:  # positive definite: no kernel
        values = np.linalg.eigvalsh(block)
        assert values[0] > 1e-9 * values[-1]


@pytest.mark.parametrize("n_theta", [16, 256])
@pytest.mark.parametrize("both", [True, False])
@pytest.mark.parametrize("bad_ring", [1, 2])
def test_indefinite_ring_block_is_named(bad_ring, both, n_theta):
    # with cax = 1, K_j = (2 + 2 cfib[j]) I - cfib[j] N, and each chain's N
    # has eigenvalues 2 cos(theta) near 2 and -2: cfib[j] = -2 makes K_j
    # indefinite, and so the frontier block K_j - R^-1 of ring j; cfib = 1
    # keeps the other rings definite, and no run of uniform sections is long
    # enough to fold. At n_theta = 256 the even chain's block of 129 rows is
    # factored in halves, and the first is indefinite too
    n_t = 5
    cax = np.ones(n_t - 1)
    cfib = np.ones(n_t)
    cfib[bad_ring] = -2.0
    assert _uniform_runs(cax, cfib) == {}
    with pytest.raises(NumericError, match=f"not positive definite: ring {bad_ring},"):
        _ring_schur(cax, cfib, n_theta, both)


def test_indefinite_block_in_a_folded_run_is_named():
    # a negative fiber conductance on every ring: the first squaring of the
    # run that spans the axis eliminates ring 1 and finds it indefinite
    n_t = 12
    cax = np.ones(n_t - 1)
    cfib = np.full(n_t, -2.0)
    assert _uniform_runs(cax, cfib) == {0: n_t - 1}
    with pytest.raises(NumericError, match="not positive definite: ring 1,"):
        _ring_schur(cax, cfib, 16, True)


def periodic_lower(n_theta):
    """The periodic neighbour matrix of a ring below its diagonal, the wrap pair included."""
    lower = np.eye(n_theta, k=-1)
    lower[-1, 0] = 1.0
    return lower


def per_ring_schur(cax, cfib, diag_ring, lower, both):
    """The ring elimination without folding: every interior ring takes one step.

    Each ring block is diag_ring[j] I - cfib[j] N, with `lower` the part
    of N below its diagonal: periodic, or one chain's (np.diag(links, -1)).
    """
    from scipy.linalg import blas, lapack

    n_theta = len(lower)
    eye = np.eye(n_theta)

    def add_ring(block, j):
        block += diag_ring[j] * eye
        block -= cfib[j] * lower
        return block

    n_t = len(diag_ring)
    p = add_ring(np.zeros((n_theta, n_theta), order="F"), 0)
    q = np.asfortranarray(-cax[0] * eye)
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


def ring_arrays(grid):
    """cax, cfib and diag_ring in the order revolution_spectrum eliminates the rings in."""
    _, cax, cfib, _ = _ring_coefficients(grid)
    diag_ring = _ring_diagonals(cax, cfib)
    if grid.steklov_ends == "right":
        return cax[::-1], cfib[::-1], diag_ring[::-1]
    return cax, cfib, diag_ring


@pytest.mark.parametrize("ends", ENDS)
@pytest.mark.parametrize("shape", GRIDS + [(256, 64)])
def test_grid_without_runs_is_eliminated_ring_by_ring(shape, ends):
    # the bump has no runs either, but it is mirror-symmetric and takes the
    # mirrored path; see test_mirrored_grid_matches_the_whole_axis
    grid = grid_for("ramp", shape, ends)
    cax, cfib, diag_ring = ring_arrays(grid)
    assert _uniform_runs(cax, cfib) == {}
    both = ends == "both"
    chains = _ring_schur(cax, cfib, grid.n_theta, both)
    for (schur,), links in zip(chains, _chains(grid.n_theta)):
        expected = per_ring_schur(cax, cfib, diag_ring, np.diag(links, -1), both)
        assert np.array_equal(schur, expected)


def whole_axis_schur(monkeypatch, cax, cfib, n_theta, both):
    """_ring_schur with the mirror check switched off: every ring of the axis is eliminated.

    Returns each chain's one block, the even chain's first.
    """
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_mirror_symmetric", lambda cax, cfib: False)
        (even,), (odd,) = _ring_schur(cax, cfib, n_theta, both)
        return even, odd


def block_eigenvalues(blocks):
    """The eigenvalues of the blocks together, ascending: those of the complement they split."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(block) for block in blocks]))


def deviation(values, expected):
    return (np.abs(values - expected) / np.maximum(np.abs(expected), 1.0)).max()


# (warp, n_axial asked of make_grid, rings it gets): each warp on both ring
# count parities; the plateau's graded mesh adds nodes in its transitions
MIRRORED = [
    ("bump", 64, 64),
    ("bump", 65, 65),
    ("plateau", 87, 105),
    ("plateau", 140, 150),
    ("constant", 64, 64),
    ("constant", 65, 65),
]


@pytest.mark.parametrize("ends", ENDS)
@pytest.mark.parametrize("warp_name, n_axial, n_rings", MIRRORED)
def test_mirrored_grid_matches_the_whole_axis(monkeypatch, warp_name, n_axial, n_rings, ends):
    # with both ends Steklov, the half gives the even and odd blocks; with
    # one, the join to the reflection leaves the far (Neumann) end ring,
    # which one more join eliminates
    grid = make_grid(1.0, 2.0 * math.pi, WARPS[warp_name], n_axial, 16, ends)
    assert grid.n_axial == n_rings
    cax, cfib, diag_ring = ring_arrays(grid)
    assert _mirror_symmetric(cax, cfib)
    both = ends == "both"
    chains = _ring_schur(cax, cfib, grid.n_theta, both)
    assert [len(blocks) for blocks in chains] == [2 if both else 1] * 2
    blocks = chains[0] + chains[1]
    assert all(np.array_equal(block, block.T) for block in blocks)
    # the periodic rings unsplit, every ring stepped: the reflection and the mirror at once
    periodic = per_ring_schur(cax, cfib, diag_ring, periodic_lower(grid.n_theta), both)
    assert deviation(block_eigenvalues(blocks), np.linalg.eigvalsh(periodic)) <= 1e-10
    values = revolution_spectrum(grid)
    assert values[0] == 0.0
    whole = whole_axis_schur(monkeypatch, cax, cfib, grid.n_theta, both)
    for half_blocks, whole_block in zip(chains, whole):
        expected = np.linalg.eigvalsh(whole_block)
        assert deviation(block_eigenvalues(half_blocks), expected) <= 1e-10
    # the banded reference rounds the plateau's ring diagonals its own way and
    # lies up to 6.5e-10 from the ring elimination on either path, so the
    # plateau is held to the module's 1e-8 against it
    banded = np.sort(sym_eig(dtn_matrix(assemble_revolution(grid))))
    assert deviation(values, banded) <= (1e-8 if warp_name == "plateau" else 1e-10)


def count_factors(monkeypatch):
    """Cholesky factors made from here on: every ring step and every join makes one."""
    from scipy.linalg import lapack

    calls = []
    dpotrf = lapack.dpotrf
    monkeypatch.setattr(lapack, "dpotrf", lambda *a, **kw: calls.append(1) or dpotrf(*a, **kw))
    return lambda: len(calls)


@pytest.mark.parametrize("ends", ENDS)
@pytest.mark.parametrize("n_axial", [256, 255])
def test_mirrored_bump_factors_half_its_rings(monkeypatch, n_axial, ends):
    # in each of the two chains, the whole axis takes a ring step for each
    # ring but the Steklov ends; the mirrored path takes those of the left
    # half, one join through the middle and, with one end Steklov, one join
    # that eliminates the other
    grid = grid_for("bump", (n_axial, 64), ends)
    cax, cfib, _ = ring_arrays(grid)
    both = ends == "both"
    factors = count_factors(monkeypatch)
    _ring_schur(cax, cfib, grid.n_theta, both)
    mirrored = factors()
    whole_axis_schur(monkeypatch, cax, cfib, grid.n_theta, both)
    if both:
        assert mirrored <= 2 * (n_axial // 2 + 2)
        assert factors() - mirrored == 2 * (n_axial - 2)
    else:
        assert mirrored <= 2 * (n_axial // 2 + 3)
        assert factors() - mirrored == 2 * (n_axial - 1)


@pytest.mark.parametrize("ends", ENDS)
@pytest.mark.parametrize("warp_name", ["bump", "plateau", "constant"])
@pytest.mark.parametrize("offset, mirrored", [(0.5e-12, True), (2e-12, False)])
def test_mirror_check_holds_each_section_to_the_run_tolerance(
    monkeypatch, warp_name, offset, mirrored, ends
):
    # one right-half axial conductance moved by twice _RUN_RTOL makes the grid
    # asymmetric, and the whole axis is eliminated as before
    grid = grid_for(warp_name, (128, 32), ends)
    cax, cfib, _ = ring_arrays(grid)
    cax = cax.copy()
    cax[len(cax) - 10] *= 1.0 + offset
    diag_ring = _ring_diagonals(cax, cfib)
    assert _mirror_symmetric(cax, cfib) == mirrored
    both = ends == "both"
    chains = _ring_schur(cax, cfib, grid.n_theta, both)
    whole = whole_axis_schur(monkeypatch, cax, cfib, grid.n_theta, both)
    for blocks, whole_block, links in zip(chains, whole, _chains(grid.n_theta)):
        if mirrored:
            expected = np.linalg.eigvalsh(whole_block)
            assert deviation(block_eigenvalues(blocks), expected) <= 1e-10
            continue
        (schur,) = blocks
        assert np.array_equal(schur, whole_block)
        if warp_name == "bump":  # no runs: the whole axis takes one step per ring
            expected = per_ring_schur(cax, cfib, diag_ring, np.diag(links, -1), both)
            assert np.array_equal(schur, expected)


@pytest.mark.parametrize("ends", ENDS)
def test_asymmetric_ramp_never_mirrors(monkeypatch, ends):
    # the ramp has no runs, so without the mirror each ring but the
    # Steklov ends takes one ring step in each chain, and nothing else
    # factors a block
    grid = grid_for("ramp", (128, 32), ends)
    cax, cfib, _ = ring_arrays(grid)
    assert not _mirror_symmetric(cax, cfib)
    factors = count_factors(monkeypatch)
    assert revolution_spectrum(grid)[0] == 0.0
    assert factors() == 2 * (grid.n_axial - (2 if ends == "both" else 1))


@pytest.mark.parametrize("shape", GRIDS + [(256, 64)])
def test_constant_warp_folds_one_run_along_the_axis(shape):
    # the end ring's half mass ends the run one section before the last ring
    grid = grid_for("constant", shape, "both")
    _, cax, cfib, _ = _ring_coefficients(grid)
    runs = _uniform_runs(cax, cfib)
    assert runs == {0: grid.n_axial - 2}


def test_plateau_grid_folds_its_plateaus():
    grid = grid_for("plateau", (256, 64), "both")
    _, cax, cfib, _ = _ring_coefficients(grid)
    runs = _uniform_runs(cax, cfib)
    assert sum(runs.values()) >= 0.8 * (grid.n_axial - 1)
    sections = np.column_stack([cax, cfib[1:]])
    for start, length in runs.items():
        run = sections[start : start + length]
        assert np.all(np.abs(run - run[0]) <= 1e-12 * run[0])


def general_run_two_port(c, f, links, start, length):
    """A run as general two-ports: binary powering of the section (0, -c I, (d - 2c) I - f N)."""
    width = len(links) + 1
    y = np.zeros((width, width), order="F")
    _add_ring(y, (2.0 * c + 2.0 * f) - 2.0 * c, f, links)
    y += np.tril(y, -1).T
    power, run, covered = (np.zeros_like(y), -c * np.eye(width, order="F"), y), None, 0
    for i in range(length.bit_length()):
        if i > 0:
            power = _join(power, power, start + 2 ** (i - 1))
        if length >> i & 1:
            run = power if run is None else _join(run, power, start + covered)
            covered += 2**i
    return run


@pytest.mark.parametrize("shape", GRIDS + [(64, 128)])
@pytest.mark.parametrize("warp_name", ["constant", "plateau"])
def test_symmetric_powers_equal_general_powering(warp_name, shape):
    # each run of the grid, built from the mirror-symmetric section, against
    # the same run powered as general two-ports, block by block
    grid = grid_for(warp_name, shape, "both")
    _, cax, cfib, _ = _ring_coefficients(grid)
    runs = _uniform_runs(cax, cfib)
    assert runs
    for (start, length), links in itertools.product(runs.items(), _chains(grid.n_theta)):
        args = (cax[start], cfib[start + 1], links, start, length)
        for block, expected in zip(_run_two_port(*args), general_run_two_port(*args)):
            assert np.abs(block - expected).max() <= 1e-12 * np.abs(expected).max()


def far_plateau_block():
    """The block that joins the far plateau's run of the (512, 256) grid's even chain
    to its copy: C + A, of 129 rows."""
    grid = make_grid(1.0, 2.0 * math.pi, WARPS["plateau"], 512, 256)
    _, cax, cfib, _ = _ring_coefficients(grid)
    start, length = max(_uniform_runs(cax, cfib).items(), key=lambda run: run[1])
    even, _ = _chains(grid.n_theta)
    x, b, y = _run_two_port(cax[start], cfib[start + 1], even, start, length)
    return np.asfortranarray(y + x - b.T - b)


@pytest.mark.parametrize("kind", ["benign", "plateau"])
def test_split_inverse_factor_matches_lapack(kind):
    # a block of _SPLIT_FROM rows or more is factored in halves: the same
    # L^-1 up to rounding, with no entry left below _FLUSH_BELOW; on the
    # plateau block dpotrf + dtrtri leave such entries, whose products are
    # subnormal
    from scipy.linalg import lapack

    if kind == "benign":  # the even chain of 2 _SPLIT_FROM - 2 nodes has _SPLIT_FROM rows
        even, _ = _chains(2 * _SPLIT_FROM - 2)
        block = _add_ring(np.zeros((_SPLIT_FROM, _SPLIT_FROM), order="F"), 4.0, 1.0, even)
    else:
        block = far_plateau_block()
    assert len(block) >= _SPLIT_FROM
    factor, info = lapack.dpotrf(block, lower=1, clean=1)
    assert info == 0
    expected, info = lapack.dtrtri(factor, lower=1)
    assert info == 0
    expected = np.tril(expected)
    small = (expected != 0.0) & (np.abs(expected) < _FLUSH_BELOW)
    assert small.any() == (kind == "plateau")
    split = np.tril(_inverse_factor(block.copy(order="F"), 0))
    assert np.abs(split - expected).max() <= 1e-14 * np.abs(expected).max()
    assert not np.any((split != 0.0) & (np.abs(split) < _FLUSH_BELOW))


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
    _, cax, cfib, _ = _ring_coefficients(grid)
    assert _uniform_runs(cax, cfib) == greedy_uniform_runs(cax, cfib)


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


@pytest.mark.parametrize("ends", ENDS)
@pytest.mark.parametrize("epsilon", [0.01, 0.05])
def test_ring_elimination_matches_extended_precision(epsilon, ends):
    # the far plateau's axial conductances are up to 6e10 times the fiber
    # ones; the reference eliminates the grid's own float64 coefficients in
    # extended precision and takes the eigenvalues as revolution_spectrum does
    warp = WarpProfile(epsilon, 2.0 / 3.0, 1.0, symmetric=True)
    grid = make_grid(1.0, 2.0 * math.pi, warp, 128, 32, ends)
    hv, _, _, dth = _ring_coefficients(grid)
    cax, cfib, diag_ring = ring_arrays(grid)
    if ends == "right":
        hv = hv[::-1]
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


@pytest.mark.parametrize("ends", ENDS)
@pytest.mark.parametrize("shape", GRIDS + [(256, 64)])
@pytest.mark.parametrize("warp_name", sorted(WARPS))
def test_decomposition_matches_grid_with_its_discrete_fiber(warp_name, shape, ends):
    # Given the grid's fiber spectrum and axial nodes, each fiber mode's 1D
    # problem is the grid problem restricted to one Fourier mode, so the
    # assembled union is the whole grid spectrum up to roundoff. The 1D
    # collar is built on the grid's own nodes: a graded mesh rebuilt from
    # n_axial - 1 elements is another mesh when the warp has transitions.
    # The plateau's conductances span about 1e8, and it is held to the
    # module's 1e-8.
    grid = grid_for(warp_name, shape, ends)
    spec = WarpedMetricSpec(
        base_dim=1,
        fiber_dim=1,
        warp=grid.warp,
        base=BaseGeometry(point_spectrum(), grid.length, ends),
        fiber=discrete_circle_spectrum(grid.fiber_length, grid.n_theta),
        mode="plain_warp",
    )
    recipes = metric_recipes(spec)
    collar = sturm.collar_problem(
        spec.base,
        recipes.grad_weight,
        recipes.inv_sq_weight,
        nodes=grid.axial_nodes,
        boundary_weights=recipes.boundary_weights,
        transition_spans=recipes.spans,
    )
    walked = sturm.walk_below(collar, spec.fiber, spec.base.cross_section, math.inf, {})
    assembled = walked.flatten()
    direct = revolution_spectrum(grid)
    assert assembled.shape == direct.shape
    dev = np.abs(assembled - direct) / np.maximum(np.abs(direct), 1.0)
    assert dev.max() <= (1e-8 if warp_name == "plateau" else 1e-9)


def test_directly_built_grid_must_resolve_transitions():
    # 40 uniform elements put about one element in each plateau transition
    with pytest.raises(MeshResolutionError):
        RevolutionGrid(np.linspace(0.0, 1.0, 41), 16, 1.0, 2.0 * math.pi, WARPS["plateau"])


@pytest.mark.parametrize(
    "fiber_length", [0.0, -1.0, math.inf, math.nan, np.array([1.0, 2.0]), "6.28", None, True]
)
def test_grid_fiber_must_be_a_positive_finite_circle(fiber_length):
    # an array used to raise numpy's ValueError, a string or None a TypeError
    with pytest.raises(DomainError, match="circle length must be positive and finite"):
        RevolutionGrid(np.linspace(0.0, 1.0, 65), 16, 1.0, fiber_length, WARPS["bump"])


@pytest.mark.parametrize(
    "length", [7.0, 0.5, math.nan, math.inf, np.array([1.0, 2.0]), "1.0", None, True]
)
def test_grid_nodes_must_span_its_length(length):
    with pytest.raises(DomainError, match=r"mesh must span exactly \[0, length\]"):
        RevolutionGrid(np.linspace(0.0, 1.0, 65), 16, length, 2.0 * math.pi, WARPS["bump"])


@pytest.mark.parametrize(
    "nodes, message",
    [
        (np.stack((np.linspace(0.0, 1.0, 65),) * 2, axis=1), "mesh must be a 1-D array"),
        (0.5, "need at least 32 axial nodes, got 1"),
    ],
)
def test_grid_nodes_must_be_a_vector(nodes, message):
    # a 2-D array used to raise numpy's ValueError from the span check, and a
    # scalar a TypeError from len()
    with pytest.raises(DomainError, match=message):
        RevolutionGrid(nodes, 16, 1.0, 2.0 * math.pi, WARPS["bump"])


@pytest.mark.parametrize("n_theta", [16.0, np.float64(16.0), 15, 14, True])
def test_grid_ring_width_must_be_an_even_integer(n_theta):
    # a float width used to build and then raise TypeError in the elimination
    with pytest.raises(DomainError, match="n_theta must be an even integer of at least 16"):
        RevolutionGrid(np.linspace(0.0, 1.0, 65), n_theta, 1.0, 2.0 * math.pi, WARPS["bump"])


@pytest.mark.parametrize("n_axial", [math.nan, math.inf])
def test_grid_ring_count_must_be_finite(n_axial):
    # a NaN count used to reach an int cast that warns
    with pytest.raises(DomainError, match="element count must be positive and finite"):
        make_grid(1.0, 2.0 * math.pi, WARPS["bump"], n_axial, 16)


@pytest.mark.parametrize("warp_name", ["plateau", "bump"])
def test_ring_warp_is_the_ladders_h(warp_name):
    # one ln h sample on nodes and midpoints gives the bits of the 1D ladder's h
    grid = grid_for(warp_name, (128, 32), "both")
    hv, *_ = _ring_coefficients(grid)
    assert hv.tobytes() == power_fn(grid.warp, 1.0)(grid.axial_nodes).tobytes()


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_warp_not_positive_and_finite_is_refused(bad):
    # a NaN or infinite warp used to reach the eigensolve and fail there to converge
    grid = make_grid(1.0, 2.0 * math.pi, lambda t: np.where(t > 0.5, bad, 1.0), 64, 16)
    with pytest.raises(DomainError, match="warp function must be positive and finite"):
        revolution_spectrum(grid)

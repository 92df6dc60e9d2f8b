"""Tensor-grid oracle: ring-by-ring elimination against the banded Schur reference,
and against the decomposition given the grid's own discrete fiber."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from steklovwarp import (
    BaseGeometry,
    DomainError,
    FunctionWarp,
    MeshResolutionError,
    NumericError,
    RevolutionGrid,
    WarpedMetricSpec,
    WarpProfile,
    graded_mesh,
    point_spectrum,
)
from steklovwarp import oracle, sturm
from steklovwarp.assembler import metric_recipes
from steklovwarp.linalg import dtn_matrix, sym_eig
from steklovwarp.oracle import (
    _add_ring,
    _chains,
    _join,
    _ring_coefficients,
    _ring_diagonals,
    _ring_schur,
    _run_two_port,
    _section_runs,
    assemble_revolution,
    make_grid,
    revolution_spectrum,
)
from steklovwarp.profiles import power_fn
from steklovwarp.spectra import discrete_circle_spectrum

# plateau, bump and constant are declared mirror-symmetric, so at any ends
# only their left half is eliminated; the ramp and the one-sided plateau are
# not, so "left" and "right" differ and the reversed elimination of "right"
# is checked. The plateaus and the constant warp declare runs of uniform
# sections, which the ring elimination folds; the one-sided plateau's far run
# ends on the last ring. The bump and the ramp vary on their whole collar and
# declare none.
WARPS = {
    "plateau": WarpProfile(0.05, 2.0 / 3.0, 1.0, symmetric=True),
    "one-sided": WarpProfile(0.05, 2.0 / 3.0, 1.0, symmetric=False),
    "bump": FunctionWarp(lambda t: 1.0 + t * (1.0 - t), 1.0, symmetric=True),
    "ramp": FunctionWarp(lambda t: 1.0 + 0.5 * t, 1.0),
    "constant": FunctionWarp(lambda t: 1.5, 1.0, symmetric=True, constant=True),
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
        grid = grid_for(warp_name, shape, ends)
        cax, cfib, _, runs = ring_arrays(grid)
        chains = _ring_schur(cax, cfib, shape[1], ends == "both", runs, grid.mirrored)
        even, odd = map(block_eigenvalues, chains)
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
    cax, cfib, _, runs = ring_arrays(grid)
    even, odd = _ring_schur(cax, cfib, grid.n_theta, both, runs, grid.mirrored)
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
    # keeps the other rings definite, and no run is declared. At n_theta =
    # 256 the even chain's block of 129 rows is factored in halves, and the
    # first is indefinite too
    n_t = 5
    cax = np.ones(n_t - 1)
    cfib = np.ones(n_t)
    cfib[bad_ring] = -2.0
    with pytest.raises(NumericError, match=f"not positive definite: ring {bad_ring},"):
        _ring_schur(cax, cfib, n_theta, both, {}, False)


def test_indefinite_block_in_a_folded_run_is_named():
    # a negative fiber conductance on every ring: the first squaring of the
    # run that spans the axis eliminates ring 1 and finds it indefinite
    n_t = 12
    cax = np.ones(n_t - 1)
    cfib = np.full(n_t, -2.0)
    with pytest.raises(NumericError, match="not positive definite: ring 1,"):
        _ring_schur(cax, cfib, 16, True, {0: (n_t - 1, 1.0, -2.0)}, False)


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
    """cax, cfib, diag_ring and the declared runs, in the order revolution_spectrum eliminates."""
    hv, cax, cfib, dth = _ring_coefficients(grid)
    runs = _section_runs(grid, hv, dth)
    diag_ring = _ring_diagonals(cax, cfib)
    if grid.steklov_ends == "right":
        return cax[::-1], cfib[::-1], diag_ring[::-1], runs
    return cax, cfib, diag_ring, runs


@pytest.mark.parametrize("ends", ENDS)
@pytest.mark.parametrize("shape", GRIDS + [(256, 64)])
def test_grid_without_runs_is_eliminated_ring_by_ring(shape, ends):
    # the bump has no runs either, but it is declared symmetric and takes the
    # mirrored path; see test_mirrored_grid_matches_the_whole_axis
    grid = grid_for("ramp", shape, ends)
    cax, cfib, diag_ring, runs = ring_arrays(grid)
    assert grid.runs == () and runs == {} and not grid.mirrored
    both = ends == "both"
    chains = _ring_schur(cax, cfib, grid.n_theta, both, runs, grid.mirrored)
    for (schur,), links in zip(chains, _chains(grid.n_theta)):
        expected = per_ring_schur(cax, cfib, diag_ring, np.diag(links, -1), both)
        assert np.array_equal(schur, expected)


def whole_axis_schur(cax, cfib, n_theta, both, runs):
    """_ring_schur with the runs declared and no mirror: every ring of the axis is eliminated.

    Returns each chain's one block, the even chain's first.
    """
    (even,), (odd,) = _ring_schur(cax, cfib, n_theta, both, runs, False)
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
def test_mirrored_grid_matches_the_whole_axis(warp_name, n_axial, n_rings, ends):
    # with both ends Steklov, the half gives the even and odd blocks; with
    # one, the join to the reflection leaves the far (Neumann) end ring,
    # which one more join eliminates
    grid = make_grid(1.0, 2.0 * math.pi, WARPS[warp_name], n_axial, 16, ends)
    assert grid.n_axial == n_rings
    cax, cfib, diag_ring, runs = ring_arrays(grid)
    assert grid.mirrored
    both = ends == "both"
    chains = _ring_schur(cax, cfib, grid.n_theta, both, runs, True)
    assert [len(blocks) for blocks in chains] == [2 if both else 1] * 2
    blocks = chains[0] + chains[1]
    assert all(np.array_equal(block, block.T) for block in blocks)
    # the periodic rings unsplit, every ring stepped: the reflection and the mirror at once
    periodic = per_ring_schur(cax, cfib, diag_ring, periodic_lower(grid.n_theta), both)
    assert deviation(block_eigenvalues(blocks), np.linalg.eigvalsh(periodic)) <= 1e-10
    values = revolution_spectrum(grid)
    assert values[0] == 0.0
    whole = whole_axis_schur(cax, cfib, grid.n_theta, both, runs)
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
    cax, cfib, _, runs = ring_arrays(grid)
    both = ends == "both"
    factors = count_factors(monkeypatch)
    _ring_schur(cax, cfib, grid.n_theta, both, runs, grid.mirrored)
    mirrored = factors()
    whole_axis_schur(cax, cfib, grid.n_theta, both, runs)
    if both:
        assert mirrored <= 2 * (n_axial // 2 + 2)
        assert factors() - mirrored == 2 * (n_axial - 2)
    else:
        assert mirrored <= 2 * (n_axial // 2 + 3)
        assert factors() - mirrored == 2 * (n_axial - 1)


@pytest.mark.parametrize("ends", ENDS)
def test_asymmetric_ramp_never_mirrors(monkeypatch, ends):
    # the ramp has no runs, so without the mirror each ring but the
    # Steklov ends takes one ring step in each chain, and nothing else
    # factors a block
    grid = grid_for("ramp", (128, 32), ends)
    assert not grid.mirrored
    factors = count_factors(monkeypatch)
    assert revolution_spectrum(grid)[0] == 0.0
    assert factors() == 2 * (grid.n_axial - (2 if ends == "both" else 1))


def folded_runs(monkeypatch, grid):
    """(start, sections) of each run that revolution_spectrum folds in one chain."""
    calls, fold = [], oracle._run_two_port

    def counted(c, f, links, start, length):
        calls.append((start, length))
        return fold(c, f, links, start, length)

    monkeypatch.setattr(oracle, "_run_two_port", counted)
    revolution_spectrum(grid)
    return calls[: len(calls) // 2]  # the even chain's; the odd chain folds the same


@pytest.mark.parametrize("ends", ENDS)
@pytest.mark.parametrize("shape", GRIDS + [(256, 64)])
def test_constant_warp_folds_one_run_along_the_axis(monkeypatch, shape, ends):
    # the whole axis is one declared run; the mirrored half folds it up to
    # the section onto the middle
    grid = grid_for("constant", shape, ends)
    assert grid.runs == ((0, grid.n_axial - 1),) and grid.mirrored
    assert folded_runs(monkeypatch, grid) == [(0, grid.n_axial // 2 - 1)]


@pytest.mark.parametrize("ends", ["left", "right"])
@pytest.mark.parametrize("warp_name, n_runs", [("plateau", 5), ("one-sided", 3)])
def test_plateau_grid_folds_its_plateaus(warp_name, n_runs, ends):
    # each run's conductances, from its segment's step, are the grid's own
    # but for the rounding of the nodes, in either order of the rings
    grid = grid_for(warp_name, (256, 64), ends)
    cax, cfib, _, runs = ring_arrays(grid)
    assert sum(k for _, k in grid.runs) >= 0.8 * (grid.n_axial - 1)
    assert len(runs) == len(grid.runs) == n_runs
    for start, (length, c, f) in runs.items():
        assert np.all(np.abs(cax[start : start + length] - c) <= 1e-12 * c)
        assert np.all(np.abs(cfib[start + 1 : start + length] - f) <= 1e-12 * f)


@pytest.mark.parametrize("shape, folded", [
    # the oracle workload's grid: the numeric finder that the declaration
    # replaced folded the same 217 sections
    ((512, 128), [(0, 13), (26, 26), (78, 178)]),
    # the finder split these plateaus into 203 runs and found no mirror
    ((8192, 16), [(0, 205), (410, 410), (1230, 2866)]),
])
def test_plateau_grid_folds_each_plateau_of_its_half_once(monkeypatch, shape, folded):
    grid = grid_for("plateau", shape, "both")
    assert grid.mirrored
    assert folded_runs(monkeypatch, grid) == folded


def test_fine_plateau_grid_matches_the_decomposition_on_its_nodes():
    # the fiber modes' 1D problems on the grid's own 8 192 nodes; the
    # oracle's rounded ring diagonals part it from them by about 1.2e-7
    grid = grid_for("plateau", (8192, 16), "both")
    direct = revolution_spectrum(grid)
    assembled = same_grid_decomposition(grid)
    assert assembled.shape == direct.shape
    assert deviation(direct, assembled) <= 1e-6


def test_bare_nodes_declare_no_run():
    # the same nodes with and without make_grid's declaration: the half ring
    # by ring against the folded half
    declared = grid_for("constant", (64, 16), "both")
    grid = RevolutionGrid(declared.axial_nodes, 16, 1.0, 2.0 * math.pi, WARPS["constant"])
    assert grid.runs == () and grid.mirrored
    assert deviation(revolution_spectrum(grid), revolution_spectrum(declared)) <= 1e-10


@pytest.mark.parametrize("change", [
    {"axial_nodes": graded_mesh(1.0, 63, ((0.1, 0.2),))},  # nodes not symmetric
    {"warp": WARPS["ramp"]},  # a warp not declared symmetric
    # symmetric about 1, not about the grid's middle 0.5
    {"warp": FunctionWarp(lambda t: 1.0 + t * (2.0 - t), 2.0, symmetric=True)},
])
def test_grid_with_an_asymmetric_warp_or_nodes_is_not_mirrored(change):
    grid = grid_for("bump", (64, 16), "both")
    assert grid.mirrored
    assert not dataclasses.replace(grid, **change).mirrored


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
@pytest.mark.parametrize("warp_name", ["constant", "one-sided", "plateau"])
def test_symmetric_powers_equal_general_powering(warp_name, shape):
    # each run of the grid, built from the mirror-symmetric section, against
    # the same run powered as general two-ports, block by block
    grid = grid_for(warp_name, shape, "both")
    _, _, _, runs = ring_arrays(grid)
    assert runs
    for (start, (length, c, f)), links in itertools.product(runs.items(), _chains(grid.n_theta)):
        args = (c, f, links, start, length)
        for block, expected in zip(_run_two_port(*args), general_run_two_port(*args)):
            assert np.abs(block - expected).max() <= 1e-12 * np.abs(expected).max()


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
    cax, cfib, diag_ring, _ = ring_arrays(grid)
    if ends == "right":
        hv = hv[::-1]
    assert grid.runs
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


def same_grid_decomposition(grid):
    """The union of the fiber modes' 1D spectra on the grid's own axial nodes and discrete fiber."""
    spec = WarpedMetricSpec(
        base_dim=1,
        fiber_dim=1,
        warp=grid.warp,
        base=BaseGeometry(point_spectrum(), grid.length, grid.steklov_ends),
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
    return walked.flatten()


@pytest.mark.parametrize("ends", ENDS)
@pytest.mark.parametrize("shape", GRIDS + [(256, 64)])
@pytest.mark.parametrize("warp_name", sorted(WARPS))
def test_decomposition_matches_grid_with_its_discrete_fiber(warp_name, shape, ends):
    # Given the grid's fiber spectrum and axial nodes, each fiber mode's 1D
    # problem is the grid problem restricted to one Fourier mode, so the
    # assembled union is the whole grid spectrum up to roundoff. The 1D
    # collar is built on the grid's own nodes: a graded mesh rebuilt from
    # n_axial - 1 elements is another mesh when the warp has transitions.
    # The plateaus' conductances span about 1e8, and they are held to the
    # module's 1e-8.
    grid = grid_for(warp_name, shape, ends)
    assembled = same_grid_decomposition(grid)
    direct = revolution_spectrum(grid)
    assert assembled.shape == direct.shape
    dev = np.abs(assembled - direct) / np.maximum(np.abs(direct), 1.0)
    assert dev.max() <= (1e-8 if warp_name in ("plateau", "one-sided") else 1e-9)


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
    "length, n_axial, message",
    [
        ("1.0", 64, "length must be positive and finite"),
        (None, 64, "length must be positive and finite"),
        (np.array([1.0, 2.0]), 64, "length must be positive and finite"),
        (1.0, "64", "axial node count must be a real number, not str"),
    ],
)
def test_make_grid_refuses_a_length_or_count_that_is_not_a_real_number(length, n_axial, message):
    # the first two used to raise a TypeError from graded_mesh, the array
    # numpy's ValueError, and the string count a TypeError from n_axial - 1
    with pytest.raises(DomainError, match=message):
        make_grid(length, 2.0 * math.pi, WARPS["plateau"], n_axial, 16)


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
    warp = FunctionWarp(lambda t: np.where(t > 0.5, bad, 1.0), 1.0)
    grid = make_grid(1.0, 2.0 * math.pi, warp, 64, 16)
    with pytest.raises(DomainError, match="warp function must be positive and finite"):
        revolution_spectrum(grid)

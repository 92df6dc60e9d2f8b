"""Tensor-grid oracle: ring-by-ring elimination against the banded Schur reference,
and against the decomposition given the grid's own discrete fiber."""

import math

import numpy as np
import pytest

from steklovwarp import (
    BaseGeometry,
    DomainError,
    MeshResolutionError,
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
    assemble_revolution,
    make_grid,
    revolution_spectrum,
    revolution_steklov,
)

# plateau and bump are mirror-symmetric; the ramp is not, so "left" and
# "right" differ and the reversed elimination of "right" is checked
WARPS = {
    "plateau": WarpProfile(0.05, 2.0 / 3.0, 1.0, symmetric=True),
    "bump": lambda t: 1.0 + t * (1.0 - t),
    "ramp": lambda t: 1.0 + 0.5 * t,
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
        reference = np.sort(sym_eig(dtn_matrix(assemble_revolution(grid)))[0])
        values = revolution_spectrum(grid)
        assert values.shape == (grid.n_boundary,)
        dev = np.abs(values - reference) / np.maximum(np.abs(reference), 1.0)
        assert dev.max() <= 1e-8

    def test_single_constant_mode(self, warp_name, shape, ends):
        values = revolution_spectrum(grid_for(warp_name, shape, ends))
        assert values[0] == 0.0
        assert np.all(values[1:] > 1e-8 * values.max())


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


@pytest.mark.parametrize("count", [0, 33])
def test_count_outside_boundary_nodes_rejected(count):
    grid = grid_for("bump", (64, 16), "both")
    assert grid.n_boundary == 32
    with pytest.raises(DomainError):
        revolution_steklov(grid, count)


def test_directly_built_grid_must_resolve_transitions():
    # 40 uniform elements put about one element in each plateau transition
    with pytest.raises(MeshResolutionError):
        RevolutionGrid(np.linspace(0.0, 1.0, 41), 16, 1.0, 2.0 * math.pi, WARPS["plateau"])

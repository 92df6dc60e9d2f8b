"""Tensor-grid oracle: ring-by-ring elimination against the banded Schur reference."""

import math

import numpy as np
import pytest

from steklovwarp import DomainError, WarpProfile, dtn_matrix, sym_eig
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
        near_zero = np.abs(values) <= 1e-8 * np.abs(values).max()
        assert np.count_nonzero(near_zero) == 1
        assert near_zero[0]


@pytest.mark.parametrize("count", [0, 33])
def test_count_outside_boundary_nodes_rejected(count):
    grid = grid_for("bump", (64, 16), "both")
    assert grid.n_boundary == 32
    with pytest.raises(DomainError):
        revolution_steklov(grid, count)

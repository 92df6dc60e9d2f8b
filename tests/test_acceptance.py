"""The acceptance gate of `steklovwarp verify`, run under pytest."""

import re
from pathlib import Path

import numpy as np
import pytest

from steklovwarp import WarpProfile, acceptance

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def default_run():
    lines = []
    results = acceptance.run_all(seed=0, mesh=400, printer=lines.append)
    return results, lines


def test_all_criteria_pass(default_run):
    results, lines = default_run
    assert [r.index for r in results] == list(range(1, 11))
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)
    assert len(lines) == 10


def test_lines_equal_the_pinned_transcript(default_run):
    # the lines of `python -m steklovwarp verify` at seed 0, their runtime field left out
    _, lines = default_run
    untimed = [re.sub(r" \(\d+\.\ds\)", "", line, count=1) for line in lines]
    assert untimed == (DATA / "verify_default.txt").read_text().splitlines()


def oracle_with(monkeypatch, change):
    """Make criterion 2 read the grid spectrum passed through `change`."""
    exact = acceptance.revolution_spectrum
    monkeypatch.setattr(acceptance, "revolution_spectrum", lambda grid: change(exact(grid)))
    return acceptance.criterion_2_decomposition_vs_oracle()


def test_oracle_missing_a_value_below_the_cutoff_fails(monkeypatch):
    # 16 grid eigenvalues lie below the cutoff; the 16th is dropped
    result = oracle_with(monkeypatch, lambda values: np.delete(values, 15))
    assert not result.passed
    assert result.detail.startswith("FAIL: 15 oracle vs 16 assembler eigenvalues")
    assert "first mismatch: count mismatch at index 15: unmatched assembler value" in result.detail


def test_oracle_value_off_by_ten_percent_fails(monkeypatch):
    def scale_fourth(values):
        values = values.copy()
        values[3] *= 1.1
        return values

    result = oracle_with(monkeypatch, scale_fourth)
    assert not result.passed
    assert result.detail.startswith("FAIL: 16 oracle vs 16 assembler eigenvalues")
    assert "; first mismatch: index 3: oracle " in result.detail


def test_grid_pairing_reads_the_whole_spectrum():
    result = acceptance.criterion_2_decomposition_vs_oracle()
    assert result.passed
    same_grid = result.detail.split("; same grid ")[1]
    assert same_grid.startswith("pass: 128 oracle vs 128 assembler eigenvalues")
    assert float(same_grid.split("max relative deviation ")[1].split()[0]) <= 1e-9


def test_grid_off_the_rebuilt_1d_mesh_fails(monkeypatch):
    # a plateau grid's graded mesh of 255 elements holds 258, and the 1D mesh
    # rebuilt from that count is uniform: the same-grid pairing cannot hold
    plateau = WarpProfile(0.05, 2.0 / 3.0, 1.0, symmetric=True)
    make_grid = acceptance.make_grid

    def plateau_grid(length, fiber_length, warp, **shape):
        return make_grid(length, fiber_length, plateau, **shape)

    monkeypatch.setattr(acceptance, "make_grid", plateau_grid)
    result = acceptance.criterion_2_decomposition_vs_oracle()
    assert not result.passed
    assert result.detail.endswith(
        "; same grid FAIL: the 1D mesh of 258 elements (259 nodes) leaves the grid's axial "
        "mesh (259 nodes) at node 1"
    )


def test_oracle_value_above_the_cutoff_off_by_1e_8_fails(monkeypatch):
    # the 100th grid eigenvalue lies above the cutoff of the first pairing,
    # so only the pairing on the grid's own discretization sees it
    def scale_hundredth(values):
        values = values.copy()
        values[99] *= 1.0 + 1e-8
        return values

    result = oracle_with(monkeypatch, scale_hundredth)
    assert not result.passed
    assert result.detail.startswith("pass: 16 oracle vs 16 assembler eigenvalues")
    assert "; same grid FAIL: 128 oracle vs 128 assembler eigenvalues" in result.detail


def test_quasi_isometry_detail_names_its_tightest_pair():
    result = acceptance.criterion_8_quasi_isometry(seed=0)
    assert result.passed
    head, tail = result.detail.split("; smallest bound ")
    assert head == "20 random pairs within C^5 bounds"
    bound, ratio = tail.split(" (pair ")[0], tail.split("its largest ratio ")[1]
    # the pair with the smallest bound is the one the check constrains most
    assert 1.0 <= float(ratio) <= float(bound)
    # surfaces have m = n + k = 2, so the bound is C^5
    assert tail == "6.644 (pair 7), its largest ratio 1.432"

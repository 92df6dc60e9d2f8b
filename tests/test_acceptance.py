"""The acceptance gate of `steklovwarp verify`, run under pytest."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from steklovwarp import acceptance, graded_mesh

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


# criterion 2's same-grid deviation is roundoff, and its digits follow the
# BLAS thread count: 6.253e-13 with two threads, as pinned, and 8.676e-13
# with one. It is held to a bound ten times above every value seen, far
# inside the criterion's own 1e-9, instead of to its digits
SAME_GRID_FIGURE = re.compile(r"same grid pass: .* max relative deviation (\S+) \(tol")
SAME_GRID_BOUND = 1e-11


def roundoff_apart(lines):
    """The lines with the same-grid figure blanked, and the figures taken out."""
    blanked, figures = [], []
    for line in lines:
        found = SAME_GRID_FIGURE.search(line)
        if found:
            figures.append(float(found[1]))
            line = line[: found.start(1)] + "*" + line[found.end(1) :]
        blanked.append(line)
    return blanked, figures


@pytest.mark.parametrize("seed, pinned", [(0, "verify_default.txt"), (1, "verify_seed1.txt")])
def test_lines_equal_the_pinned_transcript(seed, pinned):
    # the lines of `python -m steklovwarp verify --seed N`, their runtime field
    # left out; criterion 8 draws its pairs from the seed
    lines = []
    acceptance.run_all(seed=seed, mesh=400, printer=lines.append)
    untimed = [re.sub(r" \(\d+\.\ds\)", "", line, count=1) for line in lines]
    blanked, figures = roundoff_apart(untimed)
    expected, pinned_figures = roundoff_apart((DATA / pinned).read_text().splitlines())
    assert blanked == expected
    assert len(figures) == len(pinned_figures) == 1
    assert figures[0] <= SAME_GRID_BOUND


def oracle_with(monkeypatch, change):
    """Make criterion 2 read the grid spectrum passed through `change`."""
    exact = acceptance.revolution_spectrum
    monkeypatch.setattr(acceptance, "revolution_spectrum", lambda grid: change(exact(grid)))
    return acceptance.criterion_2_decomposition_vs_oracle()


def test_a_check_is_looked_up_when_the_gate_runs(monkeypatch):
    # the benchmark's tracer times each criterion by wrapping the module attribute
    monkeypatch.setattr(acceptance, "criterion_4_lambda_monotonicity", lambda: (False, "stub"))
    results = acceptance.run_all(seed=0, mesh=400, printer=lambda line: None)
    assert [r.index for r in results if not r.passed] == [4]
    assert results[3].detail == "stub"


def test_oracle_missing_a_value_below_the_cutoff_fails(monkeypatch):
    # 16 grid eigenvalues lie below the cutoff; the 16th is dropped
    passed, detail = oracle_with(monkeypatch, lambda values: np.delete(values, 15))
    assert not passed
    assert detail.startswith("FAIL: 15 oracle vs 16 assembler eigenvalues")
    assert "first mismatch: count mismatch at index 15: unmatched assembler value" in detail


def test_oracle_value_off_by_ten_percent_fails(monkeypatch):
    def scale_fourth(values):
        values = values.copy()
        values[3] *= 1.1
        return values

    passed, detail = oracle_with(monkeypatch, scale_fourth)
    assert not passed
    assert detail.startswith("FAIL: 16 oracle vs 16 assembler eigenvalues")
    assert "; first mismatch: index 3: oracle " in detail


def same_grid_deviation(detail):
    same_grid = detail.split("; same grid ")[1]
    assert same_grid.startswith("pass: 128 oracle vs 128 assembler eigenvalues")
    return float(same_grid.split("max relative deviation ")[1].split()[0])


def test_grid_pairing_reads_the_whole_spectrum():
    passed, detail = acceptance.criterion_2_decomposition_vs_oracle()
    assert passed
    assert same_grid_deviation(detail) <= 1e-9


def test_grid_pairing_solves_on_the_grids_own_axial_nodes(monkeypatch):
    # nodes refined on a span the bump does not have: no mesh rebuilt from
    # the grid's element count gives them, and the pairing still holds
    nodes = graded_mesh(1.0, 255, ((0.1, 0.2),))
    make_grid = acceptance.make_grid

    def refined_grid(*args, **shape):
        return dataclasses.replace(make_grid(*args, **shape), axial_nodes=nodes)

    monkeypatch.setattr(acceptance, "make_grid", refined_grid)
    passed, detail = acceptance.criterion_2_decomposition_vs_oracle()
    assert passed
    assert same_grid_deviation(detail) <= 1e-9


def test_oracle_value_above_the_cutoff_off_by_1e_8_fails(monkeypatch):
    # the 100th grid eigenvalue lies above the cutoff of the first pairing,
    # so only the pairing on the grid's own discretization sees it
    def scale_hundredth(values):
        values = values.copy()
        values[99] *= 1.0 + 1e-8
        return values

    passed, detail = oracle_with(monkeypatch, scale_hundredth)
    assert not passed
    assert detail.startswith("pass: 16 oracle vs 16 assembler eigenvalues")
    assert "; same grid FAIL: 128 oracle vs 128 assembler eigenvalues" in detail


def test_quasi_isometry_detail_names_its_tightest_pair():
    passed, detail = acceptance.criterion_8_quasi_isometry(seed=0)
    assert passed
    head, tail = detail.split("; smallest bound ")
    assert head == "20 random pairs within C^5 bounds"
    bound, ratio = tail.split(" (pair ")[0], tail.split("its largest ratio ")[1]
    # the pair with the smallest bound is the one the check constrains most
    assert 1.0 <= float(ratio) <= float(bound)
    # surfaces have m = n + k = 2, so the bound is C^5
    assert tail == "6.644 (pair 7), its largest ratio 1.432"

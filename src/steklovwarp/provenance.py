"""Spectra tagged with the (fiber eigenvalue, cross-section mode) pairs that produced them.

The decomposition theorem assembles the warped-product spectrum as a union
over fiber eigenvalues of base spectra, each of which is itself a union
over cross-section modes. Every computed eigenvalue therefore carries its
source, and coincident values (up to a relative merge tolerance) collapse
into a single entry whose multiplicity is the sum over sources of
fiber multiplicity times cross-section multiplicity.

A walk tags each eigenvalue as a plain row (value, fiber_value,
cross_value, branch, fiber_mult, cross_mult). merge_tagged sorts the rows
once and groups them in one pass; the merged spectrum is that table: the
sorted rows, where each group starts, and each group's anchor value and
multiplicity. Values, multiplicities and the CSV rows are read from the
table. The SpectrumEntry and EigenSource objects of `entries` are built
only when it is first read, and then cached.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import DomainError

# The ladder reduction has no cancellation, so values that coincide
# mathematically agree to roundoff; a wider tolerance folds distinct
# eigenvalues into the smallest of their group.
MERGE_RTOL = 1e-12
MERGE_ATOL = 1e-12

# (value, fiber_value, cross_value, branch, fiber_mult, cross_mult)
Row = tuple[float, float, float, int, int, int]
_ORDER = itemgetter(0, 1, 2, 3)  # the sort key: value, fiber, cross-section mode, branch
_SOURCE = itemgetter(1, 4, 2, 5, 3)  # a row's EigenSource fields, in their order


class EigenSource(NamedTuple):
    """One branch eigenvalue of one (fiber eigenvalue, cross-section mode) problem."""

    fiber_value: float
    fiber_mult: int
    cross_value: float
    cross_mult: int
    branch: int

    @property
    def multiplicity(self) -> int:
        return self.fiber_mult * self.cross_mult


@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    multiplicity: int
    sources: tuple[EigenSource, ...]


@dataclass(frozen=True)
class SpectrumWithProvenance:
    """Ascending merged eigenvalues with multiplicity and source bookkeeping.

    rows are the tagged rows in merge order; group g is
    rows[starts[g]:starts[g + 1]], its value is anchors[g], the smallest
    value in it, and its multiplicity multiplicities[g]. `entries` is the
    same spectrum as SpectrumEntry objects, built on first read and cached.
    """

    rows: tuple[Row, ...]
    starts: tuple[int, ...]
    anchors: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def groups(self) -> Iterator[tuple[float, int, tuple[Row, ...]]]:
        """(value, multiplicity, rows) of each merged entry, ascending."""
        ends = self.starts[1:] + (len(self.rows),)
        for anchor, mult, start, end in zip(self.anchors, self.multiplicities, self.starts, ends):
            yield anchor, mult, self.rows[start:end]

    @cached_property
    def entries(self) -> tuple[SpectrumEntry, ...]:
        return tuple(
            SpectrumEntry(anchor, mult, tuple(map(EigenSource._make, map(_SOURCE, rows))))
            for anchor, mult, rows in self.groups()
        )

    def values(self) -> np.ndarray:
        return np.array(self.anchors, dtype=float)

    def flatten(self) -> np.ndarray:
        """Eigenvalues repeated according to multiplicity."""
        if not self.anchors:
            return np.zeros(0)
        return np.repeat(self.values(), self.multiplicities)

    @property
    def total_multiplicity(self) -> int:
        return sum(self.multiplicities)

    def __len__(self) -> int:
        return len(self.anchors)

    def min_value(self) -> float:
        if not self.anchors:
            raise DomainError("empty spectrum has no minimum")
        return self.anchors[0]


def merge_tagged(tagged: list[Row]) -> SpectrumWithProvenance:
    """Sort tagged rows and merge coincident values into single entries.

    Grouping is anchored at the first (smallest) value of each group so a
    chain of nearly equal values cannot drift across the tolerance. The
    output order is deterministic: by value, then fiber eigenvalue, then
    cross-section mode, then branch index, then input order.
    """
    rows = sorted(tagged, key=_ORDER)  # stable: ties keep their input order
    starts: list[int] = []
    anchors: list[float] = []
    mults: list[int] = []
    # value >= anchor, so a value joins the group if value - anchor is at most
    # max(MERGE_RTOL * max(|value|, |anchor|), MERGE_ATOL); the part of that
    # bound fixed by the anchor is its reach. No comparison with NaN holds, so
    # the first row opens a group.
    anchor = reach = float("nan")
    for i, (value, _, _, _, fiber_mult, cross_mult) in enumerate(rows):
        gap = value - anchor
        if gap <= reach or gap <= MERGE_RTOL * value:
            mults[-1] += fiber_mult * cross_mult
        else:
            anchor, reach = value, max(-MERGE_RTOL * value, MERGE_ATOL)
            starts.append(i)
            anchors.append(value)
            mults.append(fiber_mult * cross_mult)
    return SpectrumWithProvenance(tuple(rows), tuple(starts), tuple(anchors), tuple(mults))

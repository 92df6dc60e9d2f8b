"""Spectra tagged with the (fiber eigenvalue, cross-section mode) pairs that produced them.

The decomposition theorem assembles the warped-product spectrum as a union
over fiber eigenvalues of base spectra, each of which is itself a union
over cross-section modes. Every computed eigenvalue therefore carries its
source, and coincident values (up to a relative merge tolerance) collapse
into a single entry whose multiplicity is the sum over sources of
fiber multiplicity times cross-section multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The ladder reduction has no cancellation, so values that coincide
# mathematically agree to roundoff; a wider tolerance folds distinct
# eigenvalues into the smallest of their group.
MERGE_RTOL = 1e-12
MERGE_ATOL = 1e-12


@dataclass(frozen=True)
class EigenSource:
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
    """Ascending merged eigenvalues with multiplicity and source bookkeeping."""

    entries: tuple[SpectrumEntry, ...]

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries])

    def flatten(self) -> np.ndarray:
        """Eigenvalues repeated according to multiplicity."""
        if not self.entries:
            return np.zeros(0)
        return np.repeat(self.values(), [e.multiplicity for e in self.entries])

    @property
    def total_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def min_value(self) -> float:
        if not self.entries:
            raise ValueError("empty spectrum has no minimum")
        return self.entries[0].value


def merge_tagged(tagged: list[tuple[float, EigenSource]]) -> SpectrumWithProvenance:
    """Sort tagged eigenvalues and merge coincident values into single entries.

    Grouping is anchored at the first (smallest) value of each group so a
    chain of nearly equal values cannot drift across the tolerance. The
    output order is deterministic: by value, then fiber eigenvalue, then
    cross-section mode, then branch index, then input order.
    """
    ordered = sorted(
        (value, source.fiber_value, source.cross_value, source.branch, i)
        for i, (value, source) in enumerate(tagged)
    )
    entries: list[SpectrumEntry] = []
    anchor, group, mult = 0.0, [], 0
    for value, _, _, _, i in ordered:
        source = tagged[i][1]
        # value >= anchor, so |value - anchor| = value - anchor and
        # max(|value|, |anchor|) = max(value, -anchor)
        if group and value - anchor <= max(MERGE_RTOL * max(value, -anchor), MERGE_ATOL):
            group.append(source)
            mult += source.multiplicity
            continue
        if group:
            entries.append(SpectrumEntry(anchor, mult, tuple(group)))
        anchor, group, mult = value, [source], source.multiplicity
    if group:
        entries.append(SpectrumEntry(anchor, mult, tuple(group)))
    return SpectrumWithProvenance(tuple(entries))

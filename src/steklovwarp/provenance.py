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

    def sort_key(self) -> tuple:
        return (self.fiber_value, self.cross_value, self.branch)


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
    cross-section mode, then branch index.
    """
    ordered = sorted(tagged, key=lambda vs: (vs[0], vs[1].sort_key()))
    entries: list[SpectrumEntry] = []
    group_value = None
    group_sources: list[EigenSource] = []

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= max(MERGE_RTOL * max(abs(a), abs(b)), MERGE_ATOL)

    for value, source in ordered:
        if group_value is not None and close(value, group_value):
            group_sources.append(source)
        else:
            if group_value is not None:
                entries.append(_entry(group_value, group_sources))
            group_value = value
            group_sources = [source]
    if group_value is not None:
        entries.append(_entry(group_value, group_sources))
    return SpectrumWithProvenance(tuple(entries))


def _entry(value: float, sources: list[EigenSource]) -> SpectrumEntry:
    mult = sum(s.multiplicity for s in sources)
    return SpectrumEntry(value, mult, tuple(sources))

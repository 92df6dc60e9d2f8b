"""Exact eigenvalue sequences of the closed manifolds used as fibers and cross-sections.

Spectra are closed forms with multiplicity bookkeeping, stored as distinct
ascending (value, multiplicity) pairs. Generated kinds (circle, flat torus)
can be extended on demand. An explicit list is either complete (it holds
every eigenvalue, like the spectrum {0} of a 0-dimensional cross-section)
or trusted only up to its last stored value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import CompletenessError, DomainError

TWO_PI = 2.0 * math.pi

# relative tolerance for merging lattice values that should coincide
_MERGE_RTOL = 1e-12


@dataclass(frozen=True)
class ClosedSpectrum:
    """Sorted eigenvalue/multiplicity stream of a closed manifold.

    kind is one of "circle", "flat_torus", "explicit"; params holds the
    geometric data (circle length, torus side lengths). entries is the
    cached ascending list of (value, multiplicity) pairs, and complete says
    that it holds every eigenvalue of the manifold.
    """

    kind: str
    params: tuple[float, ...]
    entries: tuple[tuple[float, int], ...]
    complete: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("circle", "flat_torus", "explicit"):
            raise DomainError(f"unknown spectrum kind {self.kind!r}")
        if not self.entries:
            raise DomainError("spectrum must contain at least one entry")
        if self.entries[0][0] != 0.0:
            raise DomainError("first eigenvalue of a closed manifold is 0")
        last = -1.0
        for value, mult in self.entries:
            if value <= last:
                raise DomainError("spectrum values must be strictly increasing")
            if mult < 1:
                raise DomainError("multiplicities must be positive")
            last = value

    @property
    def last_value(self) -> float:
        return self.entries[-1][0]


def circle_spectrum(length: float, count: int) -> ClosedSpectrum:
    """First `count` distinct Laplace eigenvalues of a circle of given circumference.

    Eigenvalues are (2 pi j / length)^2 with multiplicity 1 for j = 0 and 2
    for j >= 1.
    """
    if length <= 0:
        raise DomainError("circle length must be positive")
    if count < 1:
        raise DomainError("count must be at least 1")
    entries = [(0.0, 1)]
    for j in range(1, count):
        entries.append(((TWO_PI * j / length) ** 2, 2))
    return ClosedSpectrum("circle", (length,), tuple(entries))


def _torus_keys(l1: float, l2: float, bound: float) -> dict[Fraction, int]:
    """Exact lattice enumeration of a^2/l1^2 + b^2/l2^2 <= bound."""
    q1 = Fraction(l1) * Fraction(l1)
    q2 = Fraction(l2) * Fraction(l2)
    fb = Fraction(bound)
    amax = int(math.isqrt(math.floor(bound * l1 * l1 + 1)) + 1)
    bmax = int(math.isqrt(math.floor(bound * l2 * l2 + 1)) + 1)
    counts: dict[Fraction, int] = {}
    for a in range(-amax, amax + 1):
        ka = Fraction(a * a) / q1
        if ka > fb:
            continue
        for b in range(-bmax, bmax + 1):
            key = ka + Fraction(b * b) / q2
            if key <= fb:
                counts[key] = counts.get(key, 0) + 1
    return counts


def flat_torus_spectrum(l1: float, l2: float, count: int) -> ClosedSpectrum:
    """First `count` distinct eigenvalues of the flat torus with side lengths l1, l2.

    Values are (2 pi a / l1)^2 + (2 pi b / l2)^2 over integer (a, b), with
    multiplicity the number of lattice representations. Coincidence of
    lattice values is decided by exact rational comparison of the scaled
    keys; residual float noise is merged at 1e-12 relative.
    """
    if l1 <= 0 or l2 <= 0:
        raise DomainError("torus side lengths must be positive")
    if count < 1:
        raise DomainError("count must be at least 1")
    bound = count * (1.0 / (l1 * l1) + 1.0 / (l2 * l2)) + 1.0
    while True:
        counts = _torus_keys(l1, l2, bound)
        if len(counts) >= count:
            break
        bound *= 2.0
    keys = sorted(counts)
    merged: list[tuple[float, int]] = []
    for key in keys:
        value = TWO_PI * TWO_PI * float(key)
        if merged and value - merged[-1][0] <= _MERGE_RTOL * max(value, merged[-1][0]):
            merged[-1] = (merged[-1][0], merged[-1][1] + counts[key])
        else:
            merged.append((value, counts[key]))
    return ClosedSpectrum("flat_torus", (l1, l2), tuple(merged[:count]))


def point_spectrum() -> ClosedSpectrum:
    """Spectrum of a 0-dimensional connected cross-section: {0} and nothing else.

    Used when the base is an interval; the list is complete, so mode
    iteration may stop after the zero mode without a completeness failure.
    """
    return explicit_spectrum([(0.0, 1)], complete=True)


def explicit_spectrum(entries, complete: bool = False) -> ClosedSpectrum:
    """Spectrum given as a literal (value, multiplicity) list, complete or not."""
    return ClosedSpectrum(
        "explicit", (), tuple((float(v), int(m)) for v, m in entries), complete
    )


def extend(spec: ClosedSpectrum, count: int) -> ClosedSpectrum:
    """Return a spectrum of the same manifold with at least `count` cached entries.

    A complete spectrum is returned unchanged, since it has no more entries.
    Only the generated kinds can grow; an incomplete explicit list raises
    CompletenessError.
    """
    if spec.complete or len(spec.entries) >= count:
        return spec
    if spec.kind == "circle":
        return circle_spectrum(spec.params[0], count)
    if spec.kind == "flat_torus":
        return flat_torus_spectrum(spec.params[0], spec.params[1], count)
    raise CompletenessError(
        f"explicit spectrum holds {len(spec.entries)} entries, cannot extend to {count}"
    )


def iter_entries(spec: ClosedSpectrum) -> Iterator[tuple[float, int]]:
    """Yield (value, multiplicity) in ascending order, extending on demand.

    Generated kinds never run out. A complete spectrum ends after its last
    entry; an exhausted incomplete one raises CompletenessError, since
    eigenvalues may be missing beyond the cache.
    """
    if spec.kind in ("circle", "flat_torus"):
        current = spec
        i = 0
        while True:
            if i >= len(current.entries):
                current = extend(current, 2 * len(current.entries))
            yield current.entries[i]
            i += 1
    else:
        yield from spec.entries
        if not spec.complete:
            raise CompletenessError(
                "explicit spectrum exhausted before the stopping criterion was met"
            )


class CachedEntries:
    """One iter_entries stream of a spectrum, read once and replayed to every reader.

    Readers ask for blocks by position, so a generated spectrum is extended
    once however many readers walk it, exactly as a single stream would be.
    A block comes back short only when the stream has ended: at the last
    eigenvalue if the spectrum is complete, and at the last known one if not.
    """

    def __init__(self, spec: ClosedSpectrum) -> None:
        self.complete = spec.complete
        self._stream = iter_entries(spec)
        self._entries: list[tuple[float, int]] = []

    def take(self, start: int, count: int) -> list[tuple[float, int]]:
        """Up to `count` entries from position `start`."""
        while len(self._entries) < start + count:
            try:
                self._entries.append(next(self._stream))
            except (StopIteration, CompletenessError):
                break
        return self._entries[start : start + count]

"""Exact eigenvalue sequences of the closed manifolds used as fibers and cross-sections.

Spectra are closed forms with multiplicity bookkeeping, stored as distinct
ascending (value, multiplicity) pairs. Generated kinds (circle, flat torus)
can be extended on demand; explicit lists are trusted complete only up to
their last stored value. The degenerate "point" kind models a 0-dimensional
cross-section (an interval base) and is complete by construction.
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

    kind is one of "circle", "flat_torus", "point", "explicit"; params holds
    the geometric data (circle length, torus side lengths). entries is the
    cached ascending list of (value, multiplicity) pairs.
    """

    kind: str
    params: tuple[float, ...]
    entries: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("circle", "flat_torus", "point", "explicit"):
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

    def count_with_multiplicity(self, bound: float) -> int:
        """Number of eigenvalues <= bound counted with multiplicity."""
        return sum(m for v, m in self.entries if v <= bound)


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

    Used when the base is an interval; unlike an explicit list this stream
    is complete, so mode iteration may stop after the zero mode without a
    completeness failure.
    """
    return ClosedSpectrum("point", (), ((0.0, 1),))


def explicit_spectrum(entries) -> ClosedSpectrum:
    """Spectrum given as a literal (value, multiplicity) list, possibly incomplete."""
    return ClosedSpectrum("explicit", (), tuple((float(v), int(m)) for v, m in entries))


def extend(spec: ClosedSpectrum, count: int) -> ClosedSpectrum:
    """Return a spectrum of the same manifold with at least `count` cached entries.

    Only the generated kinds can grow; explicit lists raise CompletenessError
    and the point spectrum is already complete.
    """
    if len(spec.entries) >= count:
        return spec
    if spec.kind == "circle":
        return circle_spectrum(spec.params[0], count)
    if spec.kind == "flat_torus":
        return flat_torus_spectrum(spec.params[0], spec.params[1], count)
    if spec.kind == "point":
        raise CompletenessError("point spectrum has a single eigenvalue")
    raise CompletenessError(
        f"explicit spectrum holds {len(spec.entries)} entries, cannot extend to {count}"
    )


def truncate_below(spec: ClosedSpectrum, bound: float) -> ClosedSpectrum:
    """All cached entries with value <= bound, certified complete.

    Completeness requires bound not to exceed the last cached value, since
    nothing is known beyond the cache; the result is an explicit spectrum.
    """
    if bound < 0:
        raise DomainError("bound must be nonnegative")
    if bound > spec.last_value and spec.kind != "point":
        raise CompletenessError(
            f"bound {bound} exceeds last cached eigenvalue {spec.last_value}"
        )
    kept = tuple(e for e in spec.entries if e[0] <= bound)
    return ClosedSpectrum("explicit", (), kept)


def iter_entries(spec: ClosedSpectrum) -> Iterator[tuple[float, int]]:
    """Yield (value, multiplicity) in ascending order, extending on demand.

    Generated kinds never run out. The point spectrum ends after the zero
    mode (a complete stream). An exhausted explicit spectrum raises
    CompletenessError, since eigenvalues may be missing beyond the cache.
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
        if spec.kind == "explicit":
            raise CompletenessError(
                "explicit spectrum exhausted before the stopping criterion was met"
            )


class CachedEntries:
    """One iter_entries stream of a spectrum, read once and replayed to every reader.

    Readers ask for blocks by position, so a generated spectrum is extended
    once however many readers walk it, exactly as a single stream would be.
    """

    def __init__(self, spec: ClosedSpectrum) -> None:
        self._stream = iter_entries(spec)
        self._entries: list[tuple[float, int]] = []
        self._end: Exception | None = None

    def take(
        self, start: int, count: int
    ) -> tuple[list[tuple[float, int]], Exception | None]:
        """Up to `count` entries from position `start`, and why the stream ended.

        The reason is None while the block is full; for a short block it is
        StopIteration (a complete stream) or CompletenessError (an exhausted
        explicit list).
        """
        while len(self._entries) < start + count and self._end is None:
            try:
                self._entries.append(next(self._stream))
            except (StopIteration, CompletenessError) as exc:
                self._end = exc
        block = self._entries[start : start + count]
        return block, (self._end if len(block) < count else None)

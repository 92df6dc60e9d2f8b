"""Exact eigenvalue sequences of the closed manifolds used as fibers and cross-sections.

Spectra are closed forms with multiplicity bookkeeping, as distinct
ascending (value, multiplicity) pairs. Each generated kind (circle, flat
torus) has one exact lazy stream in _STREAMS. A ClosedSpectrum is read by
position through its take method, which extends a generated kind's memo
from the stream. An explicit list is either complete (it holds every
eigenvalue, like the spectrum {0} of a 0-dimensional cross-section) or
trusted only up to its last stored value.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import CompletenessError, DomainError

TWO_PI = 2.0 * math.pi

# relative tolerance for merging lattice values that should coincide
_MERGE_RTOL = 1e-12


@dataclass(frozen=True)
class ClosedSpectrum:
    """Sorted eigenvalue/multiplicity sequence of a closed manifold.

    kind is "explicit" or a key of _STREAMS, whose stream takes params as
    arguments (circle length, torus side lengths). entries is the cached
    ascending head of (value, multiplicity) pairs, and complete says that it
    holds every eigenvalue of the manifold.
    """

    kind: str
    params: tuple[float, ...]
    entries: tuple[tuple[float, int], ...]
    complete: bool = False

    def __post_init__(self) -> None:
        if self.kind not in (*_STREAMS, "explicit"):
            raise DomainError(f"unknown spectrum kind {self.kind!r}")
        if not self.entries:
            raise DomainError("spectrum must contain at least one entry")
        if self.entries[0][0] != 0.0:
            raise DomainError("first eigenvalue of a closed manifold is 0")
        last = -1.0
        for value, mult in self.entries:
            if not last < value < math.inf:  # NaN fails both comparisons
                raise DomainError("spectrum values must be finite and strictly increasing")
            if mult < 1:
                raise DomainError("multiplicities must be positive")
            last = value

    @property
    def last_value(self) -> float:
        return self.entries[-1][0]

    def take(self, start: int, count: int) -> tuple[tuple[float, int], ...]:
        """Up to `count` entries from position `start`.

        A generated kind reads its stream into a memo that at least doubles
        each time it grows, so reading the first n entries costs O(n) stream
        steps however the reads are split. The memo holds no generator and
        is no field: the spectrum still pickles, copies, compares and hashes
        by its fields. An explicit list comes back short only at its end,
        which is its last eigenvalue if complete and the last one known if not.
        """
        stop = start + count
        memo = vars(self).get("_memo", self.entries)
        if len(memo) < stop and self.kind in _STREAMS:
            stream = _STREAMS[self.kind](*self.params)
            memo = vars(self)["_memo"] = tuple(itertools.islice(stream, max(stop, 2 * len(memo))))
        return memo[start:stop]


def _circle_stream(length: float) -> Iterator[tuple[float, int]]:
    """(2 pi j / length)^2 for j = 0, 1, ..., with multiplicity 1 at j = 0 and 2 after."""
    yield 0.0, 1
    for j in itertools.count(1):
        yield (TWO_PI * j / length) ** 2, 2


def _torus_stream(l1: float, l2: float) -> Iterator[tuple[float, int]]:
    """Distinct eigenvalues of the flat torus with sides l1, l2, ascending.

    A heap walks the quadrant a, b >= 0 in order of the exact key
    a^2/l1^2 + b^2/l2^2, pushing (a, b + 1) after (a, b) and (a + 1, 0)
    after (a, 0); each point counts for its 1, 2 or 4 sign copies. With
    l = p/q exactly, the key is an integer over den = (p1 p2)^2, and
    key / den is correctly rounded. A value within _MERGE_RTOL of its
    group's first value joins that group.
    """
    (p1, q1), (p2, q2) = l1.as_integer_ratio(), l2.as_integer_ratio()
    wa, wb, den = (q1 * p2) ** 2, (q2 * p1) ** 2, (p1 * p2) ** 2
    heap = [(0, 0, 0)]
    group_value, group_mult = 0.0, 0
    while True:
        key, a, b = heapq.heappop(heap)
        heapq.heappush(heap, (key + (2 * b + 1) * wb, a, b + 1))
        if b == 0:
            heapq.heappush(heap, (key + (2 * a + 1) * wa, a + 1, 0))
        value = TWO_PI * TWO_PI * (key / den)
        mult = (2 if a else 1) * (2 if b else 1)
        if value - group_value <= _MERGE_RTOL * max(value, group_value):
            group_mult += mult
        else:
            yield group_value, group_mult
            group_value, group_mult = value, mult


# the lazy stream of each generated kind, called with the kind's params
_STREAMS = {"circle": _circle_stream, "flat_torus": _torus_stream}


def _head(kind: str, params: tuple[float, ...], count: int) -> ClosedSpectrum:
    """The first `count` entries of a generated kind's stream."""
    if count < 1:
        raise DomainError("count must be at least 1")
    return ClosedSpectrum(kind, params, tuple(itertools.islice(_STREAMS[kind](*params), count)))


def circle_spectrum(length: float, count: int) -> ClosedSpectrum:
    """First `count` distinct Laplace eigenvalues of a circle of given circumference.

    Eigenvalues are (2 pi j / length)^2 with multiplicity 1 for j = 0 and 2
    for j >= 1.
    """
    if not 0.0 < length < math.inf:  # NaN fails both comparisons
        raise DomainError("circle length must be positive and finite")
    return _head("circle", (length,), count)


def flat_torus_spectrum(l1: float, l2: float, count: int) -> ClosedSpectrum:
    """First `count` distinct eigenvalues of the flat torus with side lengths l1, l2.

    Values are (2 pi a / l1)^2 + (2 pi b / l2)^2 over integer (a, b), with
    multiplicity the number of lattice representations. Each value is
    rounded once from an exact lattice key, and values within 1e-12
    relative of a group's first value are merged.
    """
    if not (0.0 < l1 < math.inf and 0.0 < l2 < math.inf):  # NaN fails both comparisons
        raise DomainError("torus side lengths must be positive and finite")
    return _head("flat_torus", (l1, l2), count)


def discrete_circle_spectrum(length: float, n_theta: int) -> ClosedSpectrum:
    """Complete spectrum of the n_theta-point periodic difference Laplacian on a circle.

    With dth = length / n_theta, its eigenvalues are (4/dth^2) sin^2(pi j/n_theta)
    for j = 0 ... n_theta/2, with multiplicity 1 at both ends of that range
    and 2 between: the fiber of the oracle's tensor grid.
    """
    if not 0.0 < length < math.inf:  # NaN fails both comparisons
        raise DomainError("circle length must be positive and finite")
    if n_theta < 2 or n_theta % 2:
        raise DomainError("n_theta must be a positive even integer")
    dth = length / n_theta
    half = n_theta // 2
    values = [(4.0 / dth**2) * math.sin(math.pi * j / n_theta) ** 2 for j in range(half + 1)]
    return explicit_spectrum(zip(values, [1] + [2] * (half - 1) + [1]), complete=True)


def point_spectrum() -> ClosedSpectrum:
    """Spectrum of a 0-dimensional connected cross-section: {0} and nothing else.

    Used when the base is an interval; the list is complete, so mode
    iteration may stop after the zero mode without a completeness failure.
    """
    return explicit_spectrum([(0.0, 1)], complete=True)


def explicit_spectrum(entries, complete: bool = False) -> ClosedSpectrum:
    """Spectrum given as a literal (value, multiplicity) list, complete or not."""
    entries = [(float(v), m) for v, m in entries]
    bad = [m for _, m in entries if not float(m).is_integer()]  # NaN and inf are not either
    if bad:
        raise DomainError(f"multiplicities must be whole numbers, got {bad[0]}")
    return ClosedSpectrum("explicit", (), tuple((v, int(m)) for v, m in entries), complete)


def extend(spec: ClosedSpectrum, count: int) -> ClosedSpectrum:
    """Return a spectrum of the same manifold with at least `count` cached entries.

    A complete spectrum is returned unchanged, since it has no more entries.
    A generated kind caches the first `count` entries that spec.take reads;
    an incomplete explicit list raises CompletenessError.
    """
    if spec.complete or len(spec.entries) >= count:
        return spec
    if spec.kind in _STREAMS:
        return ClosedSpectrum(spec.kind, spec.params, spec.take(0, count))
    raise CompletenessError(
        f"explicit spectrum holds {len(spec.entries)} entries, cannot extend to {count}"
    )

"""Closed-manifold spectrum generators against brute-force enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovwarp import (
    CompletenessError,
    DomainError,
    circle_spectrum,
    explicit_spectrum,
    flat_torus_spectrum,
    point_spectrum,
)
from steklovwarp import spectra
from steklovwarp.spectra import CachedEntries, extend, iter_entries

TWO_PI = 2.0 * math.pi


def cached(spec):
    return CachedEntries(iter_entries(spec), spec.complete)


def brute_force_torus(l1, l2, count):
    """Independent lattice enumeration used as the oracle for the generator."""
    bound = 10.0 * (count + 1) * ((2 * math.pi / l1) ** 2 + (2 * math.pi / l2) ** 2)
    amax = int(l1 * math.sqrt(bound) / (2 * math.pi)) + 2
    bmax = int(l2 * math.sqrt(bound) / (2 * math.pi)) + 2
    values = {}
    for a in range(-amax, amax + 1):
        for b in range(-bmax, bmax + 1):
            v = (2 * math.pi * a / l1) ** 2 + (2 * math.pi * b / l2) ** 2
            if v <= bound:
                key = round(v, 9)
                values[key] = values.get(key, 0) + 1
    return sorted(values.items())[:count]


class TestCircle:
    def test_unit_circle_first_three(self):
        spec = circle_spectrum(TWO_PI, 3)
        assert spec.entries == ((0.0, 1), (1.0, 2), (4.0, 2))

    def test_single_entry(self):
        assert circle_spectrum(TWO_PI, 1).entries == ((0.0, 1),)

    def test_length_pi(self):
        spec = circle_spectrum(math.pi, 2)
        assert spec.entries[0] == (0.0, 1)
        assert spec.entries[1] == pytest.approx((4.0, 2))

    @pytest.mark.parametrize("length", [0.0, -1.0, math.inf, math.nan])
    def test_nonpositive_or_nonfinite_length_rejected(self, length):
        with pytest.raises(DomainError, match="circle length must be positive and finite"):
            circle_spectrum(length, 3)

    @given(
        length=st.floats(0.3, 30.0),
        count=st.integers(2, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_counting_formula(self, length, count):
        # eigenvalues <= bound, with multiplicity: 1 + 2*floor(length*sqrt(bound)/(2 pi))
        spec = circle_spectrum(length, count)
        bound = spec.entries[-1][0]
        got = sum(m for v, m in spec.entries if v <= bound)
        expected = 1 + 2 * math.floor(length * math.sqrt(bound) / (2 * math.pi) + 1e-9)
        assert got == expected

    @given(length=st.floats(0.3, 30.0), count=st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_ascending_with_positive_multiplicity(self, length, count):
        spec = circle_spectrum(length, count)
        values = [v for v, _ in spec.entries]
        assert values == sorted(values)
        assert len(set(values)) == len(values)
        assert all(m >= 1 for _, m in spec.entries)


class TestDiscreteCircle:
    @pytest.mark.parametrize("n_theta", [2, 4, 16, 64])
    @pytest.mark.parametrize("length", [1.0, TWO_PI])
    def test_matches_the_periodic_difference_laplacian(self, length, n_theta):
        # (2 u_i - u_{i-1} - u_{i+1}) / dth^2 on n_theta points around the circle
        dth = length / n_theta
        eye = np.eye(n_theta)
        laplacian = (2.0 * eye - np.roll(eye, 1, axis=0) - np.roll(eye, -1, axis=0)) / dth**2
        spec = spectra.discrete_circle_spectrum(length, n_theta)
        assert spec.complete
        flat = np.repeat([v for v, _ in spec.entries], [m for _, m in spec.entries])
        expected = np.linalg.eigvalsh(laplacian)
        assert flat.shape == expected.shape
        assert np.abs(flat - expected).max() <= 1e-12 * expected.max()

    @pytest.mark.parametrize("length, n_theta, message", [
        (0.0, 16, "circle length must be positive and finite"),
        (math.nan, 16, "circle length must be positive and finite"),
        (1.0, 0, "n_theta must be a positive even integer"),
        (1.0, 15, "n_theta must be a positive even integer"),
    ])
    def test_bad_input_rejected(self, length, n_theta, message):
        with pytest.raises(DomainError, match=message):
            spectra.discrete_circle_spectrum(length, n_theta)


class TestFlatTorus:
    def test_square_torus(self):
        spec = flat_torus_spectrum(TWO_PI, TWO_PI, 3)
        assert spec.entries == ((0.0, 1), (1.0, 4), (2.0, 4))

    def test_single_entry(self):
        assert flat_torus_spectrum(TWO_PI, TWO_PI, 1).entries == ((0.0, 1),)

    def test_rectangular(self):
        spec = flat_torus_spectrum(TWO_PI, 2 * TWO_PI, 2)
        assert spec.entries[1] == pytest.approx((0.25, 2))

    @pytest.mark.parametrize("l1, l2", [(0.0, 1.0), (1.0, -1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_nonpositive_or_nonfinite_side_rejected(self, l1, l2):
        with pytest.raises(DomainError, match="torus side lengths must be positive and finite"):
            flat_torus_spectrum(l1, l2, 2)

    @pytest.mark.parametrize(
        "l1,l2,count",
        [(TWO_PI, TWO_PI, 8), (1.0, 2.0, 10), (math.pi, 1.5, 6), (3.0, 3.0, 12)],
    )
    def test_against_brute_force(self, l1, l2, count):
        spec = flat_torus_spectrum(l1, l2, count)
        expected = brute_force_torus(l1, l2, count)
        assert len(spec.entries) == count
        for (v, m), (ev, em) in zip(spec.entries, expected):
            assert v == pytest.approx(ev, abs=1e-8)
            assert m == em

    @given(l=st.floats(0.5, 10.0), count=st.integers(2, 15))
    @settings(max_examples=40, deadline=None)
    def test_square_multiplicities_divisible_by_four(self, l, count):
        # the nonzero lattice points (a, b) with a given a^2 + b^2 fall into
        # orbits of the square's symmetry group (signs and swap) of size 4 or 8
        spec = flat_torus_spectrum(l, l, count)
        for v, m in spec.entries[1:]:
            assert m % 4 == 0

    def test_near_coincident_values_merge_into_whole_groups(self):
        # l2 is one ulp-scale step from l1, so lattice values that coincide
        # on the square torus differ by about 1e-13 relative: each group
        # must hold all of its lattice points, and every head its full count
        l1, l2 = 1.0, 1.0000000000001
        values = sorted(
            (TWO_PI * a / l1) ** 2 + (TWO_PI * b / l2) ** 2
            for a in range(-12, 13)
            for b in range(-12, 13)
        )
        groups = []
        for v in values:
            if groups and v - groups[-1][0] <= 1e-12 * v:
                groups[-1][1] += 1
            else:
                groups.append([v, 1])
        for count in (24, 40):
            spec = flat_torus_spectrum(l1, l2, count)
            assert len(spec.entries) == count
            for (v, m), (ev, em) in zip(spec.entries, groups):
                assert v == pytest.approx(ev, rel=1e-12)
                assert m == em

    def test_axis_swap(self):
        a = flat_torus_spectrum(1.0, 2.5, 9)
        b = flat_torus_spectrum(2.5, 1.0, 9)
        for (va, ma), (vb, mb) in zip(a.entries, b.entries):
            assert va == pytest.approx(vb)
            assert ma == mb


class TestTruncateAndIterate:
    def test_extend_regenerates(self):
        spec = circle_spectrum(TWO_PI, 2)
        bigger = extend(spec, 6)
        assert len(bigger.entries) == 6
        assert bigger.entries[:2] == spec.entries

    def test_extend_explicit_fails(self):
        with pytest.raises(CompletenessError):
            extend(explicit_spectrum([(0.0, 1), (2.0, 3)]), 5)

    def test_extend_returns_complete_unchanged(self):
        spec = explicit_spectrum([(0.0, 1), (2.0, 3)], complete=True)
        assert extend(spec, 5) is spec
        point = point_spectrum()
        assert point.complete
        assert extend(point, 2) is point

    def test_iter_circle_unbounded(self):
        it = iter_entries(circle_spectrum(TWO_PI, 2))
        got = [next(it) for _ in range(7)]
        assert [v for v, _ in got] == [0.0, 1.0, 4.0, 9.0, 16.0, 25.0, 36.0]

    def test_iter_point_completes(self):
        assert list(iter_entries(point_spectrum())) == [(0.0, 1)]

    def test_iter_complete_explicit_ends(self):
        entries = [(0.0, 1), (3.0, 2), (5.0, 1)]
        assert list(iter_entries(explicit_spectrum(entries, complete=True))) == entries

    def test_iter_explicit_raises_on_exhaustion(self):
        it = iter_entries(explicit_spectrum([(0.0, 1), (3.0, 2)]))
        assert next(it) == (0.0, 1)
        assert next(it) == (3.0, 2)
        with pytest.raises(CompletenessError):
            next(it)

    def test_cached_entries_replay_one_stream(self):
        cache = cached(circle_spectrum(TWO_PI, 2))
        first = cache.take(0, 5)
        again = cache.take(2, 3)
        assert len(first) == 5
        assert again == first[2:]
        assert cache.take(0, 9) == list(circle_spectrum(TWO_PI, 9).entries)

    def test_cached_entries_read_the_torus_stream_once(self, monkeypatch):
        cache = cached(flat_torus_spectrum(1.0, 7.3, 4))
        calls = []

        def spy(name):
            original = getattr(spectra, name)

            def wrapped(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(spectra, name, wrapped)

        spy("flat_torus_spectrum")
        spy("extend")
        heads = [cache.take(0, n) for n in (1, 3, 8, 64, 200)]
        assert calls == []  # no head is regenerated to reach a longer one
        expected = brute_force_torus(1.0, 7.3, 200)
        assert [m for _, m in heads[-1]] == [m for _, m in expected]
        assert [v for v, _ in heads[-1]] == pytest.approx([v for v, _ in expected], abs=1e-8)
        for shorter, longer in zip(heads, heads[1:]):
            assert longer[: len(shorter)] == shorter
        assert tuple(heads[2]) == flat_torus_spectrum(1.0, 7.3, 8).entries

    def test_cached_entries_report_the_end(self):
        # a short block marks the end; completeness says what the end means
        point = cached(point_spectrum())
        assert point.take(0, 4) == [(0.0, 1)] and point.complete
        cache = cached(explicit_spectrum([(0.0, 1), (3.0, 2)]))
        assert cache.take(0, 2) == [(0.0, 1), (3.0, 2)]
        assert cache.take(1, 2) == [(3.0, 2)] and not cache.complete
        assert cache.take(2, 2) == []


class TestExplicit:
    def test_first_entry_must_be_zero(self):
        with pytest.raises(DomainError):
            explicit_spectrum([(1.0, 1)])

    def test_strictly_increasing_required(self):
        with pytest.raises(DomainError):
            explicit_spectrum([(0.0, 1), (2.0, 1), (2.0, 1)])

    def test_positive_multiplicity_required(self):
        with pytest.raises(DomainError):
            explicit_spectrum([(0.0, 1), (1.0, 0)])

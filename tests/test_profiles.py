"""Plateau profiles: exact plateau values, smooth monotone transitions, powers, arrays."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steklovwarp import (
    BaseGeometry,
    DomainError,
    HypothesisViolationError,
    UnsupportedModeError,
    WarpedMetricSpec,
    WarpProfile,
    circle_spectrum,
    graded_mesh,
    point_spectrum,
    volume_element_ratio,
)
from steklovwarp.profiles import log_value, power_fn

profile_params = st.tuples(
    st.floats(0.01, 0.15),   # epsilon
    st.floats(0.05, 0.95),   # delta
    st.booleans(),
)


def make(eps, delta, symmetric, ell=1.0):
    return WarpProfile(eps, delta, ell, symmetric)


class TestConstruction:
    def test_reference_plateau_values(self):
        h = power_fn(make(0.1, 0.75, False), 1.0)
        assert h(0.0) == 1.0
        assert h(0.15) == pytest.approx(0.1**0.75, rel=1e-12)
        assert h(0.5) == pytest.approx(100.0, rel=1e-12)

    def test_epsilon_hypothesis(self):
        with pytest.raises(HypothesisViolationError):
            WarpProfile(0.2, 0.75, 1.0, False)  # 0.2 >= 1/6
        with pytest.raises(HypothesisViolationError):
            WarpProfile(1.0 / 6.0, 0.75, 1.0, False)

    def test_delta_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                WarpProfile(0.1, bad, 1.0, False)

    def test_eval_outside_domain(self):
        p = make(0.1, 0.75, False)
        with pytest.raises(DomainError):
            p.log_eval(-0.01)
        with pytest.raises(DomainError):
            p.log_eval(1.01)

    @pytest.mark.parametrize("length", [math.nan, math.inf])
    def test_non_finite_collar_length_rejected(self, length):
        with pytest.raises(DomainError, match="collar_length must be positive and finite"):
            WarpProfile(0.05, 2.0 / 3.0, length, True)


class TestPlateaus:
    @given(params=profile_params, x=st.floats(0.0, 1.0))
    @example(params=(0.011690028519680791, 0.5, True), x=1.0)  # 1 - (1 - 3ε) < 3ε
    @settings(max_examples=200, deadline=None)
    def test_plateau_exactness(self, params, x):
        eps, delta, symmetric = params
        p = make(eps, delta, symmetric)
        s = x * eps / 2.0
        assert p.log_eval(s) == 0.0
        mid = eps + x * eps
        assert p.log_eval(mid) == delta * math.log(eps)
        far_hi = (1.0 - 3.0 * eps) if symmetric else 1.0
        far = 3.0 * eps + x * (far_hi - 3.0 * eps)
        assert p.log_eval(far) == -2.0 * math.log(eps)

    @given(params=profile_params)
    @settings(max_examples=100, deadline=None)
    def test_global_lower_bound(self, params):
        eps, delta, symmetric = params
        h = power_fn(make(eps, delta, symmetric), 1.0)
        floor = min(eps**delta, 1.0)
        for i in range(257):
            t = i / 256.0
            assert h(t) >= floor * (1.0 - 1e-13)

    @given(params=profile_params)
    @settings(max_examples=100, deadline=None)
    def test_transitions_monotone_in_log(self, params):
        eps, delta, symmetric = params
        p = make(eps, delta, symmetric)
        for a, b in ((eps / 2.0, eps), (2.0 * eps, 3.0 * eps)):
            logs = [p.log_eval(a + (b - a) * i / 64.0) for i in range(65)]
            diffs = [y - x for x, y in zip(logs, logs[1:])]
            assert all(d <= 1e-12 for d in diffs) or all(d >= -1e-12 for d in diffs)

    def test_symmetric_mirror(self):
        h = power_fn(make(0.05, 0.7, True), 1.0)
        for i in range(101):
            t = i / 100.0
            assert h(t) == pytest.approx(h(1.0 - t), rel=1e-14, abs=0)

    def test_continuity_at_junctions(self):
        h = power_fn(make(0.1, 0.75, False), 1.0)
        for junction in (0.05, 0.1, 0.2, 0.3):
            left = h(junction - 1e-9)
            right = h(junction + 1e-9)
            assert left == pytest.approx(right, rel=1e-6)


class TestPowers:
    def test_power_arithmetic(self):
        p = make(0.1, 0.75, False)
        # 2k/n with n = 3, k = 1 applied on the mid plateau
        assert power_fn(p, 2.0 / 3.0)(0.15) == pytest.approx(0.1**0.5, rel=1e-12)
        assert power_fn(p, 5.0)(0.02) == 1.0
        assert power_fn(p, -2.0)(0.5) == pytest.approx(1e-4, rel=1e-12)

    @given(params=profile_params, t=st.floats(0.0, 1.0), power=st.floats(-4.0, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_power_inverse_identity(self, params, t, power):
        eps, delta, symmetric = params
        p = make(eps, delta, symmetric)
        assert power_fn(p, power)(t) * power_fn(p, -power)(t) == pytest.approx(
            1.0, rel=1e-12
        )


MIRRORED_EPS = 0.011690028519680791  # 1 - (1 - 3ε) < 3ε in floating point


class TestArrayEvaluation:
    """One call on an array gives, bit for bit, the values of one call per point."""

    @given(
        params=profile_params,
        points=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        n_elements=st.integers(16, 64),
        power=st.floats(-4.0, 4.0),
    )
    @example(
        params=(MIRRORED_EPS, 0.5, True),
        points=[1.0 - c * MIRRORED_EPS for c in (3.0, 2.0, 1.0, 0.5)],
        n_elements=400,
        power=2.0 / 3.0,
    )
    @settings(max_examples=50, deadline=None)
    def test_array_matches_pointwise(self, params, points, n_elements, power):
        p = make(*params)
        nodes = graded_mesh(1.0, n_elements, p.transition_intervals())
        t = np.concatenate((points, nodes, 0.5 * (nodes[:-1] + nodes[1:])))
        for fn in (p.log_eval, power_fn(p, 1.0), power_fn(p, power)):
            values = fn(t)
            pointwise = [fn(float(x)) for x in t]
            assert all(isinstance(v, float) for v in pointwise)
            assert values.shape == t.shape
            assert values.tobytes() == np.array(pointwise).tobytes()

    def test_mirrored_plateau_ends_in_an_array(self):
        p = make(MIRRORED_EPS, 0.5, True)
        t = np.array([1.0 - c * MIRRORED_EPS for c in (3.0, 2.0, 1.0, 0.5)])
        log_mid, log_far = 0.5 * math.log(MIRRORED_EPS), -2.0 * math.log(MIRRORED_EPS)
        assert list(p.log_eval(t)) == [log_far, log_mid, log_mid, 0.0]

    @pytest.mark.parametrize("outside", [-1e-12, 1.0 + 1e-12])
    def test_array_outside_collar_rejected(self, outside):
        p = make(0.05, 0.7, True)
        t = np.array([0.0, 0.5, outside, 1.0])
        for fn in (p.log_eval, power_fn(p, 1.0), power_fn(p, 2.0)):
            with pytest.raises(DomainError):
                fn(t)

    def test_constant_callable_is_broadcast(self):
        t = np.linspace(0.0, 1.0, 5)
        assert power_fn(lambda t: 4.0, 0.5)(t).tolist() == [2.0] * 5
        with pytest.raises(DomainError):
            power_fn(lambda t: 0.0, 1.0)(t)

    @pytest.mark.parametrize("warp", [make(0.05, 0.7, True), lambda t: 1.0 + t * (1.0 - t)],
                             ids=["profile", "bump"])
    def test_powers_are_rows_of_one_sample(self, warp):
        t = np.linspace(0.0, 1.0, 33)
        powers = (2.0 / 3.0, -2.0, 1.0 / 3.0)
        rows = power_fn(warp, powers)(t)
        assert rows.shape == (3, 33)
        for row, p in zip(rows, powers):
            assert row.tobytes() == power_fn(warp, p)(t).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("spike, p", [(1e200, 2.0), (1e200, (-2.0, 2.0)), (1e-200, -2.0)])
    def test_overflowing_power_refused(self, spike, p):
        # h^p at the spike is past the largest float; exp warned on it before
        t = np.linspace(0.0, 1.0, 9)
        fn = power_fn(lambda t: np.where(t == 0.5, spike, 1.0), p)
        with pytest.raises(DomainError, match="overflows a float"):
            fn(t)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_power_answered(self):
        t = np.linspace(0.0, 1.0, 9)
        values = power_fn(lambda t: np.where(t == 0.5, 1e200, 1.0), -2.0)(t)
        assert values.tolist() == [1.0] * 4 + [0.0] + [1.0] * 4

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_callable_sample_not_positive_and_finite_rejected(self, bad):
        t = np.linspace(0.0, 1.0, 9)
        with pytest.raises(DomainError, match=f"positive and finite, got {bad}"):
            log_value(lambda t: np.where(t > 0.5, bad, 1.0), t)
        with pytest.raises(DomainError, match="positive and finite"):
            log_value(lambda t: bad, 0.5)


def reference_log_eval(p, t):
    """ln h at t by np.select over the piece conditions: the reference for the index search.

    The distance s to the boundary picks the piece: s <= ε/2, s < ε, s <= 2ε,
    s < 3ε, else the far plateau. A symmetric profile also tests t against
    L - c·ε directly, and np.select takes the first piece whose test holds.
    """
    t = np.asarray(t, dtype=float)
    eps, ell = p.epsilon, p.collar_length
    log_mid, log_far = p.delta * math.log(eps), -2.0 * math.log(eps)
    ends = [(c * eps, below) for c, below in (
        (0.5, np.less_equal), (1.0, np.less), (2.0, np.less_equal), (3.0, np.less)
    )]
    pieces = [below(t, end) for end, below in ends]
    if p.symmetric:
        pieces = [left | below(ell - end, t) for left, (end, below) in zip(pieces, ends)]
    s = np.minimum(t, ell - t) if p.symmetric else t

    def ramp(x):
        x = np.clip(x, 0.0, 1.0)
        return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))

    first = log_mid * ramp((s - eps / 2.0) / (eps / 2.0))
    second = log_mid + (log_far - log_mid) * ramp((s - 2.0 * eps) / eps)
    return np.select(pieces, [0.0, first, log_mid, second], log_far)[()]


def piece_end_points(p):
    """Every piece end c·ε and L - c·ε, its float neighbours, and the collar ends."""
    eps, ell = p.epsilon, p.collar_length
    ends = [c * eps for c in (0.5, 1.0, 2.0, 3.0)] + [ell - c * eps for c in (0.5, 1.0, 2.0, 3.0)]
    points = [0.0, ell]
    for end in ends:
        points += [np.nextafter(end, -np.inf), end, np.nextafter(end, np.inf)]
    return np.clip(points, 0.0, ell)


# one-sided and symmetric, the mirrored-end case, and one where ε is near an ulp of L,
# so that the right-hand ends L - c·ε round together
REFERENCE_PROFILES = [
    (eps, delta, symmetric)
    for eps, delta in ((0.05, 2.0 / 3.0), (MIRRORED_EPS, 0.5), (1e-3, 0.8), (1e-17, 0.6))
    for symmetric in (False, True)
]


class TestAgainstSelectReference:
    """log_eval and its exp equal the np.select formulation bit for bit, arrays and scalars."""

    @staticmethod
    def _assert_same(p, t):
        log_h = reference_log_eval(p, t)
        assert np.asarray(p.log_eval(t)).tobytes() == np.asarray(log_h).tobytes()
        assert np.asarray(power_fn(p, 1.0)(t)).tobytes() == np.asarray(np.exp(log_h)).tobytes()

    @pytest.mark.parametrize("params", REFERENCE_PROFILES)
    def test_piece_ends_and_neighbours(self, params):
        p = make(*params)
        points = piece_end_points(p)
        self._assert_same(p, points)
        self._assert_same(p, points[::-1].reshape(-1, 2))
        for x in points:
            for t in (float(x), np.float64(x), np.array(x)):
                value = p.log_eval(t)
                assert isinstance(value, float) and np.ndim(value) == 0
                self._assert_same(p, t)

    @given(
        params=st.sampled_from(REFERENCE_PROFILES) | profile_params,
        unit=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_drawn_points(self, params, unit):
        p = make(*params)
        self._assert_same(p, np.array(unit) * p.collar_length)
        self._assert_same(p, unit[0] * p.collar_length)

    def test_empty_input(self):
        p = make(0.05, 0.7, True)
        assert p.log_eval(np.zeros(0)).shape == (0,)
        assert power_fn(p, 1.0)(np.zeros(0)).shape == (0,)

    def test_nan_rejected(self):
        p = make(0.05, 0.7, True)
        with pytest.raises(DomainError):
            p.log_eval(np.array([0.5, math.nan]))


class TestVolumeElement:
    def _spec(self, mode):
        return WarpedMetricSpec(
            base_dim=2,
            fiber_dim=1,
            warp=make(0.1, 0.75, True),
            base=BaseGeometry(circle_spectrum(2 * math.pi, 4), 1.0, "both"),
            fiber=circle_spectrum(2 * math.pi, 4),
            mode=mode,
        )

    def test_ratio_is_one(self):
        spec = self._spec("volume_preserving")
        for i in range(101):
            assert volume_element_ratio(spec, i / 100.0) == pytest.approx(1.0, abs=1e-12)

    def test_near_plateau_exact(self):
        spec = self._spec("volume_preserving")
        assert volume_element_ratio(spec, 0.01) == 1.0

    def test_plain_warp_rejected(self):
        with pytest.raises(UnsupportedModeError):
            volume_element_ratio(self._spec("plain_warp"), 0.5)


class TestMetricSpec:
    def test_dimension_validation(self):
        with pytest.raises(DomainError):
            WarpedMetricSpec(0, 1, lambda t: 1.0,
                             BaseGeometry(point_spectrum(), 1.0, "both"),
                             circle_spectrum(2 * math.pi, 4), "plain_warp")

    def test_mode_validation(self):
        with pytest.raises(DomainError):
            WarpedMetricSpec(1, 1, lambda t: 1.0,
                             BaseGeometry(point_spectrum(), 1.0, "both"),
                             circle_spectrum(2 * math.pi, 4), "conformal")

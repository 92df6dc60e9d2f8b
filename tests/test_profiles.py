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
from steklovwarp.profiles import power_fn

profile_params = st.tuples(
    st.floats(0.01, 0.15),   # epsilon
    st.floats(0.05, 0.95),   # delta
    st.booleans(),
)


def make(eps, delta, symmetric, ell=1.0):
    return WarpProfile(eps, delta, ell, symmetric)


class TestConstruction:
    def test_reference_plateau_values(self):
        p = make(0.1, 0.75, False)
        assert p.eval(0.0) == 1.0
        assert p.eval(0.15) == pytest.approx(0.1**0.75, rel=1e-12)
        assert p.eval(0.5) == pytest.approx(100.0, rel=1e-12)

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
            p.eval(-0.01)
        with pytest.raises(DomainError):
            p.eval(1.01)


class TestPlateaus:
    @given(params=profile_params, x=st.floats(0.0, 1.0))
    @example(params=(0.011690028519680791, 0.5, True), x=1.0)  # 1 - (1 - 3ε) < 3ε
    @settings(max_examples=200, deadline=None)
    def test_plateau_exactness(self, params, x):
        eps, delta, symmetric = params
        p = make(eps, delta, symmetric)
        s = x * eps / 2.0
        assert p.eval(s) == 1.0
        mid = eps + x * eps
        assert p.eval(mid) == p.mid_value
        far_hi = (1.0 - 3.0 * eps) if symmetric else 1.0
        far = 3.0 * eps + x * (far_hi - 3.0 * eps)
        assert p.eval(far) == p.far_value

    @given(params=profile_params)
    @settings(max_examples=100, deadline=None)
    def test_global_lower_bound(self, params):
        eps, delta, symmetric = params
        p = make(eps, delta, symmetric)
        floor = min(p.mid_value, 1.0)
        for i in range(257):
            t = i / 256.0
            assert p.eval(t) >= floor * (1.0 - 1e-13)

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
        p = make(0.05, 0.7, True)
        for i in range(101):
            t = i / 100.0
            assert p.eval(t) == pytest.approx(p.eval(1.0 - t), rel=1e-14, abs=0)

    def test_continuity_at_junctions(self):
        p = make(0.1, 0.75, False)
        for junction in (0.05, 0.1, 0.2, 0.3):
            left = p.eval(junction - 1e-9)
            right = p.eval(junction + 1e-9)
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
        for fn in (p.eval, p.log_eval, power_fn(p, power)):
            values = fn(t)
            pointwise = [fn(float(x)) for x in t]
            assert all(isinstance(v, float) for v in pointwise)
            assert values.shape == t.shape
            assert values.tobytes() == np.array(pointwise).tobytes()

    def test_mirrored_plateau_ends_in_an_array(self):
        p = make(MIRRORED_EPS, 0.5, True)
        t = np.array([1.0 - c * MIRRORED_EPS for c in (3.0, 2.0, 1.0, 0.5)])
        assert list(p.eval(t)) == [p.far_value, p.mid_value, p.mid_value, 1.0]

    @pytest.mark.parametrize("outside", [-1e-12, 1.0 + 1e-12])
    def test_array_outside_collar_rejected(self, outside):
        p = make(0.05, 0.7, True)
        t = np.array([0.0, 0.5, outside, 1.0])
        for fn in (p.eval, p.log_eval, power_fn(p, 2.0)):
            with pytest.raises(DomainError):
                fn(t)

    def test_constant_callable_is_broadcast(self):
        t = np.linspace(0.0, 1.0, 5)
        assert power_fn(lambda t: 4.0, 0.5)(t).tolist() == [2.0] * 5
        with pytest.raises(DomainError):
            power_fn(lambda t: 0.0, 1.0)(t)


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

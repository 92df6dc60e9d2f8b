"""Warped-product spectrum assembly: closed forms, truncation, gap construction."""

import dataclasses
import math

import numpy as np
import pytest

from steklovwarp import (
    BaseGeometry,
    CompletenessError,
    DomainError,
    EigenSource,
    HypothesisViolationError,
    WarpedMetricSpec,
    WarpProfile,
    base_dtn_spectrum,
    circle_spectrum,
    dtn_eigenvalues,
    explicit_spectrum,
    first_eigenvalues,
    flat_torus_spectrum,
    graded_mesh,
    lower_bound_C,
    metric_recipes,
    point_spectrum,
    sigma1_construction,
    steklov_spectrum_warped,
)
from steklovwarp import sturm
from steklovwarp.profiles import power_fn
from steklovwarp.provenance import merge_tagged
from steklovwarp.spectra import extend, iter_entries

TWO_PI = 2.0 * math.pi
TANH1 = math.tanh(1.0)
COTH1 = 1.0 / math.tanh(1.0)
TANH2X2 = 2.0 * math.tanh(2.0)


def cylinder_spec(length=2.0, fiber_length=TWO_PI, steklov_ends="both", warp=None,
                  mode="plain_warp"):
    return WarpedMetricSpec(
        base_dim=1,
        fiber_dim=1,
        warp=warp if warp is not None else (lambda t: 1.0),
        base=BaseGeometry(point_spectrum(), length, steklov_ends),
        fiber=circle_spectrum(fiber_length, 8),
        mode=mode,
    )


def sweep_spec(eps, n=2, k=1, delta=2.0 / 3.0):
    """Volume-preserving metric with unit circle fiber and cross-section (lambda1 = mu1 = 1).

    The defaults are the (n, k) = (2, 1), delta = 2/3 sweep metric. The 1D
    problems see the cross-section only through its spectrum, so the circle
    stands in for the (n - 1)-dimensional cross-section of any n.
    """
    circle = circle_spectrum(TWO_PI, 4)
    return WarpedMetricSpec(
        base_dim=n,
        fiber_dim=k,
        warp=WarpProfile(eps, delta, 1.0, symmetric=True),
        base=BaseGeometry(circle, 1.0, "both"),
        fiber=circle,
        mode="volume_preserving",
    )


class TestSteklovSpectrumWarped:
    def test_flat_cylinder_reference(self):
        spectrum = steklov_spectrum_warped(cylinder_spec(), top=2.0, n_elements=300)
        values = [e.value for e in spectrum.entries]
        mults = [e.multiplicity for e in spectrum.entries]
        assert values == pytest.approx([0.0, TANH1, 1.0, COTH1, TANH2X2], abs=2e-4)
        assert mults == [1, 2, 1, 2, 2]

    def test_tiny_top_leaves_zero_only(self):
        spectrum = steklov_spectrum_warped(cylinder_spec(), top=1e-5, n_elements=300)
        assert len(spectrum.entries) == 1
        assert spectrum.entries[0].value == pytest.approx(0.0, abs=1e-8)
        assert spectrum.entries[0].multiplicity == 1

    def test_fiber_truncation_by_monotonicity(self):
        # fiber circle(pi) has lambda_1 = 4, whose branch starts at 2 tanh 2 > 1.5
        spectrum = steklov_spectrum_warped(
            cylinder_spec(fiber_length=math.pi), top=1.5, n_elements=300
        )
        values = [e.value for e in spectrum.entries]
        assert values == pytest.approx([0.0, 1.0], abs=1e-6)

    def test_zero_appears_exactly_once(self):
        spectrum = steklov_spectrum_warped(cylinder_spec(), top=3.0, n_elements=200)
        zeros = [e for e in spectrum.entries if abs(e.value) <= 1e-8]
        assert len(zeros) == 1
        assert zeros[0].multiplicity == 1

    def test_known_zero_is_exact_at_small_epsilon(self):
        spec = sweep_spec(1e-3)
        spectrum = steklov_spectrum_warped(spec, top=5.0, n_elements=1600)
        zero = spectrum.entries[0]
        assert zero.value == 0.0
        assert [(s.fiber_value, s.cross_value, s.branch) for s in zero.sources] == [(0.0, 0.0, 0)]
        recipes = metric_recipes(spec)
        branch = base_dtn_spectrum(
            spec.base, recipes.grad_weight, 0.0, recipes.inv_sq_weight, top=5.0,
            n_elements=1600, boundary_weights=recipes.boundary_weights,
            transition_spans=recipes.spans,
        )
        assert branch.entries[0].value == 0.0

    def test_provenance_multiplicity_identity(self):
        spectrum = steklov_spectrum_warped(cylinder_spec(), top=3.0, n_elements=200)
        for entry in spectrum.entries:
            assert entry.multiplicity == sum(
                s.fiber_mult * s.cross_mult for s in entry.sources
            )

    def test_fiber_rescaling_monotone(self):
        # shrinking the fiber scales its eigenvalues up; no assembled branch drops
        base_vals, _ = first_eigenvalues(cylinder_spec(), 8, n_elements=250)
        shrunk_vals, _ = first_eigenvalues(
            cylinder_spec(fiber_length=TWO_PI / 1.5), 8, n_elements=250
        )
        assert np.all(shrunk_vals >= base_vals - 1e-9)

    @staticmethod
    def _collar_branch(warp, fiber_dim, lam, n_elements):
        """Auxiliary plain-warp spectrum on a unit collar with Steklov at both ends."""
        spec = WarpedMetricSpec(
            base_dim=1,
            fiber_dim=fiber_dim,
            warp=warp,
            base=BaseGeometry(point_spectrum(), 1.0, "both"),
            fiber=circle_spectrum(TWO_PI, 8),
            mode="plain_warp",
        )
        recipes = metric_recipes(spec)
        return base_dtn_spectrum(
            spec.base, recipes.grad_weight, lam, recipes.inv_sq_weight,
            top=1e3, n_elements=n_elements,
            boundary_weights=recipes.boundary_weights,
        ).flatten()

    def test_plain_warp_fiber_term_domination(self):
        # The auxiliary eigenvalues are the min-max values of
        #   R(a) = int(h^k a'^2 + lam h^(k-2) a^2) / (h(0)^k a(0)^2 + h(L)^k a(L)^2).
        # With k >= 2 the fiber term h^(k-2) grows with h, so a warp that is
        # pointwise larger and equal to the smaller one at both Steklov ends
        # raises the energy and leaves the boundary mass unchanged: every
        # eigenvalue is nondecreasing. Unequal end values change the
        # denominator and can lower sigma (see the constant-warp closed form).
        def small(t):
            return 1.0 + 0.2 * np.sin(np.pi * t)

        def large(t):
            return 1.0 + 0.3 * np.sin(np.pi * t)

        for fiber_dim in (2, 3):
            for lam in (1.0, 4.0):
                lo = self._collar_branch(small, fiber_dim, lam, 200)
                hi = self._collar_branch(large, fiber_dim, lam, 200)
                assert len(lo) == len(hi) == 2
                assert np.all(hi >= lo - 1e-9)

    @pytest.mark.parametrize("fiber_dim", [2, 3])
    @pytest.mark.parametrize("lam", [1.0, 4.0])
    @pytest.mark.parametrize("c", [1.0, 1.2, 1.5])
    def test_constant_warp_closed_form(self, c, lam, fiber_dim):
        # h = c: c^k a'' = lam c^(k-2) a, so a'' = r^2 a with r = sqrt(lam)/c,
        # and sigma = r tanh(r/2), r coth(r/2) on a unit collar. Both fall as
        # c grows, so a larger warp with larger end values can lower sigma.
        r = math.sqrt(lam) / c
        values = self._collar_branch(lambda t: c, fiber_dim, lam, 400)
        expected = [r * math.tanh(r / 2.0), r / math.tanh(r / 2.0)]
        np.testing.assert_allclose(values, expected, rtol=1e-5, atol=0.0)

    def test_bad_top(self):
        with pytest.raises(DomainError):
            steklov_spectrum_warped(cylinder_spec(), top=0.0)

    def test_nan_top_rejected(self):
        # no eigenvalue exceeds a NaN top, so the fiber walk would not stop
        with pytest.raises(DomainError):
            steklov_spectrum_warped(cylinder_spec(), top=math.nan)

    def test_infinite_top_rejected_on_a_generated_stream(self):
        # no branch starts above inf, so a circle fiber or cross-section
        # would be walked forever
        with pytest.raises(DomainError, match="top = inf"):
            steklov_spectrum_warped(cylinder_spec(), top=math.inf)
        spec = dataclasses.replace(
            cylinder_spec(),
            fiber=point_spectrum(),
            base=BaseGeometry(circle_spectrum(TWO_PI, 8), 2.0, "both"),
        )
        with pytest.raises(DomainError, match="top = inf"):
            steklov_spectrum_warped(spec, top=math.inf)


class TestFirstEigenvalues:
    def test_doubles_until_enough(self):
        values, _ = first_eigenvalues(cylinder_spec(), 9, n_elements=300)
        expected = sorted(
            [0.0, 1.0, TANH1, TANH1, COTH1, COTH1, TANH2X2, TANH2X2,
             2.0 / math.tanh(2.0)]
        )
        assert values == pytest.approx(expected, abs=3e-4)


def collar_of(spec, n_elements):
    recipes = metric_recipes(spec)
    return sturm.collar_problem(
        spec.base, recipes.grad_weight, recipes.inv_sq_weight, n_elements=n_elements,
        boundary_weights=recipes.boundary_weights, transition_spans=recipes.spans,
    )


def per_pair_walk(spec, top, n_elements):
    """Reference walk: one dtn_eigenvalues call per (lambda, mu) pair, under the same stop rules.

    A fiber's modes are read until the first whose smallest eigenvalue
    exceeds top, and fibers until the first whose mode 0 does; a stream that
    runs out early ends the walk if it is complete, and raises
    CompletenessError from iter_entries if not. Returns the merged spectrum,
    the number of fiber branches below top and the last mode position read
    below top.
    """
    problem = collar_of(spec, n_elements)
    tagged, branches, last_mode = [], 0, 0
    for fiber_value, fiber_mult in iter_entries(spec.fiber):
        branch = []
        for j, (cross_value, cross_mult) in enumerate(iter_entries(spec.base.cross_section)):
            row = dtn_eigenvalues(problem, fiber_value, cross_value)
            if row[0] > top:
                break
            last_mode = max(last_mode, j)
            branch += [
                (float(value), EigenSource(fiber_value, fiber_mult, cross_value, cross_mult, b))
                for b, value in enumerate(row)
                if value <= top
            ]
        if not branch:
            break
        tagged += branch
        branches += 1
    return merge_tagged(tagged), branches, last_mode


class TestBlockedWalk:
    """Fibers and modes are walked in blocks, on one row cache per call.

    steklov_spectrum_warped and first_eigenvalues must equal the per-pair
    reference walk bit for bit, with every source. The cross-sections are
    dense enough that top = 10 and 16 read past mode 24, into the fourth
    sub-block of 8 modes; top = 1.5 stops inside the first block of 8
    fibers and top = 16 needs the second. On them one more top, one ulp
    below the smallest eigenvalue of fiber 5 at mode 24, ends that fiber's
    walk exactly at the start of a step (mode 24) while fiber 8, in the
    second fiber block, still starts below top.
    """

    TOPS = (1.5, 10.0, 16.0)
    N_ELEMENTS = 200

    @staticmethod
    def _spec(steklov_ends, cross):
        n, cross_section = {
            "point": (1, point_spectrum()),
            "circle": (2, circle_spectrum(2.0 * TWO_PI, 8)),
            "torus": (3, flat_torus_spectrum(2.0, 2.6, 8)),
        }[cross]
        return WarpedMetricSpec(
            base_dim=n,
            fiber_dim=1,
            warp=WarpProfile(0.05, 0.75, 1.0, True),
            base=BaseGeometry(cross_section, 1.0, steklov_ends),
            fiber=circle_spectrum(TWO_PI, 8),
            mode="volume_preserving",
        )

    @pytest.mark.parametrize("cross", ["point", "circle", "torus"])
    @pytest.mark.parametrize("steklov_ends", ["both", "left", "right"])
    def test_spectrum_equals_per_pair_walk(self, steklov_ends, cross):
        spec = self._spec(steklov_ends, cross)
        tops = list(self.TOPS)
        if cross != "point":
            fiber_5 = extend(spec.fiber, 6).entries[5][0]
            mode_24 = extend(spec.base.cross_section, 25).entries[24][0]
            edge = dtn_eigenvalues(collar_of(spec, self.N_ELEMENTS), fiber_5, mode_24)[0]
            tops.append(float(np.nextafter(edge, 0.0)))
        walks = {}
        for top in tops:
            expected, branches, last_mode = per_pair_walk(spec, top, self.N_ELEMENTS)
            got = steklov_spectrum_warped(spec, top, n_elements=self.N_ELEMENTS)
            assert got.entries == expected.entries, top
            walks[top] = branches, last_mode
        assert walks[1.5][0] < 8 <= walks[16.0][0]
        if cross != "point":
            assert walks[16.0][1] >= 24
            assert walks[tops[-1]][0] > 8

    @pytest.mark.parametrize("cross", ["point", "circle", "torus"])
    @pytest.mark.parametrize("steklov_ends", ["both", "left", "right"])
    def test_first_eigenvalues_equal_per_pair_walk(self, steklov_ends, cross):
        spec = self._spec(steklov_ends, cross)
        count, top = 40, 1.0
        expected = per_pair_walk(spec, top, self.N_ELEMENTS)[0]
        while expected.total_multiplicity <= count:
            top *= 2.0
            expected = per_pair_walk(spec, top, self.N_ELEMENTS)[0]
        assert top >= 4.0  # the walk ran at two or more cutoffs
        values, spectrum = first_eigenvalues(spec, count, n_elements=self.N_ELEMENTS)
        assert spectrum.entries == expected.entries
        assert np.array_equal(values, expected.flatten()[:count])


class TestRowReuse:
    """Each (lambda, mu) pair is reduced once per call, in calls of at most 64 rows."""

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        original = sturm.dtn_eigenvalues

        def spy(p, fiber_value=1.0, mu=0.0):
            lam, mu_b = np.broadcast_arrays(np.asarray(fiber_value, float), np.asarray(mu, float))
            calls.append(list(zip(lam.ravel().tolist(), mu_b.ravel().tolist())))
            return original(p, fiber_value, mu)

        monkeypatch.setattr(sturm, "dtn_eigenvalues", spy)
        return calls

    @staticmethod
    def _assert_each_pair_once(calls):
        pairs = [pair for call in calls for pair in call]
        assert len(pairs) == len(set(pairs))
        assert max(len(call) for call in calls) <= 64

    def test_point_cross_section_across_doublings(self, monkeypatch):
        # the shape of the quasi-isometry criterion: interval base, circle fiber
        spec = WarpedMetricSpec(
            base_dim=1,
            fiber_dim=1,
            warp=WarpProfile(0.1, 0.7, 1.0, symmetric=True),
            base=BaseGeometry(point_spectrum(), 1.0, "both"),
            fiber=circle_spectrum(TWO_PI, 8),
            mode="volume_preserving",
        )
        calls = self._spy(monkeypatch)
        _, spectrum = first_eigenvalues(spec, 40, n_elements=300)
        self._assert_each_pair_once(calls)
        # fiber 9 (lambda = 81) is reached, past the first block of 8 fibers
        assert max(s.fiber_value for e in spectrum.entries for s in e.sources) > 64.0

    def test_circle_cross_section_at_top_30(self, monkeypatch):
        # the spectrum benchmark's metric; first_eigenvalues doubles its
        # cutoff to 32 to certify every eigenvalue below 30
        spec = sweep_spec(0.05)
        count = steklov_spectrum_warped(spec, 30.0).total_multiplicity
        calls = self._spy(monkeypatch)
        steklov_spectrum_warped(spec, 30.0)
        self._assert_each_pair_once(calls)
        calls.clear()
        _, spectrum = first_eigenvalues(spec, count)
        self._assert_each_pair_once(calls)
        assert spectrum.total_multiplicity > count

    def test_spectrum_walk_reads_modes_in_sub_blocks(self, monkeypatch):
        # on the spectrum benchmark's metric at top 30, steps of 8-aligned
        # sub-blocks capped by the live fibers reduce 928 rows; blocks of
        # modes doubling from 8 to 64 whatever the live fibers reduced 1 296
        spec, top = sweep_spec(0.05), 30.0
        calls = self._spy(monkeypatch)
        steklov_spectrum_warped(spec, top)
        self._assert_each_pair_once(calls)
        pairs = [pair for call in calls for pair in call]
        assert len(pairs) <= 1100
        problem = collar_of(spec, 400)
        modes = [value for value, _ in extend(spec.base.cross_section, 200).entries]
        position = {mu: j for j, mu in enumerate(modes)}
        read = {}
        for lam, mu in pairs:
            read.setdefault(lam, []).append(position[mu])
        for lam, positions in read.items():
            stop = next(j for j, mu in enumerate(modes) if dtn_eigenvalues(problem, lam, mu)[0] > top)
            assert max(positions) - stop < 64, lam


class TestIncompleteFiber:
    """An incomplete explicit fiber list that ends before a branch starts above top raises."""

    @pytest.mark.parametrize("length", [2, 8], ids=["short-block", "full-block"])
    def test_stream_ending_first_raises(self, length):
        fiber = explicit_spectrum([(float(j * j), 2 if j else 1) for j in range(length)])
        spec = dataclasses.replace(cylinder_spec(), fiber=fiber)
        with pytest.raises(CompletenessError):
            steklov_spectrum_warped(spec, top=100.0, n_elements=200)
        with pytest.raises(CompletenessError):
            first_eigenvalues(spec, 200, n_elements=200)

    def test_stream_ending_after_the_stop_is_complete(self):
        # the lambda = 400 branch starts near 20 > top, so the list suffices
        fiber = explicit_spectrum([(0.0, 1), (1.0, 2), (400.0, 2)])
        spec = dataclasses.replace(cylinder_spec(), fiber=fiber)
        spectrum = steklov_spectrum_warped(spec, top=5.0, n_elements=200)
        assert {s.fiber_value for e in spectrum.entries for s in e.sources} == {0.0, 1.0}
        values, _ = first_eigenvalues(spec, 4, n_elements=200)
        assert len(values) == 4


class TestSigma1Construction:
    def _mixed_spec(self, warp=None):
        # collar over a circle cross-section, Steklov at t=0, Neumann at t=1
        return WarpedMetricSpec(
            base_dim=2,
            fiber_dim=1,
            warp=warp if warp is not None else (lambda t: 1.0),
            base=BaseGeometry(circle_spectrum(TWO_PI, 8), 1.0, "left"),
            fiber=circle_spectrum(TWO_PI, 8),
            mode="volume_preserving",
        )

    def test_unwarped_mixed_closed_form(self):
        # both branches reduce to q = 1: sigma = tanh(1) on the unit collar
        result = sigma1_construction(self._mixed_spec(), n_elements=300)
        assert result.value == pytest.approx(TANH1, abs=1e-4)
        assert result.branch_lambda0 == pytest.approx(TANH1, abs=1e-4)
        assert result.branch_lambda1 == pytest.approx(TANH1, abs=1e-4)

    def test_profile_run_deterministic(self):
        profile = WarpProfile(0.1, 0.75, 1.0, True)
        spec = self._mixed_spec(warp=profile)
        a = sigma1_construction(spec, n_elements=400)
        b = sigma1_construction(spec, n_elements=400)
        assert a.value > 0.0
        assert a.value == b.value
        assert a.active_branch == b.active_branch

    def test_plain_warp_rejected(self):
        with pytest.raises(DomainError):
            sigma1_construction(cylinder_spec(mode="plain_warp"))

    def test_fiber_without_lambda1_rejected(self):
        spec = dataclasses.replace(self._mixed_spec(), fiber=point_spectrum())
        with pytest.raises(DomainError):
            sigma1_construction(spec, n_elements=300)

    def test_value_is_min_of_branches(self):
        result = sigma1_construction(self._mixed_spec(), n_elements=300)
        assert result.value == min(result.branch_lambda0, result.branch_lambda1)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["plateau", "ramp"])
    @pytest.mark.parametrize("cross", ["point", "circle", "torus"])
    @pytest.mark.parametrize("steklov_ends", ["both", "left", "right"])
    def test_equals_first_nonzero_eigenvalue_of_the_spectrum(self, steklov_ends, cross, symmetric):
        # sigma1_construction reduces three (lambda, mu) pairs; the spectrum
        # walks every pair below its top, and must find the same value
        # behind the exact zero
        n, cross_section = {
            "point": (1, point_spectrum()),
            "circle": (2, circle_spectrum(TWO_PI, 8)),
            "torus": (3, flat_torus_spectrum(1.0, 1.3, 8)),
        }[cross]
        for eps in (5e-2, 1e-2, 1e-3):
            spec = WarpedMetricSpec(
                base_dim=n,
                fiber_dim=1,
                warp=WarpProfile(eps, 0.75, 1.0, symmetric),
                base=BaseGeometry(cross_section, 1.0, steklov_ends),
                fiber=circle_spectrum(TWO_PI, 8),
                mode="volume_preserving",
            )
            sigma1 = sigma1_construction(spec).value
            entries = steklov_spectrum_warped(spec, 1.5 * sigma1).entries
            assert entries[0].value == 0.0
            assert entries[1].value == sigma1, eps


class TestSmallEpsilonGate:
    """sigma1 of the (n, k) = (2, 1) sweep metric in the paper's regime eps -> 0.

    It must lie above the paper's divergent constant lower_bound_C and below
    the nonzero eigenvalue G (1/b0 + 1/b1) of mode (0, 0), which is a
    candidate of branch (a); G = 1 / sum(dt / w_mid) on the mesh, w = h and
    b = h^(1/2) = 1 at the ends. The upper bound is hit exactly when that
    mode is the minimizer, so it allows the roundoff of the reduction.
    """

    EPSILONS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)

    @staticmethod
    def _mode00_value(spec, n_elements):
        warp = spec.warp
        nodes = graded_mesh(1.0, n_elements, warp.transition_intervals())
        mid = 0.5 * (nodes[:-1] + nodes[1:])
        w_mid = power_fn(warp, 1.0)(mid)
        conductance = 1.0 / np.sum(np.diff(nodes) / w_mid)
        b0, b1 = power_fn(warp, 0.5)(np.array([0.0, 1.0]))
        return conductance * (1.0 / b0 + 1.0 / b1)

    @pytest.mark.parametrize("n_elements", [400, 1600, 6400])
    def test_gap_bounded_and_rising(self, n_elements):
        sigmas = []
        for eps in self.EPSILONS:
            spec = sweep_spec(eps)
            sigma1 = sigma1_construction(spec, n_elements=n_elements).value
            low = lower_bound_C(eps, 2.0 / 3.0, 2, 1, 1.0)
            high = self._mode00_value(spec, n_elements) * (1.0 + 1e-12)
            assert low <= sigma1 <= high, (eps, sigma1, low, high)
            sigmas.append(sigma1)
        assert all(b > a for a, b in zip(sigmas, sigmas[1:])), sigmas


class TestLowerBoundC:
    def test_reference_value(self):
        got = lower_bound_C(0.01, 0.75, 2, 1, 1.0)
        assert got == pytest.approx(min(0.01**-0.25 / 8.0, 0.01**-0.5 / 4.0))
        assert got == pytest.approx(0.39528, abs=1e-5)

    def test_epsilon_one_collapses(self):
        assert lower_bound_C(1.0, 0.75, 2, 1, 1.0) == pytest.approx(0.125)

    def test_delta_at_k_over_n_rejected(self):
        with pytest.raises(HypothesisViolationError):
            lower_bound_C(0.1, 0.5, 2, 1, 1.0)

    def test_dimension_hypothesis(self):
        with pytest.raises(HypothesisViolationError):
            lower_bound_C(0.1, 0.75, 1, 1, 1.0)

    def test_divergence_as_epsilon_shrinks(self):
        values = [lower_bound_C(eps, 0.75, 2, 1, 1.0)
                  for eps in (0.1, 0.01, 0.001, 0.0001)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_delta_above_one_rejected(self):
        with pytest.raises(DomainError):
            lower_bound_C(0.1, 1.0, 2, 1, 1.0)

    @pytest.mark.parametrize("n, k, delta", [(3, 1, 0.383), (3, 2, 0.8)])
    def test_outside_growth_window_rejected(self, n, k, delta):
        # delta <= 1/2 or delta >= n/(2k): sigma1 does not diverge there but
        # falls as eps -> 0, so no divergent lower bound can hold
        with pytest.raises(HypothesisViolationError):
            lower_bound_C(1e-3, delta, n, k, 1.0)
        late, early = (sigma1_construction(sweep_spec(eps, n, k, delta)).value
                       for eps in (1e-10, 1e-4))
        assert late < 0.5 * early

    FAMILIES = [(2, 1, 0.55), (2, 1, 0.9), (3, 1, 0.55), (3, 1, 0.75), (3, 1, 0.95),
                (3, 2, 0.6), (3, 2, 0.7), (4, 1, 0.8), (5, 2, 0.7)]

    @pytest.mark.parametrize("n, k, delta", FAMILIES)
    def test_holds_down_to_small_epsilon(self, n, k, delta):
        for eps in 10.0 ** -np.arange(2, 11):
            sigma1 = sigma1_construction(sweep_spec(eps, n, k, delta), n_elements=400).value
            assert sigma1 >= lower_bound_C(eps, delta, n, k, 1.0), eps

    @pytest.mark.parametrize("n, k, delta", FAMILIES)
    def test_rayleigh_upper_bounds_and_their_rates(self, n, k, delta):
        # The two test functions of lower_bound_C's docstring, evaluated here
        # from the mesh and the warp: the (0, 0) mode gives
        #   U_a = (1/b0 + 1/b1) / sum_e dt_e / h(t_mid)^(2k/n),
        # the nonzero eigenvalue of that mode on the discrete ladder, and the
        # fiber-lambda1 mode, constant along the base, has the quotient
        #   U_b = lambda1 sum_i h(t_i)^-2 lump_i / (b0 + b1),
        # with b = h^(k/n) at the ends and lambda1 = 1. Their rates in eps
        # are the exponents of lower_bound_C.
        epsilons = 10.0 ** -np.arange(4, 11)
        bounds = []
        for eps in epsilons:
            spec = sweep_spec(eps, n, k, delta)
            warp = spec.warp
            nodes = graded_mesh(1.0, 400, warp.transition_intervals())
            dt = np.diff(nodes)
            lump = np.concatenate((dt / 2.0, [0.0])) + np.concatenate(([0.0], dt / 2.0))
            b0, b1 = power_fn(warp, k / n)(np.array([0.0, 1.0]))
            h_mid = power_fn(warp, 1.0)(0.5 * (nodes[:-1] + nodes[1:]))
            u_a = (1.0 / b0 + 1.0 / b1) / np.sum(dt / h_mid ** (2.0 * k / n))
            u_b = np.sum(power_fn(warp, -2.0)(nodes) * lump) / (b0 + b1)
            sigma1 = sigma1_construction(spec, n_elements=400).value
            assert sigma1 <= u_a * (1.0 + 1e-12), eps
            assert sigma1 <= u_b * (1.0 + 1e-12), eps
            bounds.append((u_a, u_b))
        slope_a, slope_b = (
            np.polyfit(np.log(epsilons), np.log(column), 1)[0] for column in np.transpose(bounds)
        )
        assert slope_a == pytest.approx(2.0 * delta * k / n - 1.0, abs=0.01)
        assert slope_b == pytest.approx(1.0 - 2.0 * delta, abs=0.01)

"""Warped-product spectrum assembly: closed forms, truncation, gap construction."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from steklovwarp import (
    BaseGeometry,
    CompletenessError,
    DomainError,
    HypothesisViolationError,
    NumericError,
    WarpedMetricSpec,
    WarpProfile,
    base_dtn_spectrum,
    circle_spectrum,
    discretize,
    dtn_eigenvalues,
    explicit_spectrum,
    first_eigenvalues,
    flat_torus_spectrum,
    lower_bound_C,
    point_spectrum,
    sigma1_construction,
    steklov_spectrum_warped,
)
from steklovwarp import assembler, spectra, sturm
from steklovwarp.assembler import first_eigenvalues_each, metric_recipes
from steklovwarp.experiments import SPECTRUM_CSV_HEADER, sig12, spectrum_csv_lines
from steklovwarp.profiles import log_value, power_fn
from steklovwarp.provenance import merge_tagged
from steklovwarp.spectra import discrete_circle_spectrum, extend

TWO_PI = 2.0 * math.pi
TANH1 = math.tanh(1.0)
COTH1 = 1.0 / math.tanh(1.0)
TANH2X2 = 2.0 * math.tanh(2.0)


def cylinder_spec(length=2.0, fiber_length=TWO_PI, steklov_ends="both", mode="plain_warp"):
    return assembler.surface_spec(lambda t: 1.0, length, fiber_length, steklov_ends, mode)


def circle_spec(warp, mode="volume_preserving", steklov_ends="both", n=2, k=1):
    """A unit collar with unit circle fiber and cross-section (lambda1 = mu1 = 1).

    The 1D problems see the cross-section only through its spectrum, so the
    circle stands in for the (n - 1)-dimensional cross-section of any n.
    """
    circle = circle_spectrum(TWO_PI, 4)
    return WarpedMetricSpec(
        base_dim=n, fiber_dim=k, warp=warp,
        base=BaseGeometry(circle, 1.0, steklov_ends), fiber=circle, mode=mode,
    )


def sweep_spec(eps, n=2, k=1, delta=2.0 / 3.0):
    """The volume-preserving circle_spec of a symmetric plateau; the defaults are the sweep's."""
    return circle_spec(WarpProfile(eps, delta, 1.0, symmetric=True), n=n, k=k)


def recipe_branch(spec, lam, top, n_elements):
    """base_dtn_spectrum at fiber eigenvalue lam, on metric_recipes' closures for spec."""
    recipes = metric_recipes(spec)
    return base_dtn_spectrum(spec.base, recipes.grad_weight, lam, recipes.inv_sq_weight, top,
                             n_elements=n_elements, boundary_weights=recipes.boundary_weights,
                             transition_spans=recipes.spans)


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
        assert recipe_branch(spec, 0.0, 5.0, 1600).entries[0].value == 0.0

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
        spec = assembler.surface_spec(warp, 1.0, TWO_PI, "both", "plain_warp")
        return recipe_branch(dataclasses.replace(spec, fiber_dim=fiber_dim), lam, 1e3,
                             n_elements).flatten()

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

    @pytest.mark.parametrize("n_elements", [math.nan, math.inf])
    def test_non_finite_element_count_rejected(self, n_elements):
        # a NaN count used to reach an int cast that warns
        with pytest.raises(DomainError, match="element count must be positive and finite"):
            steklov_spectrum_warped(cylinder_spec(), top=4.0, n_elements=n_elements)

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

    @staticmethod
    def _count_walks(monkeypatch):
        tops = []
        original = sturm.walk_below

        def spy(problem, fibers, modes, top, rows):
            tops.append(top)
            return original(problem, fibers, modes, top, rows)

        monkeypatch.setattr(sturm, "walk_below", spy)
        return tops

    @staticmethod
    def _discrete_surface():
        # 16 fiber values and two Steklov ends: the collar has 32 eigenvalues
        return WarpedMetricSpec(1, 1, lambda t: 1.0, BaseGeometry(point_spectrum(), 1.0, "both"),
                                discrete_circle_spectrum(TWO_PI, 16))

    def test_count_above_a_complete_size_refused_before_any_walk(self, monkeypatch):
        tops, reductions = self._count_walks(monkeypatch), []
        monkeypatch.setattr(sturm, "_ladder_eigenvalues", lambda *a: reductions.append(a))
        with pytest.raises(DomainError, match="exceeds the 32 eigenvalues"):
            first_eigenvalues(self._discrete_surface(), 40, n_elements=64)
        # a refused spec stops its chunk before the first steps are reduced
        with pytest.raises(DomainError, match="exceeds the 32 eigenvalues"):
            list(first_eigenvalues_each([cylinder_spec(), self._discrete_surface()], 40,
                                        n_elements=64))
        assert tops == [] and reductions == []

    @pytest.mark.parametrize("count", [math.nan, math.inf, 1.5])
    def test_count_not_a_whole_number_refused_before_any_walk(self, monkeypatch, count):
        # a NaN or infinite count used to pass count < 1 and walk all 60 cutoffs
        tops = self._count_walks(monkeypatch)
        with pytest.raises(DomainError, match="count must be a positive integer"):
            first_eigenvalues(cylinder_spec(), count, n_elements=64)
        assert tops == []

    def test_count_equal_to_a_complete_size_returns_all(self, monkeypatch):
        spec = self._discrete_surface()
        everything = steklov_spectrum_warped(spec, math.inf, n_elements=64)
        assert everything.total_multiplicity == 32
        tops = self._count_walks(monkeypatch)
        values, spectrum = first_eigenvalues(spec, 32, n_elements=64)
        assert np.array_equal(values, everything.flatten())
        assert spectrum.total_multiplicity == 32
        assert tops == [1.0, 2.0, 4.0, 8.0]  # all 32 are certified at top 8, and it stops

    @staticmethod
    def _far_fiber_surface(complete):
        # a fiber holding 0 once and 1e30 twice: of the collar's 6 eigenvalues
        # only the lambda = 0 pair lies below the last of the 60 cutoffs, 2^59
        fiber = explicit_spectrum([(0.0, 1), (1e30, 2)], complete=complete)
        return WarpedMetricSpec(1, 1, lambda t: 1.0, BaseGeometry(point_spectrum(), 1.0, "both"),
                                fiber)

    def test_uncertified_count_names_the_last_walk(self, monkeypatch):
        tops = self._count_walks(monkeypatch)
        message = ("could not certify 3 eigenvalues: 2 certified at the last cutoff walked, "
                   f"top={2.0**59}")
        with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
            first_eigenvalues(self._far_fiber_surface(complete=False), 3, n_elements=64)
        assert tops == [2.0**d for d in range(60)]

    def test_complete_spectra_past_the_last_cutoff_walk_once_at_inf(self, monkeypatch):
        spec = self._far_fiber_surface(complete=True)
        everything = steklov_spectrum_warped(spec, math.inf, n_elements=64).flatten()
        assert everything.tolist() == [0.0, 2.0] + [7.8125e27] * 4
        tops = self._count_walks(monkeypatch)
        values, spectrum = first_eigenvalues(spec, 3, n_elements=64)
        assert values.tolist() == [0.0, 2.0, 7.8125e27]
        assert np.array_equal(spectrum.flatten(), everything)
        assert tops == [2.0**d for d in range(60)] + [math.inf]


class TestFirstEigenvaluesEach:
    """first_eigenvalues_each gives each spec what first_eigenvalues gives it alone.

    The first walk steps of many specs are reduced together, those with the
    same node count and ends in one call with per-row conductances; every
    value and spectrum row must come out the same bit for bit.
    """

    @staticmethod
    def _mixed_specs():
        # mirrored and whole collars, every steklov_ends, point and circle
        # cross-sections, several node counts, and warps that share a mesh
        # and ends but not their conductances: 18 circle specs of 64
        # first-step rows fill more than one chunk of 512
        specs = [cylinder_spec(), cylinder_spec(length=1.0, steklov_ends="left")]
        for (eps, delta), ends, symmetric, cross in itertools.product(
                ((0.1, 2.0 / 3.0), (0.1, 0.75), (0.13, 2.0 / 3.0)), ("both", "left", "right"),
                (True, False), ("point", "circle")):
            spec = sweep_spec(eps, delta=delta)
            base = BaseGeometry(point_spectrum() if cross == "point" else spec.base.cross_section,
                                1.0, ends)
            specs.append(dataclasses.replace(
                spec, base=base, warp=WarpProfile(eps, delta, 1.0, symmetric=symmetric)))
        return specs

    def test_equals_each_spec_alone(self, monkeypatch):
        specs, count, n_elements = self._mixed_specs(), 7, 120
        problems = [discretize(spec, n_elements) for spec in specs]
        assert sum(isinstance(p.right_bc, sturm.MirrorEnd) for p in problems) == 6
        assert len({len(p.nodes) for p in problems}) > 2
        alone = [_fingerprint(first_eigenvalues(spec, count, n_elements=n_elements))
                 for spec in specs]
        chunks, reduce = [], sturm._reduce_first_steps

        def spy(chunk):
            chunks.append(sum(len(lam) * len(mu) for _, lam, mu in chunk))
            return reduce(chunk)

        monkeypatch.setattr(sturm, "_reduce_first_steps", spy)
        together = first_eigenvalues_each(specs, count, n_elements=n_elements)
        assert [_fingerprint(result) for result in together] == alone
        assert len(chunks) > 1 and max(chunks) <= sturm._MAX_GROUP_ROWS

    def test_first_step_rows_are_those_of_dtn_eigenvalues(self):
        walks = [(discretize(spec, 120), spec.fiber, spec.base.cross_section)
                 for spec in self._mixed_specs()]
        for (problem, fibers, modes), cache in zip(walks, sturm.first_steps(walks)):
            lam = [value for value, _ in fibers.take(0, 8)]
            mu = [value for value, _ in modes.take(0, 8)]
            expected = dtn_eigenvalues(problem, np.repeat(lam, len(mu)), np.tile(mu, len(lam)))
            assert sorted(cache) == list(range(len(lam)))
            got = np.array([row for i in range(len(lam)) for row in cache[i]])
            assert got.tobytes() == expected.tobytes()


def _fingerprint(result):
    """Exact text of a solver result's numbers."""
    if isinstance(result, assembler.Sigma1Result):
        return repr(result)
    if isinstance(result, tuple):  # first_eigenvalues: (values, spectrum)
        return result[0].tobytes(), _fingerprint(result[1])
    return repr([(e.value, e.multiplicity, e.sources) for e in result.entries])


def collar_of(spec, problem, whole=False):
    """The closure twin of a solved problem: metric_recipes' closures on its nodes and ends.

    Its Steklov ends carry the closures' boundary weights. With whole, it is
    the whole collar, with two Steklov ends, on the mesh a mirrored problem
    solves: its half and the reflection of it.
    """
    recipes = metric_recipes(spec)
    nodes, spans, left = problem.nodes, problem.transition_spans, problem.left_bc
    ends = (left, problem.right_bc)
    if whole:
        nodes = np.concatenate((nodes, 2.0 * nodes[-1] - nodes[-2::-1]))
        spans, ends = recipes.spans, (left, left)
    left, right = (sturm.SteklovEnd(weight) if isinstance(bc, sturm.SteklovEnd) else bc
                   for bc, weight in zip(ends, recipes.boundary_weights))
    return sturm.SturmProblem(nodes[-1], recipes.grad_weight, recipes.inv_sq_weight, left, right,
                              nodes, spans)


class TestCollarSampling:
    """A collar problem samples ln h once, at its nodes followed by its element midpoints.

    Its w, q and boundary weights are powers of that sample, and must equal
    bit for bit what the closures of metric_recipes give at the same points.
    """

    @staticmethod
    def _counted_bump(length=1.0):
        calls = []

        def warp(t):
            calls.append(np.array(t, copy=True))
            return 1.0 + t * (length - t)

        return warp, calls

    @pytest.mark.parametrize("solve", [
        lambda spec: sigma1_construction(spec, n_elements=120),
        lambda spec: first_eigenvalues(spec, 12, n_elements=120),
        lambda spec: steklov_spectrum_warped(spec, 6.0, n_elements=120),
    ], ids=["sigma1", "first", "spectrum"])
    def test_one_evaluation_per_collar(self, solve):
        warp, calls = self._counted_bump()
        spec = circle_spec(warp)
        solve(spec)
        assert len(calls) == 1
        nodes = discretize(spec, 120).nodes
        points = np.concatenate((nodes, 0.5 * (nodes[:-1] + nodes[1:])))
        assert calls[0].tobytes() == points.tobytes()

    @pytest.mark.parametrize("solve", [
        lambda spec: sigma1_construction(spec, n_elements=400),
        lambda spec: first_eigenvalues(spec, 12, n_elements=400),
        lambda spec: steklov_spectrum_warped(spec, 6.0, n_elements=400),
    ], ids=["sigma1", "first", "spectrum"])
    @pytest.mark.parametrize("warp", [sweep_spec(1e-3).warp, lambda t: 1.0 + t * (1.0 - t)],
                             ids=["profile", "bump"])
    def test_collar_calls_one_closure(self, monkeypatch, solve, warp):
        # the closures of a single power describe the problem, but its samples
        # all come from one call of power_fn's closure with every power
        spec = circle_spec(warp)
        expected = solve(spec)
        calls = []

        def counted(warp, p):
            fn = power_fn(warp, p)

            def power(t):
                calls.append(np.shape(p))
                return fn(t)

            return power

        monkeypatch.setattr(assembler, "power_fn", counted)
        assert _fingerprint(solve(spec)) == _fingerprint(expected)
        assert calls == [(3,)]

    @pytest.mark.parametrize("warp", [
        WarpProfile(0.05, 2.0 / 3.0, 1.0, symmetric=True),
        WarpProfile(0.01, 0.8, 1.0, symmetric=False),
        lambda t: 1.0 + t * (1.0 - t),
        lambda t: 1.0,
    ], ids=["symmetric", "one-sided", "bump", "unit"])
    @pytest.mark.parametrize("mode", ["plain_warp", "volume_preserving"])
    @pytest.mark.parametrize("steklov_ends", ["both", "left", "right"])
    def test_samples_equal_closure_samples(self, warp, mode, steklov_ends):
        # a mirrored collar is its left half, and the closures are sampled there
        spec = circle_spec(warp, mode, steklov_ends, n=3, k=2)
        got = discretize(spec, 400)
        mirror = steklov_ends == "both" and getattr(warp, "symmetric", False)
        assert isinstance(got.right_bc, sturm.MirrorEnd) == mirror
        assert got.nodes[-1] == (0.5 if mirror else 1.0)
        expected = collar_of(spec, got)
        for name in ("cond", "q_node", "w_node", "lump"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
        assert (got.left_bc, got.right_bc) == (expected.left_bc, expected.right_bc)
        for bc in (got.left_bc, got.right_bc):
            if isinstance(bc, sturm.SteklovEnd):
                assert isinstance(bc.weight, float)


def entries_of(spectrum):
    """Every (value, multiplicity) of a spectrum, read without ClosedSpectrum.take.

    A generated kind yields its whole stream; an explicit list ends after
    its entries if complete, and raises CompletenessError if not.
    """
    if spectrum.kind in spectra._STREAMS:
        yield from spectra._STREAMS[spectrum.kind](*spectrum.params)
        return
    yield from spectrum.entries
    if not spectrum.complete:
        raise CompletenessError("the explicit list ends before the walk stops")


def per_pair_walk(spec, top, n_elements):
    """Reference walk: one dtn_eigenvalues call per (lambda, mu) pair, under the same stop rules.

    A fiber's modes are read until the first whose smallest eigenvalue
    exceeds top, and fibers until the first whose mode 0 does; a spectrum
    that runs out early ends the walk if it is complete, and raises
    CompletenessError from entries_of if not. Returns the merged spectrum,
    the number of fiber branches below top and the last mode position read
    below top.
    """
    problem = discretize(spec, n_elements)
    tagged, branches, last_mode = [], 0, 0
    for fiber_value, fiber_mult in entries_of(spec.fiber):
        branch = []
        for j, (cross_value, cross_mult) in enumerate(entries_of(spec.base.cross_section)):
            row = dtn_eigenvalues(problem, fiber_value, cross_value)
            if row[0] > top:
                break
            last_mode = max(last_mode, j)
            branch += [
                (float(value), fiber_value, cross_value, b, fiber_mult, cross_mult)
                for b, value in enumerate(row)
                if value <= top
            ]
        if not branch:
            break
        tagged += branch
        branches += 1
    return merge_tagged(tagged), branches, last_mode


def per_source_csv_lines(spectrum):
    """The spectrum CSV formatted from the entries, one line per source: the reference."""
    return [SPECTRUM_CSV_HEADER] + [
        f"{sig12(e.value)},{s.multiplicity},{sig12(s.fiber_value)},"
        f"{sig12(s.cross_value)},{s.branch}"
        for e in spectrum.entries
        for s in e.sources
    ]


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
            problem = discretize(spec, self.N_ELEMENTS)
            edge = dtn_eigenvalues(problem, fiber_5, mode_24)[0]
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

    @pytest.mark.parametrize("cross", ["point", "circle", "torus"])
    @pytest.mark.parametrize("steklov_ends", ["both", "left", "right"])
    def test_table_reads_as_the_entries(self, steklov_ends, cross):
        # values, multiplicities and the minimum come from the merged table;
        # the entries, built on first read, say the same
        values, spectrum = first_eigenvalues(self._spec(steklov_ends, cross), 40,
                                             n_elements=self.N_ELEMENTS)
        entries = spectrum.entries
        assert spectrum.entries is entries  # cached
        flat = [e.value for e in entries for _ in range(e.multiplicity)]
        assert values.tolist() == flat[:40]
        assert spectrum.flatten().tolist() == flat
        assert spectrum.values().tolist() == [e.value for e in entries]
        assert spectrum.total_multiplicity == len(flat)
        assert len(spectrum) == len(entries)
        assert spectrum.min_value() == entries[0].value

    @pytest.mark.parametrize("cross", ["circle", "torus"])
    @pytest.mark.parametrize("steklov_ends", ["both", "left", "right"])
    def test_csv_matches_the_entries(self, steklov_ends, cross):
        spectrum = steklov_spectrum_warped(self._spec(steklov_ends, cross), 30.0,
                                           n_elements=self.N_ELEMENTS)
        lines = spectrum_csv_lines(spectrum)
        assert lines == per_source_csv_lines(spectrum)
        assert len(lines) == 1 + len(spectrum.rows)
        if steklov_ends == "both":  # the even and odd branches of a large lambda merge
            assert len(spectrum.rows) > len(spectrum)

    @pytest.mark.parametrize("cross", ["circle", "torus"])
    def test_csv_with_top_inside_a_merge_group(self, cross):
        # top between the anchor of a merged entry and its largest value: the
        # walk keeps only the part of the group at or below top
        spec = self._spec("both", cross)
        full = steklov_spectrum_warped(spec, 30.0, n_elements=self.N_ELEMENTS)
        spread = [
            (anchor, max(row[0] for row in rows), len(rows))
            for anchor, _, rows in full.groups()
            if max(row[0] for row in rows) > anchor
        ]
        anchor, largest, size = spread[len(spread) // 2]
        top = 0.5 * (anchor + largest)
        assert anchor < top < largest
        spectrum = steklov_spectrum_warped(spec, top, n_elements=self.N_ELEMENTS)
        *_, (last, _, rows) = spectrum.groups()
        assert last == anchor and 0 < len(rows) < size
        assert spectrum_csv_lines(spectrum) == per_source_csv_lines(spectrum)

    def test_csv_keeps_signed_zeros_apart(self):
        # -0.0 and 0.0 are one key of a dict, but format as "-0" and "0"
        spectrum = merge_tagged([(1.0, -0.0, 0.0, 0, 1, 1), (2.0, 0.0, -0.0, 0, 1, 1),
                                 (3.0, -0.0, 0.0, 1, 1, 1)])
        assert spectrum_csv_lines(spectrum)[1:] == ["1,1,-0,0,0", "2,1,0,-0,0", "3,1,-0,0,1"]
        assert spectrum_csv_lines(spectrum) == per_source_csv_lines(spectrum)


class TestBlockBoundaries:
    """Complete spectra that end exactly at a fiber block or a mode step.

    Fibers of 8 and 16 entries fill one and two blocks of 8, and a block of
    8 fibers reads its modes 8 at a time, so 8 and 64 modes end with a
    full step: each walk ends on a read that comes back empty. At top = inf
    every pair is walked, and the walk must return the whole discrete
    spectrum, as the per-pair reference does.
    """

    @pytest.mark.parametrize("steklov_ends", ["both", "left"])
    @pytest.mark.parametrize("n_modes", [8, 64])
    @pytest.mark.parametrize("n_fibers", [8, 16])
    def test_top_inf_walks_every_pair(self, n_fibers, n_modes, steklov_ends):
        fiber = explicit_spectrum([(j * j, 2 if j else 1) for j in range(n_fibers)],
                                  complete=True)
        cross = explicit_spectrum([(0.5 * j, 1 + j % 3) for j in range(n_modes)], complete=True)
        spec = WarpedMetricSpec(2, 1, WarpProfile(0.1, 0.75, 1.0, True),
                                BaseGeometry(cross, 1.0, steklov_ends), fiber, "volume_preserving")
        size = ((2 * n_fibers - 1) * sum(1 + j % 3 for j in range(n_modes))
                * (2 if steklov_ends == "both" else 1))
        got = steklov_spectrum_warped(spec, math.inf, n_elements=100)
        expected, branches, last_mode = per_pair_walk(spec, math.inf, 100)
        assert (branches, last_mode) == (n_fibers, n_modes - 1)
        assert got.entries == expected.entries
        assert got.total_multiplicity == expected.total_multiplicity == size
        values, _ = first_eigenvalues(spec, size, n_elements=100)
        assert np.array_equal(values, got.flatten())

    @pytest.mark.parametrize("steklov_ends", ["both", "left"])
    @pytest.mark.parametrize("n_modes", [8, 64])
    @pytest.mark.parametrize("n_fibers", [8, 16])
    def test_each_step_is_one_call_of_at_most_64_rows(self, monkeypatch, n_fibers, n_modes,
                                                      steklov_ends):
        # every (lambda, mu) pair is reduced once, by walk calls of 1 to 64 rows;
        # first_eigenvalues reduces its first step as one grouped call of its own
        fiber = explicit_spectrum([(j * j, 1) for j in range(n_fibers)], complete=True)
        cross = explicit_spectrum([(0.5 * j, 1) for j in range(n_modes)], complete=True)
        spec = WarpedMetricSpec(2, 1, WarpProfile(0.1, 0.75, 1.0, True),
                                BaseGeometry(cross, 1.0, steklov_ends), fiber, "volume_preserving")
        calls, reduce = [], sturm._ladder_eigenvalues

        def spy(cond, shunt, left, right):
            calls.append((cond.ndim == 2, len(shunt)))
            return reduce(cond, shunt, left, right)

        monkeypatch.setattr(sturm, "_ladder_eigenvalues", spy)
        steklov_spectrum_warped(spec, math.inf, n_elements=100)
        walked = calls.copy()
        calls.clear()
        first_eigenvalues(spec, n_fibers * n_modes * (2 if steklov_ends == "both" else 1),
                          n_elements=100)
        assert calls[0] == (True, 64) and not any(grouped for grouped, _ in walked + calls[1:])
        for run in (walked, calls):
            assert sum(rows for _, rows in run) == n_fibers * n_modes
            assert 1 <= min(rows for _, rows in run) and max(rows for _, rows in run) <= 64


class TestDecomposition:
    """The discrete spectrum is the union of the auxiliary base spectra over the fiber.

    The sources of steklov_spectrum_warped(spec, top) with fiber value
    lambda_j are those of base_dtn_spectrum at lambda_j, on the same recipes
    and mesh, with each multiplicity scaled by the fiber multiplicity; each
    value agrees within the merge tolerance, as merging may anchor it at a
    coincident value of another branch. The fiber walk ends at the first
    lambda_j whose base spectrum is empty below top.
    """

    @pytest.mark.parametrize("cross", ["circle", "torus"])
    @pytest.mark.parametrize("steklov_ends", ["both", "left"])
    def test_fiber_branches_are_base_spectra(self, steklov_ends, cross):
        spec, top, n_elements = TestBlockedWalk._spec(steklov_ends, cross), 16.0, 200
        by_fiber = {}
        for entry in steklov_spectrum_warped(spec, top, n_elements=n_elements).entries:
            for s in entry.sources:
                by_fiber.setdefault((s.fiber_value, s.fiber_mult), []).append(
                    (s.cross_value, s.branch, s.multiplicity, entry.value)
                )
        walked = 0
        for lam, fiber_mult in entries_of(spec.fiber):
            branch = recipe_branch(spec, lam, top, n_elements)
            expected = sorted(
                (s.cross_value, s.branch, s.multiplicity * fiber_mult, entry.value)
                for entry in branch.entries
                for s in entry.sources
            )
            got = sorted(by_fiber.pop((lam, fiber_mult), []))
            assert [g[:3] for g in got] == [e[:3] for e in expected], lam
            for g, e in zip(got, expected):
                assert g[3] == pytest.approx(e[3], rel=1e-12, abs=1e-12), (lam, e[:2])
            if not branch.entries:
                break
            walked += 1
        assert by_fiber == {}  # no source from a fiber past the first empty branch
        assert walked > 8  # the walk reached the second block of fibers


class TestRowReuse:
    """Each (lambda, mu) pair is reduced once per call, in walk calls of at most 64 rows.

    The spy sees every reduction: each builds its rows' shunts with _shunts
    and reduces them with _ladder_eigenvalues, a walk's step with a shared
    1-D cond and the grouped first steps with one cond row per ladder.
    """

    @staticmethod
    def _spy(monkeypatch):
        pairs, calls = [], []
        shunts, reduce = sturm._shunts, sturm._ladder_eigenvalues

        def shunt_spy(p, lam, mu):
            lam_b, mu_b = np.broadcast_arrays(lam, mu)
            pairs.extend(zip(lam_b.ravel().tolist(), mu_b.ravel().tolist()))
            return shunts(p, lam, mu)

        def reduce_spy(cond, shunt, left, right):
            calls.append((cond.ndim == 2, len(shunt)))
            return reduce(cond, shunt, left, right)

        monkeypatch.setattr(sturm, "_shunts", shunt_spy)
        monkeypatch.setattr(sturm, "_ladder_eigenvalues", reduce_spy)
        return pairs, calls

    @staticmethod
    def _assert_each_pair_once(spied):
        pairs, calls = spied
        assert len(pairs) == len(set(pairs)) == sum(rows for _, rows in calls)
        assert max(rows for grouped, rows in calls if not grouped) <= 64
        grouped_rows = [rows for grouped, rows in calls if grouped]
        assert max(grouped_rows, default=0) <= sturm._MAX_GROUP_ROWS

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
        spied = self._spy(monkeypatch)
        _, spectrum = first_eigenvalues(spec, 40, n_elements=300)
        self._assert_each_pair_once(spied)
        assert spied[1][0] == (True, 8)  # the first step, grouped
        # fiber 9 (lambda = 81) is reached, past the first block of 8 fibers
        assert max(s.fiber_value for e in spectrum.entries for s in e.sources) > 64.0

    def test_circle_cross_section_at_top_30(self, monkeypatch):
        # the spectrum benchmark's metric; first_eigenvalues doubles its
        # cutoff to 32 to certify every eigenvalue below 30
        spec = sweep_spec(0.05)
        count = steklov_spectrum_warped(spec, 30.0).total_multiplicity
        spied = self._spy(monkeypatch)
        steklov_spectrum_warped(spec, 30.0)
        self._assert_each_pair_once(spied)
        assert not any(grouped for grouped, _ in spied[1])
        for spy_list in spied:
            spy_list.clear()
        _, spectrum = first_eigenvalues(spec, count)
        self._assert_each_pair_once(spied)
        assert spectrum.total_multiplicity > count

    def test_spectrum_walk_reads_modes_in_sub_blocks(self, monkeypatch):
        # on the spectrum benchmark's metric at top 30, steps of 8-aligned
        # sub-blocks capped by the live fibers reduce 928 rows; blocks of
        # modes doubling from 8 to 64 whatever the live fibers reduced 1 296
        spec, top = sweep_spec(0.05), 30.0
        spied = self._spy(monkeypatch)
        steklov_spectrum_warped(spec, top)
        self._assert_each_pair_once(spied)
        pairs = spied[0]
        assert len(pairs) <= 1100
        problem = discretize(spec, 400)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_warp_rejected(self, bad):
        # it used to give value = nan; the spectrum walks on it never stopped
        spec = assembler.surface_spec(lambda t: np.where(t > 0.5, bad, 1.0), 1.0, TWO_PI,
                                      "both", "volume_preserving")
        with pytest.raises(DomainError, match="warp function must be positive and finite"):
            sigma1_construction(spec, n_elements=64)

    def test_fiber_without_lambda1_rejected(self):
        spec = dataclasses.replace(self._mixed_spec(), fiber=point_spectrum())
        with pytest.raises(DomainError):
            sigma1_construction(spec, n_elements=300)

    def test_value_is_min_of_branches(self):
        result = sigma1_construction(self._mixed_spec(), n_elements=300)
        assert result.value == min(result.branch_lambda0, result.branch_lambda1)

    @pytest.mark.parametrize("eps", [1e-15, 1e-16, 1e-17])
    def test_answers_where_the_whole_collar_rounds_its_ramps_away(self, eps):
        # L - eps rounds to L below eps ~ 1e-15, but a mirrored collar meshes
        # only its left half; this checks the identity, not the accuracy
        spec = assembler.surface_spec(WarpProfile(eps, 0.6, 1.0, symmetric=True), 1.0, TWO_PI,
                                      "both", "volume_preserving")
        result = sigma1_construction(spec)
        rows = dtn_eigenvalues(discretize(spec, 400), [1.0, 0.0], 0.0)
        assert (result.branch_lambda0, result.branch_lambda1) == (rows[1, 1], rows[0, 0])
        assert result.value == min(rows[1, 1], rows[0, 0])
        assert 0.0 < result.value < math.inf

    @pytest.mark.parametrize("symmetric", [True, False], ids=["plateau", "ramp"])
    @pytest.mark.parametrize("cross", ["point", "circle", "torus"])
    @pytest.mark.parametrize("steklov_ends", ["both", "left", "right"])
    def test_equals_first_nonzero_eigenvalue_of_the_spectrum(self, monkeypatch, steklov_ends,
                                                             cross, symmetric):
        # sigma1_construction reduces three (lambda, mu) pairs of discretize's
        # problem, mirrored or whole, bit for bit; the spectrum walks every
        # pair below its top, and must find the same value behind the exact zero
        n, cross_section = {
            "point": (1, point_spectrum()),
            "circle": (2, circle_spectrum(TWO_PI, 8)),
            "torus": (3, flat_torus_spectrum(1.0, 1.3, 8)),
        }[cross]
        modes = extend(cross_section, 2).entries
        mu1 = modes[1][0] if len(modes) > 1 else 0.0
        reduced, reduce = [], sturm.dtn_eigenvalues
        monkeypatch.setattr(sturm, "dtn_eigenvalues",
                            lambda *args: reduced.append(reduce(*args)) or reduced[-1])
        for eps in (5e-2, 1e-2, 1e-3):
            spec = WarpedMetricSpec(
                base_dim=n,
                fiber_dim=1,
                warp=WarpProfile(eps, 0.75, 1.0, symmetric),
                base=BaseGeometry(cross_section, 1.0, steklov_ends),
                fiber=circle_spectrum(TWO_PI, 8),
                mode="volume_preserving",
            )
            problem = discretize(spec, 400)
            assert isinstance(problem.right_bc, sturm.MirrorEnd) == (symmetric
                                                                     and steklov_ends == "both")
            reduced.clear()
            sigma1 = sigma1_construction(spec).value
            (rows,) = reduced  # lambda1 = 1 on the unit circle fiber
            assert rows.tobytes() == reduce(problem, [1.0, 0.0, 0.0], [0.0, 0.0, mu1]).tobytes()
            entries = steklov_spectrum_warped(spec, 1.5 * sigma1).entries
            assert entries[0].value == 0.0
            assert entries[1].value == sigma1, eps


def mode00_value(spec, problem):
    """Nonzero eigenvalue 2 G / b0 of mode (0, 0) on a mirrored half of a volume_preserving metric.

    G is the series conductance of the half and its reflection, w = h^(2k/n) at
    the element midpoints, and b0 = h^(k/n) the weight of each end.
    """
    nodes, k_over_n = problem.nodes, spec.fiber_dim / spec.base_dim
    assert isinstance(problem.right_bc, sturm.MirrorEnd)
    w_mid = power_fn(spec.warp, 2.0 * k_over_n)(0.5 * (nodes[:-1] + nodes[1:]))
    b0 = power_fn(spec.warp, k_over_n)(0.0)
    return 2.0 / b0 / np.sum(2.0 * np.diff(nodes) / w_mid)


def reflected_ladder(problem):
    """A mirrored problem's whole ladder, from its half's samples and their reflection.

    Returns the conductances and the lumped q and w at each node. The half
    ends on the middle node, which keeps twice the half's shunt.
    """
    cond = problem.cond
    shunts = np.stack((problem.q_node, problem.w_node)) * problem.lump
    return np.concatenate((cond, cond[::-1])), np.concatenate(
        (shunts[:, :-1], 2.0 * shunts[:, -1:], shunts[:, -2::-1]), 1)


def reflected_eigenvalues(problem, lam, mu):
    """A mirrored problem's rows as the whole path reduces its reflected ladder."""
    cond, (q_lump, w_lump) = reflected_ladder(problem)
    shunt = lam[:, None] * q_lump + mu[:, None] * w_lump
    return sturm._ladder_eigenvalues(cond, shunt, problem.left_bc, problem.left_bc)


class TestMirror:
    """A symmetric profile with both ends Steklov is the left half of its collar.

    The half ends in a MirrorEnd at L/2, and its rows hold (sigma_even,
    sigma_odd): by Bartlett's bisection theorem these are the two
    eigenvalues of the whole, symmetric two-port. Every other warp or
    choice of ends keeps the whole ladder.
    """

    EPSILONS = (0.1, 0.05, 0.025, 1e-2, 1e-3, 1e-4)
    # down to where the whole collar's cuts L - c eps round together (eps <= 1e-15)
    SMALL_EPSILONS = (1e-8, 1e-12, 1e-15, 1e-16, 1e-17)
    DIMS = ((1, 1), (2, 1), (3, 2))
    VALUES = (0.0, 1.0, 100.0, 1e4)
    LAM, MU = (np.ravel(a) for a in np.meshgrid(VALUES, VALUES))  # row 0 is mode (0, 0)
    # 300, 301 and 302 elements: an odd count gives the half a float count;
    # 260 ties two segment counts at eps = 0.025 (test_tied_segment_counts_keep_the_mirror)
    N_ELEMENTS = (260, 300, 301, 302)

    @classmethod
    def _problems(cls, epsilons=EPSILONS):
        for eps in epsilons:
            for (n, k), mode, n_elements in itertools.product(
                cls.DIMS, ("plain_warp", "volume_preserving"), cls.N_ELEMENTS
            ):
                spec = dataclasses.replace(sweep_spec(eps, n, k), mode=mode)
                yield eps, spec, discretize(spec, n_elements)

    def test_rows_are_the_reflected_ladders(self):
        # the whole ladder is built from the half's samples alone, with no t
        for eps, _, problem in self._problems(self.EPSILONS + self.SMALL_EPSILONS):
            assert isinstance(problem.right_bc, sturm.MirrorEnd)
            assert problem.nodes[0] == 0.0 and problem.nodes[-1] == 0.5
            got = dtn_eigenvalues(problem, self.LAM, self.MU)
            assert got[0, 0] == 0.0
            assert np.all(got[:, 0] <= got[:, 1])
            expected = reflected_eigenvalues(problem, self.LAM, self.MU)
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0, err_msg=str(eps))

    def test_rows_match_the_whole_collar(self):
        # The whole collar, on the half's mesh and its reflection, samples
        # its right half at nodes t near L, which carry an absolute rounding
        # of ulp(L) that its ramps read as s = L - t. On rows up to 1e4 that
        # moved the whole collar's values by up to 7.3e-13 at eps = 1e-3 and
        # 2.4e-12 at 1e-4
        # (test_whole_collar_departs_by_its_right_half_rounding); the
        # mirror reads no L - t (test_rows_are_the_reflected_ladders).
        for eps, spec, problem in self._problems():
            got = dtn_eigenvalues(problem, self.LAM, self.MU)
            whole = dtn_eigenvalues(collar_of(spec, problem, whole=True), self.LAM, self.MU)
            assert whole[0, 0] == 0.0
            rtol = 1e-13 if eps >= 1e-2 else 1e-11
            np.testing.assert_allclose(got, whole, rtol=rtol, atol=0.0, err_msg=str(eps))

    def test_whole_collar_departs_by_its_right_half_rounding(self):
        # The whole collar on the reflected mesh and the mirror's reflected
        # ladder share the left half bit for bit. On the right half, the
        # whole collar's nodes sit off the reflected left nodes by at most
        # ulp(L), so each conductance and lumped q and w is off by a
        # relative r of at most ulp(L) times the ladder's sensitivity to a
        # node shift. Scaling every conductance and shunt by a factor in
        # [1 - r, 1 + r] keeps each Dirichlet-to-Neumann eigenvalue in that
        # factor, which bounds how far the whole collar's rows may depart
        # from the mirror's.
        worst = dict.fromkeys(self.EPSILONS, 0.0)
        for eps, spec, problem in self._problems():
            whole = collar_of(spec, problem, whole=True)
            cond, shunts = reflected_ladder(problem)
            left = len(problem.cond)
            assert whole.cond[:left].tobytes() == cond[:left].tobytes()
            assert np.abs(whole.nodes + whole.nodes[::-1] - 1.0).max() <= np.spacing(1.0)
            r = max(np.abs(whole.cond / cond - 1.0).max(),
                    np.abs(np.stack((whole.q_node, whole.w_node)) * whole.lump / shunts - 1.0).max())
            dt = np.diff(whole.nodes)
            slope = np.abs(np.diff(log_value(spec.warp, whole.nodes)) / dt).max()
            slope *= np.abs(assembler._powers(spec)).max()
            assert r <= np.spacing(1.0) * (slope + 1.0 / dt.min()), eps
            got = dtn_eigenvalues(problem, self.LAM, self.MU)
            shift = np.abs(dtn_eigenvalues(whole, self.LAM, self.MU) - got)
            assert np.all(shift <= (r + 1e-13) * got), eps
            worst[eps] = max(worst[eps], r)
        assert worst[1e-3] > 1e-12 and worst[1e-4] > 1e-11, worst  # the shifts seen there

    @pytest.mark.parametrize("n, k", DIMS)
    def test_mode00_is_the_series_conductance(self, n, k):
        # no potential: the interior interpolates linearly between the ends,
        # and the odd mode's eigenvalue is 2 G / b0 for the series
        # conductance G of the reflected half, twice the half's resistance
        for eps in 10.0 ** -np.arange(1, 13):
            spec = sweep_spec(eps, n, k)
            problem = discretize(spec, 400)
            assert problem.nodes[-1] == 0.5
            zero, value = dtn_eigenvalues(problem, 0.0, 0.0)
            assert zero == 0.0
            assert value == pytest.approx(mode00_value(spec, problem), rel=1e-13, abs=0.0), eps

    @pytest.mark.parametrize("warp, steklov_ends", [
        (WarpProfile(0.05, 2.0 / 3.0, 1.0, symmetric=True), "left"),
        (WarpProfile(0.05, 2.0 / 3.0, 1.0, symmetric=True), "right"),
        (WarpProfile(0.05, 2.0 / 3.0, 1.0, symmetric=False), "both"),
        (lambda t: 1.0 + t * (1.0 - t), "both"),
        (lambda t: 1.0, "both"),
    ], ids=["left", "right", "one-sided", "bump", "unit"])
    def test_other_warps_keep_the_whole_ladder(self, warp, steklov_ends):
        spec = circle_spec(warp, steklov_ends=steklov_ends)
        problem = discretize(spec, 300)
        assert not isinstance(problem.right_bc, sturm.MirrorEnd)
        assert problem.nodes[-1] == 1.0
        assert len(problem.cond) == len(problem.nodes) - 1
        expected = dtn_eigenvalues(collar_of(spec, problem), self.LAM, self.MU)
        assert dtn_eigenvalues(problem, self.LAM, self.MU).tobytes() == expected.tobytes()

    def test_tied_segment_counts_keep_the_mirror(self):
        # at 260 elements [eps, 2 eps] holds rint(6.5) = 6 elements' length and
        # [L - 2 eps, L - eps] rint(6.50000000000000577) = 7; graded_mesh gives
        # the whole mesh both 7, and the half, with no mirror image to tie,
        # keeps 6; the tests over _problems check its rows
        problem = discretize(sweep_spec(0.025), 260)
        assert isinstance(problem.right_bc, sturm.MirrorEnd)
        nodes = problem.nodes
        assert np.count_nonzero((nodes > 0.025) & (nodes < 0.05)) == 5  # 6 elements

    @pytest.mark.parametrize("symmetric", [True, False], ids=["mirror", "whole"])
    @pytest.mark.parametrize("n_elements", [260, 301])
    def test_sigma1_counts_the_whole_collars_elements(self, symmetric, n_elements):
        # the sweep's mesh_size: a mirrored half stands for twice its elements
        spec = circle_spec(WarpProfile(0.025, 2.0 / 3.0, 1.0, symmetric=symmetric))
        problem = discretize(spec, n_elements)
        assert isinstance(problem.right_bc, sturm.MirrorEnd) == symmetric
        result = sigma1_construction(spec, n_elements=n_elements)
        assert result.n_elements == (len(problem.nodes) - 1) * (2 if symmetric else 1)

    def test_profile_on_a_shorter_collar_refused(self):
        # its left half lies inside the profile's collar, the whole does not
        spec = circle_spec(WarpProfile(0.05, 2.0 / 3.0, 0.8, symmetric=True))
        with pytest.raises(DomainError, match="outside the collar"):
            discretize(spec, 300)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eps", [1e-100, 1e-160, 1e-200])
    def test_overflowing_power_refused(self, eps):
        # h = eps^-2 on the far plateau: h^2 overflowed, and warned, before
        # the gradient weight check saw an inf
        spec = assembler.surface_spec(WarpProfile(eps, 0.5, 1.0, symmetric=False), 1.0, TWO_PI,
                                      "left", "volume_preserving")
        with pytest.raises(DomainError, match="overflows a float"):
            sigma1_construction(spec, n_elements=64)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_midpoint_power_refused(self):
        # h = 1e200 at one element midpoint only: the nodes' ln h is 0, and
        # h^2 overflowed in w_mid, with a warning, before the test saw it
        unit = assembler.surface_spec(lambda t: 1.0, 1.0, TWO_PI, "both", "volume_preserving")
        nodes = discretize(unit, 64).nodes  # the spiked warp's mesh too: neither has spans
        spike = 0.5 * (nodes[20] + nodes[21])
        spec = assembler.surface_spec(lambda t: np.where(t == spike, 1e200, 1.0), 1.0, TWO_PI,
                                      "both", "volume_preserving")
        with pytest.raises(DomainError, match="overflows a float"):
            sigma1_construction(spec, n_elements=64)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_power_answered(self):
        # (n, k) = (6, 1): h^-2 underflows to q = 0 on the far plateau, where
        # ln h = -2 ln eps = 391, while w = h^(1/3) and h^(1/6) stay finite
        spec = circle_spec(WarpProfile(1e-85, 0.5, 1.0, symmetric=False),
                                        steklov_ends="left", n=6, k=1)
        problem = discretize(spec, 64)
        assert problem.q_node.min() == 0.0
        expected = dtn_eigenvalues(collar_of(spec, problem), self.LAM, self.MU)
        assert dtn_eigenvalues(problem, self.LAM, self.MU).tobytes() == expected.tobytes()
        assert sigma1_construction(spec, n_elements=64).value == pytest.approx(1.0964504873, 1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n, eps", [(2, 1e-60), (2, 1e-100), (2, 1e-150), (3, 1e-85),
                                        (3, 1e-120)])
    def test_overflowing_conductance_refused(self, n, eps):
        # each power of h is finite, but w/dt reaches 2^512 on the far plateau
        # (3.7e180 at n = 2, eps = 1e-60), where a product of two conductances
        # in the reduction overflowed and sigma1 came out NaN; at n = 2,
        # eps = 1e-150 w/dt itself overflowed
        spec = circle_spec(WarpProfile(eps, 0.5, 1.0, symmetric=False),
                                        steklov_ends="left", n=n, k=1)
        with pytest.raises(NumericError, match="conductance"):
            sigma1_construction(spec, n_elements=64)

    @pytest.mark.parametrize("q, w, w_mid, match", [
        (np.nan, 1.0, 1.0, "potential"), (-1.0, 1.0, 1.0, "potential"),
        (1.0, np.inf, 1.0, "gradient weight"), (1.0, 0.0, 1.0, "gradient weight"),
        (1.0, 1.0, np.nan, "gradient weight"), (1.0, 1.0, -1.0, "gradient weight"),
        (1.0, 1.0, 0.0, "gradient weight"), (1.0, 1.0, np.inf, "gradient weight"),
    ])
    def test_primed_samples_checked(self, q, w, w_mid, match):
        # each bad sample is the half's last one, at or next to the middle
        problem = discretize(sweep_spec(0.05), 300)
        assert problem.nodes[-1] == 0.5
        n = len(problem.nodes)
        samples = np.ones(n), np.ones(n), np.ones(n - 1)
        for sample, value in zip(samples, (q, w, w_mid)):
            sample[-1] = value
        with pytest.raises(DomainError, match=match):
            problem.prime(*samples)


class TestSmallEpsilonGate:
    """sigma1 of the (n, k) = (2, 1) sweep metric in the paper's regime eps -> 0.

    It must lie above the paper's divergent constant lower_bound_C and below
    the nonzero eigenvalue G (1/b0 + 1/b1) of mode (0, 0), which is a
    candidate of branch (a), on the solver's mesh (mode00_value): G = 1 /
    sum(dt / w_mid), w = h and b = h^(1/2) = 1 at the ends. The upper bound
    is hit exactly when that mode is the minimizer, so it allows the
    roundoff of the reduction.
    """

    EPSILONS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)

    @pytest.mark.parametrize("n_elements", [400, 1600, 6400])
    def test_gap_bounded_and_rising(self, n_elements):
        sigmas = []
        for eps in self.EPSILONS:
            spec = sweep_spec(eps)
            sigma1 = sigma1_construction(spec, n_elements=n_elements).value
            low = lower_bound_C(eps, 2.0 / 3.0, 2, 1, 1.0)
            high = mode00_value(spec, discretize(spec, n_elements)) * (1.0 + 1e-12)
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

    def test_nan_epsilon_or_lambda1_rejected(self):
        # min would drop a NaN second term and return the first one
        with pytest.raises(DomainError, match="epsilon must be positive"):
            lower_bound_C(math.nan, 0.6, 2, 1, 1.0)
        with pytest.raises(DomainError, match="lambda1 of the fiber must be positive"):
            lower_bound_C(0.01, 0.6, 2, 1, math.nan)

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
        # from the solver's mesh and the warp: the (0, 0) mode gives
        #   U_a = (1/b0 + 1/b1) / sum_e dt_e / h(t_mid)^(2k/n),
        # the nonzero eigenvalue of that mode on the discrete ladder
        # (mode00_value), and the fiber-lambda1 mode, constant along the
        # base, has the quotient
        #   U_b = lambda1 sum_i h(t_i)^-2 lump_i / (b0 + b1),
        # with b = h^(k/n) at the ends and lambda1 = 1. Their rates in eps
        # are the exponents of lower_bound_C. The symmetric collar's ladder
        # is its left half and that half's reflection, so U_b's sum is twice
        # the half's, on which the middle node keeps half its lump.
        epsilons = 10.0 ** -np.arange(4, 11)
        bounds = []
        for eps in epsilons:
            spec = sweep_spec(eps, n, k, delta)
            problem = discretize(spec, 400)
            nodes, dt = problem.nodes, np.diff(problem.nodes)
            lump = np.concatenate((dt / 2.0, [0.0])) + np.concatenate(([0.0], dt / 2.0))
            b0 = b1 = power_fn(spec.warp, k / n)(0.0)
            u_a = mode00_value(spec, problem)
            u_b = 2.0 * np.sum(power_fn(spec.warp, -2.0)(nodes) * lump) / (b0 + b1)
            sigma1 = sigma1_construction(spec, n_elements=400).value
            assert sigma1 <= u_a * (1.0 + 1e-12), eps
            assert sigma1 <= u_b * (1.0 + 1e-12), eps
            bounds.append((u_a, u_b))
        slope_a, slope_b = (
            np.polyfit(np.log(epsilons), np.log(column), 1)[0] for column in np.transpose(bounds)
        )
        assert slope_a == pytest.approx(2.0 * delta * k / n - 1.0, abs=0.01)
        assert slope_b == pytest.approx(1.0 - 2.0 * delta, abs=0.01)

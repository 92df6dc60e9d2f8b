"""Weighted 1D Steklov problems against closed-form solutions.

Reference values: with w = 1 and q = mu, the equation -a'' + mu a = 0 on
[0, L] has Dirichlet-to-Neumann eigenvalues sqrt(mu) tanh(sqrt(mu) L / 2)
and sqrt(mu) coth(sqrt(mu) L / 2) when both endpoints are spectral, and
the single value sqrt(mu) tanh(sqrt(mu) L) when one endpoint is Neumann;
for mu = 0 the eigenvalues are 0 and 2 / L.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovwarp import (
    BaseGeometry,
    CompletenessError,
    DomainError,
    FunctionWarp,
    MeshResolutionError,
    NeumannEnd,
    RevolutionGrid,
    SteklovEnd,
    SturmProblem,
    WarpedMetricSpec,
    WarpProfile,
    base_dtn_spectrum,
    circle_spectrum,
    discretize,
    dtn_eigenvalues,
    explicit_spectrum,
    flat_torus_spectrum,
    graded_mesh,
    point_spectrum,
)
from steklovwarp import sturm
from steklovwarp.linalg import dtn_matrix, sym_eig
from steklovwarp.profiles import power_fn
from steklovwarp.provenance import merge_tagged
from steklovwarp.sturm import (
    MIN_ELEMENTS_PER_SPAN,
    MirrorEnd,
    _reduce_ladder,
    _run_pi,
    _run_terms,
    assemble,
    minimizing_extension,
    rayleigh_quotient,
)

TANH1 = math.tanh(1.0)
COTH1 = 1.0 / math.tanh(1.0)


def uniform_problem(length, w, q, n_elements=200, left=None, right=None):
    return SturmProblem(
        length=length,
        grad_weight=w,
        potential=q,
        left_bc=left if left is not None else SteklovEnd(),
        right_bc=right if right is not None else SteklovEnd(),
        nodes=graded_mesh(length, n_elements),
    )


class TestGradedMesh:
    def test_uniform_without_spans(self):
        nodes = graded_mesh(1.0, 40)
        assert len(nodes) == 41
        assert np.allclose(np.diff(nodes), 1.0 / 40)

    def test_span_refinement(self):
        spans = ((0.05, 0.1), (0.2, 0.3))
        nodes = graded_mesh(1.0, 20, spans)
        for a, b in spans:
            inside = np.sum((nodes[:-1] >= a - 1e-12) & (nodes[1:] <= b + 1e-12))
            assert inside >= 8

    def test_bad_span_rejected(self):
        with pytest.raises(DomainError):
            graded_mesh(1.0, 20, ((0.5, 1.5),))

    @pytest.mark.parametrize("length", [math.nan, math.inf])
    def test_non_finite_length_rejected(self, length):
        with pytest.raises(DomainError, match="length must be positive and finite"):
            graded_mesh(length, 20)
        with pytest.raises(DomainError, match="collar length must be positive and finite"):
            BaseGeometry(point_spectrum(), length)

    @pytest.mark.parametrize("length, n_elements", [("1.0", 10)])
    def test_length_that_is_not_a_real_number_refused(self, length, n_elements):
        # a string used to raise a TypeError from the comparison 0.0 < length
        with pytest.raises(DomainError, match="length must be positive and finite"):
            graded_mesh(length, n_elements)

    @pytest.mark.parametrize("collar_length", ["1.0"])
    def test_base_geometry_refuses_a_length_that_is_not_a_real_number(self, collar_length):
        with pytest.raises(DomainError, match="collar length must be positive and finite"):
            BaseGeometry(circle_spectrum(2.0 * math.pi, 2), collar_length)

    @given(
        length=st.floats(0.1, 10.0),
        n_elements=st.integers(1, 2000),
        cuts=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=6),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_segment_loop(self, length, n_elements, cuts, data):
        # spans may overlap, nest, share ends or repeat; an end may sit at 0 or L
        spans = tuple(
            span for span in ((min(a, b) * length, max(a, b) * length) for a, b in cuts)
            if span[0] < span[1]
        )
        spans += tuple(data.draw(st.sampled_from([(), spans[:1], ((0.0, length),)])))
        nodes = graded_mesh(length, n_elements, spans)
        assert nodes.tobytes() == segment_loop_mesh(length, n_elements, spans).tobytes()

    @given(
        length=st.floats(0.1, 10.0),
        n_elements=st.integers(1, 2000),
        ends=st.lists(st.integers(1, 499), min_size=2, max_size=6, unique=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetric_cuts_give_a_mesh_symmetric_by_index(self, length, n_elements, ends):
        # spans on the left half at thousandths of the length, and their
        # mirror images; a segment and its mirror image get one count even
        # where their lengths, rounded apart, would round to two
        ends = sorted(ends)
        spans = tuple((a * length / 1000, b * length / 1000) for a, b in zip(ends[::2], ends[1::2]))
        spans += tuple((length - b, length - a) for a, b in spans)
        nodes = graded_mesh(length, n_elements, spans)
        assert nodes.tobytes() == segment_loop_mesh(length, n_elements, spans).tobytes()
        assert np.abs(nodes + nodes[::-1] - length).max() <= 1e-12 * length

    def test_tied_mirror_segments_get_the_larger_count(self):
        # 260 elements on the cuts of the eps = 0.025 collar: [0.025, 0.05] holds
        # 6.5 elements' length and rounds to 6, its mirror image [0.95, 0.975]
        # to 7, as 260 * (0.975 - 0.95) = 6.50000000000000577
        spans = ((0.0125, 0.025), (0.05, 0.075), (0.925, 0.95), (0.975, 0.9875))
        nodes = graded_mesh(1.0, 260, spans)
        assert np.count_nonzero((nodes > 0.025) & (nodes < 0.05)) == 6
        assert np.count_nonzero((nodes > 0.95) & (nodes < 0.975)) == 6
        assert np.abs(nodes + nodes[::-1] - 1.0).max() <= 1e-12

    def test_half_of_symmetric_cuts_gives_each_ramp_the_whole_count(self):
        # n/2 elements on the left half of symmetric cuts, reflected, are
        # graded_mesh(L, n) up to rounding, but for the middle segment's nodes
        # where the whole count is odd and one element straddles the middle
        for eps in (0.1, 0.05, 0.025, 1e-2, 1e-3, 1e-4):
            spans = WarpProfile(eps, 2.0 / 3.0, 1.0, symmetric=True).transition_intervals()
            for n_elements in (300, 301, 302):
                half = graded_mesh(0.5, n_elements / 2.0, spans[:2])
                reflected = np.concatenate((half, 1.0 - half[-2::-1]))
                whole = graded_mesh(1.0, n_elements, spans)
                if len(whole) != len(reflected):
                    assert len(whole) % 2 == 0  # an odd element count
                    ramps = np.count_nonzero(half <= 3.0 * eps)  # the nodes before the middle
                    whole, reflected = (np.concatenate((x[:ramps], x[-ramps:]))
                                        for x in (whole, reflected))
                assert np.abs(whole - reflected).max() <= np.spacing(1.0), (eps, n_elements)


def segment_loop_mesh(length, n_elements, spans):
    """graded_mesh as a loop over the segments cut by the span ends: the reference."""
    breaks = sorted({0.0, length, *(x for span in spans for x in span)})
    segments = list(zip(breaks[:-1], breaks[1:]))
    counts = []
    for a, b in segments:
        seg = max(1, round(n_elements * (b - a) / length))
        if (a, b) in set(spans):
            seg = max(seg, MIN_ELEMENTS_PER_SPAN)
        counts.append(seg)
    if all(abs(x + y - length) <= 1e-12 * length for x, y in zip(breaks, reversed(breaks))):
        counts = [max(seg, mirror) for seg, mirror in zip(counts, reversed(counts))]
    pieces = [[0.0]]
    for (a, b), seg in zip(segments, counts):
        step = (b - a) / seg
        pieces += [a + np.arange(1, seg) * step, [b]]
    return np.concatenate(pieces)


class TestAssemble:
    def test_block_orders_and_kernel(self):
        p = uniform_problem(1.0, lambda t: 1.0, lambda t: 0.0, n_elements=100)
        system = assemble(p)
        assert system.n_boundary == 2
        assert system.n_interior == 99
        assert system.a_ib.shape == (99, 2)
        # constants lie in the kernel of the pure stiffness form
        ones_i = np.ones(99)
        ones_b = np.ones(2)
        ab = system.a_ii_banded  # the lower banded interior block: diagonal, subdiagonal
        full_energy = (
            ab[0] @ ones_i**2 + 2.0 * ab[1, :-1] @ (ones_i[:-1] * ones_i[1:])
            + 2.0 * ones_i @ (system.a_ib @ ones_b)
            + ones_b @ (system.a_bb @ ones_b)
        )
        assert abs(full_energy) <= 1e-10

    def test_weight_linearity(self):
        p1 = uniform_problem(1.0, lambda t: 1.0, lambda t: 0.0, n_elements=64)
        p2 = uniform_problem(1.0, lambda t: 2.0, lambda t: 0.0, n_elements=64)
        s1, s2 = assemble(p1), assemble(p2)
        assert np.allclose(s2.a_ii_banded, 2.0 * s1.a_ii_banded)
        assert np.allclose(s2.a_ib, 2.0 * s1.a_ib)
        assert np.allclose(s2.a_bb, 2.0 * s1.a_bb)

    def test_lumped_mass_totals_length(self):
        p = uniform_problem(1.0, lambda t: 1.0, lambda t: 1.0, n_elements=64)
        p0 = uniform_problem(1.0, lambda t: 1.0, lambda t: 0.0, n_elements=64)
        s, s0 = assemble(p), assemble(p0)
        mass = (
            np.sum(s.a_ii_banded[0] - s0.a_ii_banded[0])
            + np.trace(s.a_bb) - np.trace(s0.a_bb)
        )
        assert mass == pytest.approx(1.0, rel=1e-12)

    def test_too_coarse_mesh_rejected(self):
        with pytest.raises(DomainError):
            assemble(uniform_problem(1.0, lambda t: 1.0, lambda t: 0.0, n_elements=8))

    def test_unresolved_transition_rejected(self):
        p = SturmProblem(
            length=1.0,
            grad_weight=lambda t: 1.0,
            potential=lambda t: 0.0,
            left_bc=SteklovEnd(),
            right_bc=SteklovEnd(),
            nodes=graded_mesh(1.0, 20),
            transition_spans=((0.05, 0.1),),
        )
        with pytest.raises(MeshResolutionError, match="0.05"):
            assemble(p)

    @pytest.mark.parametrize(
        "length", [2.0, math.nan, math.inf, np.array([1.0, 2.0]), "1.0", None, True]
    )
    def test_mesh_must_span_the_length(self, length):
        with pytest.raises(DomainError, match=r"mesh must span exactly \[0, length\]"):
            SturmProblem(length, lambda t: 1.0, lambda t: 0.0, SteklovEnd(), SteklovEnd(),
                         graded_mesh(1.0, 32))

    @pytest.mark.parametrize("spoil", ["nan", "swapped"])
    def test_mesh_nodes_must_increase(self, spoil):
        # one check for the 1D problem and the oracle's grid, before any solve:
        # a NaN node gave the problem [nan, nan] and the grid a spectrum, with
        # no warning; a swapped pair made the ring elimination raise NumericError
        nodes = graded_mesh(1.0, 40)
        if spoil == "nan":
            nodes[5] = math.nan
        else:
            nodes[[5, 6]] = nodes[[6, 5]]
        with pytest.raises(DomainError, match="mesh nodes must be strictly increasing"):
            SturmProblem(1.0, lambda t: 1.0, lambda t: 1.0, SteklovEnd(), SteklovEnd(), nodes)
        with pytest.raises(DomainError, match="mesh nodes must be strictly increasing"):
            RevolutionGrid(nodes, 16, 1.0, 2.0 * math.pi, FunctionWarp(lambda t: 1.5, 1.0))

    @pytest.mark.parametrize("runs", [
        ((0, 10), (9, 10)),  # share element 9
        ((4, 8), (0, 5)),  # share element 4, declared out of order
        ((-1, 4),),
        ((30, 3),),  # elements 30-32 of 32
        ((5, 1),),
        ((5, 0),),
        ((5.0, 4),),
    ], ids=["shared-element", "shared-unsorted", "before-the-mesh", "past-the-mesh",
            "one-element", "empty", "float-start"])
    def test_malformed_runs_refused(self, runs):
        nodes = graded_mesh(1.0, 32)
        unit = FunctionWarp(lambda t: 1.0, 1.0, constant=True)
        # two runs that share only an end node are legal, on the ladder and on a grid
        SturmProblem(1.0, lambda t: 1.0, lambda t: 1.0, SteklovEnd(), SteklovEnd(), nodes,
                     runs=((0, 10), (10, 22)))
        RevolutionGrid(nodes, 16, 1.0, 2.0 * math.pi, unit, runs=((0, 10), (10, 22)))
        with pytest.raises(DomainError, match=r"run \("):
            SturmProblem(1.0, lambda t: 1.0, lambda t: 1.0, SteklovEnd(), SteklovEnd(), nodes,
                         runs=runs)
        with pytest.raises(DomainError, match=r"run \("):
            RevolutionGrid(nodes, 16, 1.0, 2.0 * math.pi, unit, runs=runs)

    @pytest.mark.parametrize("weight", [0.0, math.nan, math.inf])
    def test_steklov_weight_must_be_positive_and_finite(self, weight):
        # an infinite weight used to give sigma = 0, a NaN one NaN eigenvalues
        with pytest.raises(DomainError, match="weight must be positive and finite"):
            SteklovEnd(weight)

    def test_needs_one_steklov_end(self):
        with pytest.raises(DomainError):
            SturmProblem(
                length=1.0,
                grad_weight=lambda t: 1.0,
                potential=lambda t: 0.0,
                left_bc=NeumannEnd(),
                right_bc=NeumannEnd(),
                nodes=graded_mesh(1.0, 32),
            )


class TestDtnEigenvalues:
    def test_flat_interval(self):
        p = uniform_problem(1.0, lambda t: 1.0, lambda t: 0.0)
        assert dtn_eigenvalues(p) == pytest.approx([0.0, 2.0], abs=1e-4)

    def test_constant_potential_both_ends(self):
        p = uniform_problem(2.0, lambda t: 1.0, lambda t: 1.0)
        assert dtn_eigenvalues(p) == pytest.approx([TANH1, COTH1], abs=1e-4)

    def test_mixed_endpoint(self):
        p = uniform_problem(1.0, lambda t: 1.0, lambda t: 1.0, right=NeumannEnd())
        values = dtn_eigenvalues(p)
        assert len(values) == 1
        assert values[0] == pytest.approx(TANH1, abs=1e-4)

    def test_joint_scaling_of_w_and_q(self):
        base = uniform_problem(2.0, lambda t: 1.0, lambda t: 1.0)
        scaled = uniform_problem(2.0, lambda t: 3.0, lambda t: 3.0)
        assert dtn_eigenvalues(scaled) == pytest.approx(3.0 * dtn_eigenvalues(base),
                                                        rel=1e-12)

    def test_zero_mode_constant_eigenvector(self):
        p = uniform_problem(1.5, lambda t: 1.0, lambda t: 0.0)
        values = dtn_eigenvalues(p)
        assert values[0] == 0.0
        extension = minimizing_extension(p, np.array([1.0, 1.0]))
        assert np.abs(extension - 1.0).max() <= 1e-6

    def test_mesh_convergence_second_order(self):
        errors = []
        for n_el in (50, 100):
            p = uniform_problem(2.0, lambda t: 1.0, lambda t: 1.0, n_elements=n_el)
            values = dtn_eigenvalues(p)
            errors.append(max(abs(values[0] - TANH1), abs(values[1] - COTH1)))
        assert errors[0] / errors[1] >= 3.0

    def test_potential_monotonicity(self):
        previous = None
        for mu in (0.0, 0.5, 1.0, 2.0):
            p = uniform_problem(1.0, lambda t: 1.0, lambda t, mu=mu: mu)
            values = dtn_eigenvalues(p)
            if previous is not None:
                assert np.all(values >= previous - 1e-12)
            previous = values

    @pytest.mark.parametrize("lam, mu", [
        (-1.0, 0.0), (1.0, -3.0), (math.nan, 0.0), (1.0, math.nan), ([1.0, -1e-300], 0.0),
    ])
    def test_negative_or_nan_pair_rejected(self, lam, mu):
        # a negative shunt would give a wrong eigenvalue (sigma = -0.546 at
        # lambda = -1 on this problem) where a negative potential is refused
        p = uniform_problem(1.0, lambda t: 1.0, lambda t: 1.0, n_elements=64)
        with pytest.raises(DomainError, match="must be nonnegative"):
            dtn_eigenvalues(p, lam, mu)

    @pytest.mark.parametrize("lam, mu", [(math.inf, 0.0), (1.0, math.inf), ([1.0, math.inf], 0.0)])
    def test_infinite_pair_rejected(self, lam, mu):
        # an infinite shunt used to give NaN eigenvalues
        p = uniform_problem(1.0, lambda t: 1.0, lambda t: 1.0, n_elements=64)
        with pytest.raises(DomainError, match="must be nonnegative and finite"):
            dtn_eigenvalues(p, lam, mu)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coefficient_samples_rejected(self, bad):
        # NaN conductances used to give NaN eigenvalues, which no walk's cutoff stops
        def spoilt(t):
            return np.where(t > 0.5, bad, 1.0)

        with pytest.raises(DomainError, match="gradient weight must be positive and finite"):
            dtn_eigenvalues(uniform_problem(1.0, spoilt, lambda t: 1.0, n_elements=64))
        with pytest.raises(DomainError, match="potential must be nonnegative and finite"):
            dtn_eigenvalues(uniform_problem(1.0, lambda t: 1.0, spoilt, n_elements=64))


def plateau_problem(eps, mu, lam, steklov_ends="both", n_elements=400):
    """Mode (mu, lam) of the (n, k) = (2, 1) volume-preserving plateau warp, ends weighted 0.5, 2."""
    profile = WarpProfile(eps, 2.0 / 3.0, 1.0, symmetric=True)
    spans = profile.transition_intervals()

    w = power_fn(profile, 1.0)
    v = power_fn(profile, -2.0)

    def q(t):
        return mu * w(t) + lam * v(t)

    return SturmProblem(
        length=1.0,
        grad_weight=w,
        potential=q,
        left_bc=SteklovEnd(0.5) if steklov_ends in ("both", "left") else NeumannEnd(),
        right_bc=SteklovEnd(2.0) if steklov_ends in ("both", "right") else NeumannEnd(),
        nodes=graded_mesh(1.0, n_elements, spans),
        transition_spans=spans,
    )


class TestLadderReduction:
    """The two-port ladder reduction behind dtn_eigenvalues.

    Without potential the discrete solutions with constant boundary data are
    constant, so 0 is an exact eigenvalue; with both ends spectral the other
    one is G (1/b0 + 1/b1), G = 1 / sum(dt / w_mid) the series conductance.
    The partitioned matrix of `assemble` with its boundary Schur complement
    is the independent reference for every other mode.
    """

    @pytest.mark.parametrize("steklov_ends", ["both", "left", "right"])
    def test_known_zero_is_exact_on_small_epsilon_plateau(self, steklov_ends):
        p = plateau_problem(1e-4, 0.0, 0.0, steklov_ends)
        values = dtn_eigenvalues(p)
        assert values[0] == 0.0
        if steklov_ends == "both":
            mid = 0.5 * (p.nodes[:-1] + p.nodes[1:])
            w_mid = np.array([p.grad_weight(x) for x in mid])
            conductance = 1.0 / np.sum(np.diff(p.nodes) / w_mid)
            expected = conductance * (1.0 / 0.5 + 1.0 / 2.0)
            assert values[1] == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("steklov_ends", ["both", "left", "right"])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("mu", [0.0, 1.0, 16.0])
    def test_matches_schur_complement(self, mu, lam, steklov_ends):
        p = plateau_problem(0.05, mu, lam, steklov_ends)
        values = dtn_eigenvalues(p)
        system = assemble(p)
        reference = sym_eig(dtn_matrix(system))
        if mu == lam == 0.0:
            # the Schur complement cancels the end stiffness down to the zero
            # and keeps only its roundoff
            assert values[0] == 0.0
            assert abs(reference[0]) <= 1e-9 * system.a_bb.max()
            values, reference = values[1:], reference[1:]
        np.testing.assert_allclose(values, reference, rtol=1e-9, atol=0.0)

    def test_small_eigenvalue_keeps_relative_precision(self):
        # q = mu -> 0: the constant has energy mu * sum(lump) = mu L against
        # the boundary mass 2, so sigma_0 = mu L / 2 up to a relative O(mu),
        # far below sigma_1 ~ 2 / L; a trace-minus-sigma_max form loses it
        mu = 1e-12
        values = dtn_eigenvalues(uniform_problem(1.0, lambda t: 1.0, lambda t: mu))
        assert values[0] == pytest.approx(mu / 2.0, rel=1e-9, abs=0.0)

    def test_blocks_match_per_mode_solves(self):
        # top = 10 stops at the 17th mode, in the second block of modes
        profile = WarpProfile(0.05, 2.0 / 3.0, 1.0, symmetric=True)
        spans = profile.transition_intervals()
        geom = BaseGeometry(circle_spectrum(2 * math.pi, 4), 1.0, "both")
        lam, top = 1.0, 10.0

        w = power_fn(profile, 1.0)
        v = power_fn(profile, -2.0)
        # the whole collar's mesh, as discretize builds it for these (n, k) =
        # (2, 1) coefficients; one Steklov end keeps it from mirroring
        whole = WarpedMetricSpec(2, 1, profile, dataclasses.replace(geom, steklov_ends="left"),
                                 geom.cross_section, "volume_preserving")
        nodes = discretize(whole, 400).nodes

        spectrum = base_dtn_spectrum(
            geom, w, lam, v, top, n_elements=400, transition_spans=spans
        )
        tagged = []
        for j, (mu, mult) in enumerate(circle_spectrum(2 * math.pi, 100).entries):
            values = dtn_eigenvalues(
                SturmProblem(
                    length=1.0,
                    grad_weight=w,
                    potential=lambda t, mu=mu: mu * w(t) + lam * v(t),
                    left_bc=SteklovEnd(),
                    right_bc=SteklovEnd(),
                    nodes=nodes,
                    transition_spans=spans,
                )
            )
            if values[0] > top:
                break
            tagged += [
                (float(value), lam, mu, branch, 1, mult)
                for branch, value in enumerate(values)
                if value <= top
            ]
        expected = merge_tagged(tagged)
        assert j > 8
        assert [e.sources for e in spectrum.entries] == [e.sources for e in expected.entries]
        np.testing.assert_allclose(spectrum.values(), expected.values(), rtol=1e-12, atol=0.0)

    def test_explicit_stream_ending_after_the_stop_is_complete(self):
        # sqrt(400) tanh(sqrt(400)) = 20 > top: the walk stops inside the block
        geom = BaseGeometry(explicit_spectrum([(0.0, 1), (1.0, 2), (400.0, 2)]), 2.0, "both")
        spectrum = base_dtn_spectrum(
            geom, lambda t: 1.0, 0.0, lambda t: 1.0, top=5.0, n_elements=200
        )
        assert spectrum.total_multiplicity == 6
        assert spectrum.entries[0].value == 0.0


def generic_tree(cond, shunt):
    """The ladder reduction with every level, the first included, run as the general step.

    Each element starts as (0, c_e, 0) and neighbours merge by eliminating
    their shared node, as in _reduce_ladder's docstring.
    """
    rows = shunt.shape[0]
    y = np.broadcast_to(cond, (rows, len(cond)))
    g1 = np.zeros_like(y)
    g2 = np.zeros_like(y)
    junction = shunt[:, 1:-1]
    while y.shape[1] > 1:
        paired = y.shape[1] - y.shape[1] % 2
        ya, yb = y[:, 0:paired:2], y[:, 1:paired:2]
        m = g2[:, 0:paired:2] + junction[:, 0:paired:2] + g1[:, 1:paired:2]
        d = ya + yb + m
        share = m / d
        merged = (g1[:, 0:paired:2] + ya * share, ya * yb / d, g2[:, 1:paired:2] + yb * share)
        if paired < y.shape[1]:  # odd count: the last segment waits for the next level
            merged = tuple(
                np.concatenate((new, old[:, -1:]), axis=1)
                for new, old in zip(merged, (g1, y, g2))
            )
        g1, y, g2 = merged
        junction = junction[:, 1::2]
    return g1[:, 0], y[:, 0], g2[:, 0]


class TestFirstLadderLevel:
    """_reduce_ladder builds its first level from cond and the odd nodes' shunts.

    With g1 = g2 = 0 the general step gives m = s, g1 = y_A share and
    g2 = y_B share exactly, so the result must equal the generic tree bit
    for bit: on even and odd element counts, one to 64 rows, conductances
    and shunts over eight orders of magnitude, and shunts that are exactly
    zero (the mode-0 row of a problem without potential). A cond with one
    row per ladder must give each row what it gives alone.
    """

    @pytest.mark.parametrize("n_elements", [16, 17, 31, 400, 401])
    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize("zeros", ["none", "some", "all"])
    def test_equals_generic_tree(self, n_elements, rows, zeros):
        rng = np.random.default_rng(1000 * n_elements + rows)
        cond = 10.0 ** rng.uniform(-4.0, 4.0, n_elements)
        shunt = 10.0 ** rng.uniform(-4.0, 4.0, (rows, n_elements + 1))
        if zeros == "some":
            shunt[:, ::3] = 0.0
            shunt[0] = 0.0
        elif zeros == "all":
            shunt[:] = 0.0
        got = _reduce_ladder(cond, shunt)
        expected = generic_tree(cond, shunt)
        for g, e in zip(got, expected):
            assert g.shape == e.shape == (rows,)
            assert g.tobytes() == e.tobytes()
        if zeros != "none":  # no potential on row 0: g1 = g2 = 0 and y the series conductance
            assert got[0][0] == got[2][0] == 0.0
            assert got[1][0] == pytest.approx(1.0 / np.sum(1.0 / cond), rel=1e-12)

    @pytest.mark.parametrize("n_elements", [16, 17, 400, 401])
    def test_rows_with_their_own_cond_equal_each_row_alone(self, n_elements):
        # the grouped first steps of several problems stack their conductances by row
        rng = np.random.default_rng(n_elements)
        cond = 10.0 ** rng.uniform(-4.0, 4.0, (5, n_elements))
        shunt = 10.0 ** rng.uniform(-4.0, 4.0, (5, n_elements + 1))
        shunt[1] = 0.0
        got = _reduce_ladder(cond, shunt)
        for row in range(5):
            alone = _reduce_ladder(cond[row], shunt[row : row + 1])
            for g, a in zip(got, alone):
                assert g[row : row + 1].tobytes() == a.tobytes()
        # a shared 1-D cond gives the bytes of the same cond given to every row
        shared = _reduce_ladder(cond[0], shunt)
        stacked = _reduce_ladder(np.repeat(cond[:1], 5, axis=0), shunt)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(shared, stacked))


class TestModePairs:
    """dtn_eigenvalues(p, lambda, mu) reduces -(w a')' + (lambda q + mu w) a = 0.

    Each row of a broadcast call must equal, bit for bit, the call for its
    own pair, and that the single problem whose potential is the closure
    mu w + lambda q: the shunts are the same products in the same order.
    """

    LAMS = np.array([0.0, 0.5, 3.0])
    MUS = np.array([0.0, 1.0, 16.0])
    PROFILE = WarpProfile(0.05, 2.0 / 3.0, 1.0, symmetric=True)

    @classmethod
    def _family(cls, steklov_ends, potential=None):
        """The plateau problem of plateau_problem with q = h^-2, the fiber weight."""
        return dataclasses.replace(
            plateau_problem(0.05, 0.0, 0.0, steklov_ends),
            potential=potential or power_fn(cls.PROFILE, -2.0),
        )

    @pytest.mark.parametrize("steklov_ends", ["both", "left", "right"])
    def test_rows_equal_per_pair_calls(self, steklov_ends):
        p = self._family(steklov_ends)
        ends = 2 if steklov_ends == "both" else 1
        by_lam = dtn_eigenvalues(p, self.LAMS, 1.0)
        by_mu = dtn_eigenvalues(p, 0.5, self.MUS)
        grid = dtn_eigenvalues(p, self.LAMS[:, None], self.MUS[None, :])
        assert by_lam.shape == by_mu.shape == (3, ends)
        assert grid.shape == (3, 3, ends)
        for i, (lam, mu) in enumerate(zip(self.LAMS, self.MUS)):
            assert np.array_equal(by_lam[i], dtn_eigenvalues(p, lam, 1.0))
            assert np.array_equal(by_mu[i], dtn_eigenvalues(p, 0.5, mu))
            for j, mu_j in enumerate(self.MUS):
                assert np.array_equal(grid[i, j], dtn_eigenvalues(p, lam, mu_j))

    @pytest.mark.parametrize("steklov_ends", ["both", "left", "right"])
    def test_pairs_equal_single_problem_with_closure_potential(self, steklov_ends):
        family = self._family(steklov_ends)
        w, q = family.grad_weight, family.potential
        for lam in self.LAMS:
            for mu in self.MUS:

                def closure(t, lam=lam, mu=mu):
                    return mu * w(t) + lam * q(t)

                single = self._family(steklov_ends, closure)
                expected = dtn_eigenvalues(single)
                assert np.array_equal(dtn_eigenvalues(family, lam, mu), expected)
                assert np.array_equal(dtn_eigenvalues(single, 1.0, 0.0), expected)

    def test_gradient_weight_sampled_at_nodes_only_for_nonzero_mu(self):
        calls = []
        w = power_fn(self.PROFILE, 1.0)
        def counted(t):
            calls.append(t)
            return w(t)

        p = dataclasses.replace(self._family("both"), grad_weight=counted)
        dtn_eigenvalues(p, self.LAMS, 0.0)
        assert len(calls) == 1  # midpoints, for the conductances
        dtn_eigenvalues(p, 1.0, self.MUS)
        dtn_eigenvalues(p, 2.0, self.MUS)
        assert len(calls) == 2 and len(calls[1]) == len(p.nodes)

    @pytest.mark.parametrize("index,value", [(0, -1.0), (3, 0.0)])
    def test_gradient_weight_must_be_positive_at_the_nodes(self, index, value):
        nodes = graded_mesh(1.0, 16)

        def w(t):
            return np.where(t == nodes[index], value, 1.0)

        p = uniform_problem(1.0, w, lambda t: 1.0, n_elements=16)
        assert dtn_eigenvalues(p, 1.0, 0.0).size == 2  # every midpoint sees w = 1
        with pytest.raises(DomainError, match="gradient weight must be positive"):
            dtn_eigenvalues(p, 1.0, 1.0)


class TestBaseDtnSpectrum:
    def test_circle_cross_section_union(self):
        geom = BaseGeometry(circle_spectrum(2 * math.pi, 8), 2.0, "both")
        spectrum = base_dtn_spectrum(
            geom, lambda t: 1.0, 0.0, lambda t: 1.0, top=1.5, n_elements=200
        )
        values = [e.value for e in spectrum.entries]
        mults = [e.multiplicity for e in spectrum.entries]
        assert values == pytest.approx([0.0, TANH1, 1.0, COTH1], abs=1e-4)
        assert mults == [1, 2, 1, 2]

    def test_top_below_everything(self):
        geom = BaseGeometry(circle_spectrum(2 * math.pi, 8), 2.0, "both")
        spectrum = base_dtn_spectrum(
            geom, lambda t: 1.0, 0.0, lambda t: 1.0, top=1e-4, n_elements=200
        )
        assert [e.value for e in spectrum.entries] == pytest.approx([0.0], abs=1e-8)

    def test_fiber_term_matches_mode_term(self):
        # q = 0*w + 1*1 on the zero mode reproduces the mu = 1 closed form
        geom = BaseGeometry(point_spectrum(), 2.0, "both")
        spectrum = base_dtn_spectrum(
            geom, lambda t: 1.0, 1.0, lambda t: 1.0, top=1.5, n_elements=200
        )
        assert [e.value for e in spectrum.entries] == pytest.approx(
            [TANH1, COTH1], abs=1e-4
        )

    def test_close_eigenvalues_are_not_merged(self):
        # with lambda = 400 the tanh and coth values of the unit collar differ
        # by 8e-9 relative: two eigenvalues, each reported as computed
        geom = BaseGeometry(point_spectrum(), 1.0, "both")
        spectrum = base_dtn_spectrum(
            geom, lambda t: 1.0, 400.0, lambda t: 1.0, top=math.inf, n_elements=400
        )
        problem = uniform_problem(1.0, lambda t: 1.0, lambda t: 400.0, n_elements=400)
        expected = dtn_eigenvalues(problem)
        assert [(e.value, e.multiplicity) for e in spectrum.entries] == [
            (expected[0], 1),
            (expected[1], 1),
        ]
        assert expected[0] < expected[1]

    def test_explicit_cross_section_exhaustion(self):
        geom = BaseGeometry(explicit_spectrum([(0.0, 1), (1.0, 2)]), 2.0, "both")
        with pytest.raises(CompletenessError):
            base_dtn_spectrum(
                geom, lambda t: 1.0, 0.0, lambda t: 1.0, top=50.0, n_elements=200
            )

    def test_top_must_be_positive(self):
        geom = BaseGeometry(point_spectrum(), 1.0, "both")
        with pytest.raises(DomainError):
            base_dtn_spectrum(geom, lambda t: 1.0, 0.0, lambda t: 1.0, top=0.0)

    @pytest.mark.parametrize("complete", [True, False])
    def test_cross_section_ending_at_a_block_end(self, complete):
        # eight modes fill the first block exactly, so the next one is empty
        cross = explicit_spectrum([(float(j * j), 2 if j else 1) for j in range(8)], complete)
        geom = BaseGeometry(cross, 1.0, "both")
        if not complete:
            with pytest.raises(CompletenessError):
                base_dtn_spectrum(geom, lambda t: 1.0, 0.0, lambda t: 1.0, top=1e6)
            return
        spectrum = base_dtn_spectrum(geom, lambda t: 1.0, 0.0, lambda t: 1.0, top=1e6)
        assert spectrum.total_multiplicity == 2 * 15  # two branches per mode

    @pytest.mark.parametrize("fiber_eigenvalue", [-1.0, math.nan])
    def test_negative_or_nan_fiber_eigenvalue_rejected(self, fiber_eigenvalue):
        geom = BaseGeometry(point_spectrum(), 1.0, "both")
        with pytest.raises(DomainError, match="must be nonnegative"):
            base_dtn_spectrum(geom, lambda t: 1.0, fiber_eigenvalue, lambda t: 1.0, top=1.0)

    def test_nan_top_rejected(self):
        geom = BaseGeometry(point_spectrum(), 1.0, "both")
        with pytest.raises(DomainError):
            base_dtn_spectrum(geom, lambda t: 1.0, 0.0, lambda t: 1.0, top=math.nan)

    def test_infinite_top_rejected_on_a_circle_cross_section(self):
        # the circle's modes never end, so the mode walk would never stop
        geom = BaseGeometry(circle_spectrum(2 * math.pi, 8), 1.0, "both")
        with pytest.raises(DomainError, match="top = inf"):
            base_dtn_spectrum(geom, lambda t: 1.0, 0.0, lambda t: 1.0, top=math.inf)

    def test_profile_transitions_are_meshed(self):
        profile = WarpProfile(0.05, 0.7, 1.0, True)
        geom = BaseGeometry(point_spectrum(), 1.0, "both")
        spectrum = base_dtn_spectrum(
            geom,
            power_fn(profile, 1.0),
            0.0,
            power_fn(profile, -2.0),
            top=20.0,
            n_elements=64,
            transition_spans=profile.transition_intervals(),
        )
        assert spectrum.entries[0].value == pytest.approx(0.0, abs=1e-8)

    def test_lambda_monotonicity_on_sampled_grid(self):
        profile = WarpProfile(0.1, 0.75, 1.0, True)
        geom = BaseGeometry(circle_spectrum(2 * math.pi, 8), 1.0, "both")
        spans = profile.transition_intervals()
        w = power_fn(profile, 1.0)
        v = power_fn(profile, -2.0)
        previous = None
        for lam in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            spectrum = base_dtn_spectrum(
                geom, w, lam, v, top=30.0, n_elements=200, transition_spans=spans
            )
            first_six = spectrum.flatten()[:6]
            if previous is not None:
                assert np.all(first_six >= previous - 1e-9)
            previous = first_six


class TestMinimizingExtension:
    def test_linear_extension_on_interval(self):
        p = uniform_problem(1.0, lambda t: 1.0, lambda t: 0.0, n_elements=50)
        extension = minimizing_extension(p, np.array([0.0, 1.0]))
        assert np.allclose(extension, np.linspace(0.0, 1.0, 51), atol=1e-10)


class TestRayleighQuotient:
    def test_constant_is_zero_energy(self):
        p = uniform_problem(1.0, lambda t: 1.0, lambda t: 0.0)
        value = rayleigh_quotient(p, np.ones(len(p.nodes)))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_minimizer_attains_sigma0(self):
        p = uniform_problem(2.0, lambda t: 1.0, lambda t: 1.0)
        sigma0 = dtn_eigenvalues(p)[0]
        # even closed-form profile: boundary data (1, 1)
        extension = minimizing_extension(p, np.array([1.0, 1.0]))
        assert rayleigh_quotient(p, extension) >= sigma0 - 1e-9
        assert rayleigh_quotient(p, extension) == pytest.approx(sigma0, abs=1e-9)

    def test_random_samples_dominate_sigma0(self):
        p = uniform_problem(2.0, lambda t: 1.0, lambda t: 1.0)
        rng = np.random.default_rng(7)
        for _ in range(25):
            f = rng.standard_normal(len(p.nodes))
            if abs(f[0]) + abs(f[-1]) < 1e-9:
                continue
            assert rayleigh_quotient(p, f) >= TANH1 - 1e-6

    def test_vanishing_boundary_data_rejected(self):
        p = uniform_problem(1.0, lambda t: 1.0, lambda t: 1.0)
        f = np.ones(len(p.nodes))
        f[0] = 0.0
        f[-1] = 0.0
        with pytest.raises(DomainError):
            rayleigh_quotient(p, f)


class TestMirroredProblem:
    """A symmetric collar's left half, ending in a MirrorEnd, solves the whole collar.

    The whole-ladder helpers refuse the half.
    """

    @staticmethod
    def _collar(n_elements=64):
        # the left half [0, 1] of a collar of length 2
        return SturmProblem(1.0, lambda t: 1.0, lambda t: 1.0, SteklovEnd(), MirrorEnd(),
                            graded_mesh(1.0, n_elements / 2.0))

    @pytest.mark.parametrize("n_elements", [64, 65])
    def test_closed_form(self, n_elements):
        # -a'' + mu a = 0 on [0, 2]: sqrt(mu) tanh(sqrt(mu)) and sqrt(mu) coth(sqrt(mu))
        mirrored = self._collar(n_elements)
        assert mirrored.length == 1.0 and mirrored.nodes[-1] == 1.0
        assert mirrored.right_bc == MirrorEnd()
        half = mirrored.nodes
        whole = SturmProblem(2.0, lambda t: 1.0, lambda t: 1.0, SteklovEnd(), SteklovEnd(),
                             np.concatenate((half, 2.0 - half[-2::-1])))
        mu = np.array([0.0, 1.0, 4.0])
        got = dtn_eigenvalues(mirrored, 0.0, mu)
        assert got[0, 0] == 0.0
        np.testing.assert_allclose(got, dtn_eigenvalues(whole, 0.0, mu), rtol=1e-13)
        r = np.sqrt(mu[1:])
        assert got[1:, 0] == pytest.approx(r * np.tanh(r), rel=1e-3)
        assert got[1:, 1] == pytest.approx(r / np.tanh(r), rel=1e-3)

    def test_half_elements_count_twice_against_the_mesh_floor(self):
        # the half of 8 elements solves a collar of 16; a whole ladder of 8 is refused
        assert dtn_eigenvalues(self._collar(16), 0.0, 0.0)[0] == 0.0
        with pytest.raises(DomainError, match="at least 16 elements, got 14"):
            dtn_eigenvalues(self._collar(14))
        whole = SturmProblem(1.0, lambda t: 1.0, lambda t: 1.0, SteklovEnd(), SteklovEnd(),
                             graded_mesh(1.0, 8))
        with pytest.raises(DomainError, match="at least 16 elements, got 8"):
            dtn_eigenvalues(whole)

    def test_mirror_end_on_the_left_refused(self):
        with pytest.raises(DomainError, match="on the right only"):
            SturmProblem(1.0, lambda t: 1.0, lambda t: 1.0, MirrorEnd(), SteklovEnd(),
                         graded_mesh(1.0, 32))

    def test_not_a_constructor_argument(self):
        with pytest.raises(TypeError, match="mirror"):
            SturmProblem(2.0, lambda t: 1.0, lambda t: 1.0, SteklovEnd(), SteklovEnd(),
                         graded_mesh(2.0, 64), mirror=True)

    @pytest.mark.parametrize("helper", [
        lambda p: assemble(p),
        lambda p: minimizing_extension(p, np.array([1.0, 1.0])),
        lambda p: rayleigh_quotient(p, np.ones(len(p.nodes))),
    ], ids=["assemble", "minimizing_extension", "rayleigh_quotient"])
    def test_whole_ladder_helpers_refuse(self, helper):
        with pytest.raises(DomainError, match="mirrored collar"):
            helper(self._collar())


def reduced_uniform_ladder(c, s, m):
    """(g1, y, g2) of m elements of conductance c with interior shunts s, one row per s.

    The explicit ladder, reduced by _reduce_ladder in np.longdouble.
    """
    cond = np.full(m, np.longdouble(c))
    shunt = np.zeros((len(s), m + 1), np.longdouble)
    shunt[:, 1:-1] = np.asarray(s, np.longdouble)[:, None]
    return _reduce_ladder(cond, shunt)


class TestRunPiNetwork:
    """_run_pi, the closed-form pi-network of a uniform run, against the explicit ladder.

    The reference is the ladder of m elements itself, reduced in
    np.longdouble. The end admittances g + y (far end grounded) and
    g + y g / (y + g) (far end open) must lie within END_RTOL of it, a
    bound fixed from the roundoff of the closed form's dozen operations
    before it was written. g and y are never negative, and a run without
    shunts gives g = 0 and y = c / m exactly. Warnings are errors in the
    suite, so no term may overflow or divide zero by zero.
    """

    END_RTOL = 1e-14
    RATIOS = np.array([0.0, 1e-300, 1e-20, 1e-8, 1.0, 1e4, 1e8])  # s / c

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 64, 149, 1_000, 100_000])
    def test_matches_the_reduced_ladder(self, m):
        c = np.array([1e-3, 1.0, 7e5])
        s = self.RATIOS[:, None] * c
        g, y = _run_pi(s, _run_terms(c, np.full(3, float(m))))
        assert (g >= 0.0).all() and (y >= 0.0).all()
        assert (g[0] == 0.0).all() and (y[0] == c / m).all()
        for j, cj in enumerate(c):
            ref_g1, ref_y, ref_g2 = reduced_uniform_ladder(cj, s[:, j], m)
            some = self.RATIOS > 0.0  # without shunts the open end admittance is 0 on both sides
            open_end = g[some, j] + y[some, j] * g[some, j] / (y[some, j] + g[some, j])
            for near, far in ((ref_g1, ref_g2), (ref_g2, ref_g1)):  # seen from either end
                grounded = near + ref_y
                assert np.all(np.abs(g[:, j] + y[:, j] - grounded) <= self.END_RTOL * grounded)
                ref_open = (near + ref_y * far / (ref_y + far))[some]
                assert np.all(np.abs(open_end - ref_open) <= self.END_RTOL * ref_open)


# (n, k, delta) of the warps whose sweeps the fold is checked on
FOLD_FAMILIES = [(1, 1, 0.6), (2, 1, 2.0 / 3.0), (3, 2, 0.8)]


class TestFold:
    """A folded reduction against _reduce_ladder on the same problem's unfolded arrays.

    Each declared run is replaced by its exact pi-network, with elements of
    its segment's step; the run's own lengths differ from it only by the
    rounding of its nodes, and their sum is the run's length, so each row
    moves by far less than 1e-12. The rows are the first 8 fibers times the
    first 8 cross-section modes of the sweep's volume-preserving metrics, at
    every decade of epsilon from 1e-1 to 1e-14, on the 400-element collar
    that discretize builds.
    """

    @staticmethod
    def _spec(n, k, delta, eps, steklov_ends):
        closed = (flat_torus_spectrum(2.0 * math.pi, 2.0 * math.pi, 4) if k == 2
                  else circle_spectrum(2.0 * math.pi, 4))
        cross = point_spectrum() if n == 1 else closed
        return WarpedMetricSpec(n, k, WarpProfile(eps, delta, 1.0, symmetric=True),
                                BaseGeometry(cross, 1.0, steklov_ends), closed,
                                "volume_preserving")

    @staticmethod
    def _rows(spec):
        """(lam, mu) of the first 8 fibers times the first 8 cross-section modes."""
        lam = np.repeat([value for value, _ in spec.fiber.take(0, 8)], 8)
        mu = np.tile(np.resize([value for value, _ in spec.base.cross_section.take(0, 8)], 8), 8)
        return lam, mu

    @staticmethod
    def _assert_folded_rows_match(p, lam, mu):
        """dtn_eigenvalues, checked within 1e-12 of the unfolded ladder 8 rows at a time."""
        folded = dtn_eigenvalues(p, lam, mu)
        for i in range(0, len(lam), 8):
            shunt = (np.multiply.outer(lam[i : i + 8], p.q_node)
                     + np.multiply.outer(mu[i : i + 8], p.w_node)) * p.lump
            whole = sturm._ladder_eigenvalues(p.cond, shunt, p.left_bc, p.right_bc)
            assert np.all(np.abs(folded[i : i + 8] - whole) <= 1e-12 * np.abs(whole))
        return folded

    @pytest.mark.parametrize("steklov_ends", ["both", "left", "right"])
    @pytest.mark.parametrize("n, k, delta", FOLD_FAMILIES)
    @pytest.mark.parametrize("eps", [10.0**-j for j in range(1, 15)])
    def test_rows_within_1e_12_of_the_unfolded_reduction(self, n, k, delta, eps, steklov_ends):
        spec = self._spec(n, k, delta, eps, steklov_ends)
        p = discretize(spec, 400)
        assert len(p.folded.runs) > 0
        rows = self._assert_folded_rows_match(p, *self._rows(spec))
        assert rows[0, 0] == 0.0  # mode (0, 0)

    def test_a_step_in_q_alone_ends_one_run_where_the_next_begins(self):
        # every element is uniform, and q steps at node 10 of 20: the
        # declared runs hold elements 0-9 and 10-19 and share node 10
        nodes = np.linspace(0.0, 1.0, 21)
        p = SturmProblem(1.0, lambda t: 1.0, lambda t: np.where(t < 0.5, 1.0, 2.0),
                         SteklovEnd(), SteklovEnd(), nodes, runs=((0, 10), (10, 10)))
        assert p.folded.runs.tolist() == [0, 1]
        rows = self._assert_folded_rows_match(p, np.array([0.0, 1.0, 10.0]), np.zeros(3))
        # at lambda = 0 the ladder is the series conductance 1 of its 20 elements
        assert rows[0, 0] == 0.0 and abs(rows[0, 1] - 2.0) <= 1e-14

    @pytest.mark.parametrize("steklov_ends", ["both", "left"])
    def test_a_fine_mesh_folds_each_plateau_segment_to_one_run(self, steklov_ends):
        # at 102 400 elements the nodes round the far plateau's element
        # lengths apart by up to 9e-12 relative; its run still folds whole,
        # as one column, and the near plateaus hold 1 element each
        eps = 1e-6
        spec = self._spec(2, 1, 0.6, eps, steklov_ends)
        p = discretize(spec, 102_400)
        # the far plateau runs from 3 eps to the middle, or to L - 3 eps
        end = 0.5 if steklov_ends == "both" else 1.0 - 3.0 * eps
        start, end = p.nodes.searchsorted([3.0 * eps, end])
        assert p.runs == ((start, end - start),)
        fold = p.folded
        assert len(fold.runs) == 1 and len(fold.cond) <= 64
        rows = self._assert_folded_rows_match(p, *self._rows(spec))
        assert rows[0, 0] == 0.0  # mode (0, 0)

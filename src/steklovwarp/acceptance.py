"""Acceptance gate: every shipped guarantee as an executable criterion.

Each criterion is a plain check that returns (passed, detail) on the path
production runs. run_all times every check from one table and prints one
pass/fail line per criterion, which is what the CLI `verify` subcommand and
the acceptance test module both consume. Expected values are closed forms
of the product cylinder (separation constants), never outputs of the
solvers under test; criterion 2 pairs the decomposition with the tensor-grid
oracle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sturm
from .assembler import _discretize, first_eigenvalues, metric_recipes, surface_spec
from .experiments import (
    ExperimentConfig,
    normalize_volume,
    ramp_phi_instance,
    run_kokarev_sweep,
    run_quasi_iso,
    run_sweep,
)
from .oracle import make_grid, revolution_spectrum
from .profiles import WarpedMetricSpec, WarpProfile, volume_element_ratio
from .spectra import TWO_PI, circle_spectrum, discrete_circle_spectrum, point_spectrum

# Default growth-sweep exponent. sigma1 grows like eps^-r with
# r = min(1 - 2 delta k/n, 2 delta - 1) (see lower_bound_C); the two rates
# are equal at the rate-optimal delta = n/(n + k), where r = (n - k)/(n + k).
# For n = 2, k = 1 that is delta = 2/3 and r = 1/3, the only family for
# which three epsilon halvings at desk scale at least double the gap.
DEFAULT_SWEEP_DELTA = 2.0 / 3.0
DEFAULT_SWEEP_EPSILONS = [0.1, 0.05, 0.025, 0.0125]


def default_sweep_config(mesh: int = 400) -> ExperimentConfig:
    return ExperimentConfig(
        experiment="sweep",
        n=2,
        k=1,
        fiber={"kind": "circle", "length": TWO_PI},
        cross_section={"kind": "circle", "length": TWO_PI},
        epsilon_list=list(DEFAULT_SWEEP_EPSILONS),
        delta=DEFAULT_SWEEP_DELTA,
        mesh=mesh,
    )


def default_kokarev_config(mesh: int = 400) -> ExperimentConfig:
    # n = k = 1 on [0, 1] with a circle fiber of length 2 pi, the config's defaults
    return ExperimentConfig(
        experiment="kokarev",
        epsilon_list=list(DEFAULT_SWEEP_EPSILONS),
        delta=DEFAULT_SWEEP_DELTA,
        mesh=mesh,
    )


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index}: {self.name} ({self.seconds:.1f}s) {self.detail}"


def _timed(
    index: int, name: str, check: Callable[[], tuple[bool, str]], limit_s: float = math.inf
) -> CriterionResult:
    """Run one check of run_all's table; one that raises, or runs limit_s or longer, fails."""
    started = time.perf_counter()
    try:
        passed, detail = check()
    except Exception as exc:  # a crash is a failure, not an abort of the gate
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    if seconds >= limit_s:
        passed, detail = False, f"{detail}; runtime {seconds:.1f}s exceeded {limit_s:g}s"
    return CriterionResult(index, name, passed, detail, seconds)


def cylinder_closed_spectrum(
    length: float, fiber_length: float, steklov_ends: str, count: int
) -> np.ndarray:
    """Closed-form Steklov eigenvalues of the flat cylinder, with multiplicity.

    Independent oracle: fiber mode with eigenvalue lam contributes
    sqrt(lam) tanh(sqrt(lam) L/2) and sqrt(lam) coth(sqrt(lam) L/2) (both
    boundary circles spectral) or sqrt(lam) tanh(sqrt(lam) L) (one circle
    spectral), each with the fiber multiplicity 2; the constant fiber mode
    contributes 0 and 2/L, or just 0 in the mixed case.
    """
    both = steklov_ends == "both"
    values = [0.0] + ([2.0 / length] if both else [])
    j = 1
    while len(values) < count + 4:
        root = TWO_PI * j / fiber_length
        if both:
            values += [root * math.tanh(root * length / 2.0)] * 2
            values += [root / math.tanh(root * length / 2.0)] * 2
        else:
            values += [root * math.tanh(root * length)] * 2
        j += 1
    return np.sort(np.array(values))[:count]


def _unit_cylinder(
    steklov_ends: str, length: float, count: int, mesh: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first `count` eigenvalues of the unit-warp cylinder and their closed forms."""
    spec = surface_spec(lambda t: 1.0, length, TWO_PI, steklov_ends, "plain_warp")
    computed, _ = first_eigenvalues(spec, count, n_elements=mesh)
    return computed, cylinder_closed_spectrum(length, TWO_PI, steklov_ends, count)


def _max_rel_dev(computed: np.ndarray, expected: np.ndarray) -> float:
    return float(np.max(np.abs(computed - expected) / np.maximum(np.abs(expected), 1.0)))


def criterion_1_cylinder_closed_form() -> tuple[bool, str]:
    dev = _max_rel_dev(*_unit_cylinder("both", 2.0, 9, 400))
    return dev <= 1e-3, f"max relative deviation {dev:.2e} over first 9 (tol 1e-3)"


def _paired_deviations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Relative deviations of two ascending lists paired in order, over the shorter.

    The floor of 1 compares near-zero values absolutely.
    """
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


def criterion_2_decomposition_vs_oracle() -> tuple[bool, str]:
    length = 1.0
    bump = lambda t: 1.0 + t * (length - t)
    # place the cutoff in a spectral gap past the 15th eigenvalue
    spec = surface_spec(bump, length, TWO_PI, "both", "plain_warp")
    _, spectrum = first_eigenvalues(spec, 16, n_elements=800)
    v = spectrum.flatten()
    gaps = np.flatnonzero(v[15:] > v[14:-1] * 1.05) + 14
    if not gaps.size:
        return False, "no spectral gap found past the 15th eigenvalue"
    top = math.sqrt(v[gaps[0]] * v[gaps[0] + 1])
    # the spectrum is complete below its last cutoff, and top lies below a
    # later entry, so it holds every assembled eigenvalue below top
    assembled = v[v <= top]
    grid = make_grid(length, TWO_PI, bump, n_axial=256, n_theta=64)
    whole = revolution_spectrum(grid)
    direct = whole[whole <= top]
    tol = 1e-2
    dev = _paired_deviations(direct, assembled)
    n = len(dev)
    a, b = direct[:n], assembled[:n]
    max_dev = float(dev.max(initial=0.0))
    matched = len(direct) == len(assembled) and max_dev <= tol
    detail = (
        f"{'pass' if matched else 'FAIL'}: {len(direct)} oracle vs {len(assembled)} "
        f"assembler eigenvalues <= {top:.6g}, max relative deviation {max_dev:.3e} "
        f"(tol {tol:.1e})"
    )
    if max_dev > tol:
        i = int(np.argmax(dev > tol))
        detail += f"; first mismatch: index {i}: oracle {a[i]:.8g} vs assembler {b[i]:.8g}"
    elif len(direct) != len(assembled):
        side, extra = ("oracle", direct) if len(direct) > n else ("assembler", assembled)
        detail += (f"; first mismatch: count mismatch at index {n}: "
                   f"unmatched {side} value {extra[n]:.8g}")
    # on the grid's own discretization, its discrete circle as the fiber and
    # its axial nodes, the decomposition gives the whole grid spectrum up to roundoff
    recipes = metric_recipes(spec)
    problem = sturm.collar_problem(
        spec.base, recipes.grad_weight, recipes.inv_sq_weight, nodes=grid.axial_nodes,
        boundary_weights=recipes.boundary_weights, transition_spans=recipes.spans,
    )
    fiber = discrete_circle_spectrum(TWO_PI, grid.n_theta)
    same = sturm.walk_below(problem, fiber, spec.base.cross_section, math.inf, {}).flatten()
    same_tol = 1e-9
    same_dev = float(_paired_deviations(whole, same).max(initial=0.0))
    same_matched = len(whole) == len(same) and same_dev <= same_tol
    detail += (
        f"; same grid {'pass' if same_matched else 'FAIL'}: {len(whole)} oracle vs "
        f"{len(same)} assembler eigenvalues, max relative deviation {same_dev:.3e} "
        f"(tol {same_tol:.1e})"
    )
    return matched and len(direct) >= 15 and same_matched, detail


def criterion_3_mixed_closed_form() -> tuple[bool, str]:
    dev = _max_rel_dev(*_unit_cylinder("left", 1.0, 6, 400))
    return dev <= 1e-3, f"max relative deviation {dev:.2e} over first 6 (tol 1e-3)"


def criterion_4_lambda_monotonicity() -> tuple[bool, str]:
    # each symmetric profile's (n, k) = (2, 1) ladder on the mirrored half production solves
    lambdas = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    profiles = [
        WarpProfile(0.10, 0.75, 1.0, True),
        WarpProfile(0.05, 0.60, 1.0, True),
        WarpProfile(0.08, 0.90, 1.0, True),
    ]
    worst = 0.0
    for profile in profiles:
        spec = WarpedMetricSpec(2, 1, profile, sturm.BaseGeometry(point_spectrum(), 1.0, "both"),
                                circle_spectrum(TWO_PI, 2), "volume_preserving")
        sigma0 = sturm.dtn_eigenvalues(_discretize(spec, 400), lambdas)[:, 0]
        worst = max(worst, float(np.max(sigma0[:-1] - sigma0[1:])))
    return worst <= 1e-9, f"worst decrease {worst:.2e} (allowed 1e-9)"


def criterion_5_volume_element() -> tuple[bool, str]:
    worst = 0.0
    for eps in DEFAULT_SWEEP_EPSILONS:
        profile = WarpProfile(eps, DEFAULT_SWEEP_DELTA, 1.0, True)
        spec = WarpedMetricSpec(
            base_dim=2,
            fiber_dim=1,
            warp=profile,
            base=sturm.BaseGeometry(circle_spectrum(TWO_PI, 4), 1.0, "both"),
            fiber=circle_spectrum(TWO_PI, 4),
            mode="volume_preserving",
        )
        ratio = volume_element_ratio(spec, np.linspace(0.0, 1.0, 1000))
        worst = max(worst, float(np.abs(ratio - 1.0).max()))
        near = np.linspace(0.0, eps / 2.0, 64)
        off = near[profile.log_eval(near) != 0.0]
        if off.size:
            return False, f"h not bit-exactly 1 at t={off[0]} for eps={eps}"
    return worst <= 1e-12, f"max |ratio - 1| = {worst:.2e} at 1000 points per profile"


def criterion_6_growth_sweep(mesh: int = 400) -> tuple[bool, str]:
    rows = run_sweep(default_sweep_config(mesh))
    sigmas = [r.sigma1 for r in rows]
    increasing = all(b > a for a, b in zip(sigmas, sigmas[1:]))
    ratio = sigmas[-1] / sigmas[0]
    positive = all(s > 0.0 for s in sigmas)
    detail = (
        f"sigma1 = {', '.join(f'{s:.4f}' for s in sigmas)}; "
        f"ratio {ratio:.3f} (need >= 2), strictly increasing: {increasing}"
    )
    return increasing and ratio >= 2.0 and positive, detail


def criterion_7_kokarev_dimension_necessity(mesh: int = 400) -> tuple[bool, str]:
    rows = run_kokarev_sweep(default_kokarev_config(mesh))
    worst = max(r.product for r in rows)
    bound = rows[0].bound
    all_pass = all(r.passed for r in rows)
    return all_pass, (
        f"max sigma1 * L(boundary) = {worst:.4f} <= 8 pi = {bound:.4f} "
        f"over {len(rows)} epsilons"
    )


def criterion_8_quasi_isometry(seed: int = 0) -> tuple[bool, str]:
    cfg = ExperimentConfig(experiment="quasi_iso", seed=seed, pairs=20, k_max=5, mesh=300)
    results = run_quasi_iso(cfg)
    failures = [f"pair {i}: {r.first_violation}" for i, r in enumerate(results) if not r.passed]
    # the pair with the smallest bound is the one the check constrains most
    tight = min(range(len(results)), key=lambda i: results[i].ratio_bound)
    return not failures, (
        (f"{cfg.pairs} random pairs within C^5 bounds" if not failures
         else "; ".join(failures[:3]))
        + f"; smallest bound {results[tight].ratio_bound:.4g} (pair {tight}), "
        f"its largest ratio {results[tight].max_ratio:.4g}"
    )


def criterion_9_volume_normalization() -> tuple[bool, str]:
    ones, w, _ = ramp_phi_instance(128, 0.25)  # trapezoid weights of total 1
    # closed form: total weight 1, phi = 1, dim 2 gives volume e^c, so
    # the target e^2 must be matched by c = 2 exactly
    c, _ = normalize_volume(ones, w, np.ones(128), dim=2, target=math.e**2)
    err_closed = abs(c - 2.0)
    integrand, weights, phi = ramp_phi_instance(512, 0.25)
    base = float(np.sum(integrand * weights))
    target = 1.5 * base
    c2, _ = normalize_volume(integrand, weights, phi, dim=4, target=target)
    achieved = float(np.sum(integrand * weights * np.exp(c2 * 4 * phi / 2.0)))
    residual = abs(achieved - target) / target
    ok = err_closed <= 1e-12 and residual <= 1e-12
    return ok, f"closed-form |c - 2| = {err_closed:.2e}; sampled-phi residual {residual:.2e}"


def criterion_10_convergence_order() -> tuple[bool, str]:
    ratios = []
    for steklov_ends, length, count in (("both", 2.0, 9), ("left", 1.0, 6)):
        errs = []
        for n_el in (100, 200):
            computed, expected = _unit_cylinder(steklov_ends, length, count, n_el)
            keep = ~np.isin(expected, (0.0, 2.0 / length))  # linear modes are exact
            errs.append(float(np.max(np.abs(computed[keep] - expected[keep]) / expected[keep])))
        ratios.append(errs[0] / errs[1])
    ok = all(r >= 3.0 for r in ratios)
    return ok, f"halving ratios {', '.join(f'{r:.2f}' for r in ratios)} (need >= 3)"


def run_all(seed: int = 0, mesh: int = 400, printer=print) -> list[CriterionResult]:
    """Run every acceptance criterion, printing one line per criterion.

    The table is built per call, so each criterion is looked up when the gate
    runs. Only criteria 6 and 7 read `mesh`; the others fix their own meshes,
    and criterion 8 reads `seed`.
    """
    inf = math.inf
    table = [
        ("cylinder closed form", criterion_1_cylinder_closed_form, 5.0),
        ("decomposition theorem vs direct oracle", criterion_2_decomposition_vs_oracle, 60.0),
        ("mixed Steklov-Neumann closed form", criterion_3_mixed_closed_form, inf),
        ("sigma0 nondecreasing in the fiber eigenvalue", criterion_4_lambda_monotonicity, inf),
        ("volume element preserved and boundary metric fixed", criterion_5_volume_element, inf),
        ("growth of the spectral gap under the default sweep",
         lambda: criterion_6_growth_sweep(mesh), 600.0),
        ("surface sweeps stay below the Kokarev bound",
         lambda: criterion_7_kokarev_dimension_necessity(mesh), inf),
        ("quasi-isometric eigenvalue ratio bounds", lambda: criterion_8_quasi_isometry(seed), inf),
        ("volume normalization exponent recovery", criterion_9_volume_normalization, inf),
        ("second-order mesh convergence", criterion_10_convergence_order, inf),
    ]
    results = []
    for index, (name, check, limit_s) in enumerate(table, 1):
        results.append(_timed(index, name, check, limit_s))
        printer(results[-1].line())
    return results

"""Experiment drivers: the metric coefficient ratio of the quasi-isometry check, the
Kokarev bound check, the volume solve, and config fields."""

import dataclasses
import math

import numpy as np
import pytest

from steklovwarp import (
    BaseGeometry,
    Sigma1Result,
    WarpedMetricSpec,
    WarpProfile,
    circle_spectrum,
    point_spectrum,
)
from steklovwarp import experiments, sturm
from steklovwarp.errors import ConfigError, DomainError, InfeasibleError, NumericError
from steklovwarp.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    _RATIO_SAMPLES,
    config_from_dict,
    metric_coefficient_ratio,
    normalize_volume,
    quasi_iso_check,
    ramp_phi_instance,
    random_profile_pairs,
    run_kokarev_sweep,
    run_quasi_iso,
)
from steklovwarp.profiles import power_fn


def spec_for(warp, mode, n=1, k=1):
    return WarpedMetricSpec(
        base_dim=n,
        fiber_dim=k,
        warp=warp,
        base=BaseGeometry(point_spectrum(), 1.0, "both"),
        fiber=circle_spectrum(2.0 * math.pi, 4),
        mode=mode,
    )


def pointwise_ratio(spec1, spec2, samples):
    """Largest ratio a/b or b/a of each coefficient h^p, one point at a time."""
    n, k = spec1.base_dim, spec1.fiber_dim
    axial_pow = -2.0 * k / n if spec1.mode == "volume_preserving" else 0.0
    ratio = 1.0
    for p in (axial_pow, 2.0):
        if p == 0.0:
            continue
        f1, f2 = power_fn(spec1.warp, p), power_fn(spec2.warp, p)
        for t in np.linspace(0.0, spec1.base.collar_length, samples):
            a, b = f1(float(t)), f2(float(t))
            ratio = max(ratio, a / b, b / a)
    return ratio


PLATEAU_A = WarpProfile(0.10, 0.75, 1.0, symmetric=True)
PLATEAU_B = WarpProfile(0.13, 0.60, 1.0, symmetric=True)


def bump(t):
    return 1.0 + 2.0 * t * (1.0 - t)


@pytest.mark.parametrize(
    "mode,n,k",
    [("volume_preserving", 2, 1), ("volume_preserving", 1, 3), ("plain_warp", 2, 1)],
)
@pytest.mark.parametrize(
    "warps",
    [(PLATEAU_A, PLATEAU_B), (PLATEAU_A, bump), (bump, lambda t: 1.0)],
    ids=["plateaus", "plateau-bump", "bump-unit"],
)
def test_matches_pointwise_ratio(mode, n, k, warps):
    # 2k/n = 6 > 2 at (n, k) = (1, 3), so the base coefficient sets the ratio there
    spec1, spec2 = (spec_for(w, mode, n, k) for w in warps)
    expected = pointwise_ratio(spec1, spec2, _RATIO_SAMPLES)
    assert metric_coefficient_ratio(spec1, spec2) == pytest.approx(expected, rel=1e-12)


def test_identical_warps_give_one():
    spec = spec_for(PLATEAU_A, "volume_preserving", 2, 1)
    assert metric_coefficient_ratio(spec, spec) == 1.0


def test_kokarev_bound_allows_only_its_slack(monkeypatch):
    # one Steklov circle of length 1 where h = 1, so sigma1 * L(boundary) is sigma1 itself
    cfg = ExperimentConfig(
        experiment="kokarev", epsilon_list=[0.1], delta=0.6, steklov_ends="left",
        fiber={"kind": "circle", "length": 1.0},
    )
    bound = 8.0 * math.pi  # 8 pi (genus + 1) at the annulus's genus 0
    edge = bound * (1.0 + 1e-6)
    for sigma1, passed in ((edge, True), (math.nextafter(edge, math.inf), False)):
        stub = Sigma1Result(sigma1, "lambda0", sigma1, sigma1, 400)
        monkeypatch.setattr(experiments, "sigma1_construction", lambda spec, n_elements: stub)
        (row,) = run_kokarev_sweep(cfg)
        assert (row.boundary_length, row.product, row.bound) == (1.0, sigma1, bound)
        assert row.passed is passed


def test_quasi_iso_check_compares_at_least_one_eigenvalue(monkeypatch):
    # every reduction, a walk's or a grouped first step, is a _ladder_eigenvalues call
    solves = []
    monkeypatch.setattr(sturm, "_ladder_eigenvalues", lambda *a, **kw: solves.append(a))
    spec = spec_for(PLATEAU_A, "volume_preserving", 2, 1)
    with pytest.raises(DomainError, match="k_max must be at least 1"):
        quasi_iso_check(spec, spec, k_max=0)
    assert solves == []


@pytest.mark.parametrize("n, k, power", [(2, 1, 7), (1, 1, 5)])
def test_ratio_bound_is_C_to_twice_the_dimension_plus_one(n, k, power):
    # the warped product of an n-dimensional base and a k-dimensional fiber has m = n + k
    spec1, spec2 = (spec_for(w, "volume_preserving", n, k) for w in (PLATEAU_A, PLATEAU_B))
    result = quasi_iso_check(spec1, spec2, k_max=2, n_elements=100)
    assert result.ratio_bound == result.coefficient_ratio**power


def test_bound_past_the_largest_float_is_inf_and_passes():
    # C = 1.58e49 and m = 4: C^9 ~ 6e445 would overflow the float power
    spec1, spec2 = (spec_for(WarpProfile(eps, 0.6, 1.0, symmetric=True), "volume_preserving", 3, 1)
                    for eps in (1e-12, 0.1))
    result = quasi_iso_check(spec1, spec2, k_max=2, n_elements=100)
    assert result.coefficient_ratio == pytest.approx(1.58e49, rel=1e-2)
    assert result.ratio_bound == math.inf
    assert result.passed and result.first_violation is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ratio_past_the_largest_float_is_inf():
    # ln h apart by about 740: exp(2 * 740) overflowed, with a warning, before the solve's check
    spec1, spec2 = (spec_for(WarpProfile(eps, 0.6, 1.0, symmetric=True), "volume_preserving", 3, 1)
                    for eps in (1e-160, 0.1))
    assert metric_coefficient_ratio(spec1, spec2) == math.inf
    with pytest.raises(NumericError, match=r"a conductance w/dt reaches 2\^512"):
        quasi_iso_check(spec1, spec2, k_max=2)


@pytest.mark.parametrize("seed", range(5))
def test_run_quasi_iso_equals_the_check_of_each_pair(seed):
    # the pairs' specs are solved in one call, 200 of them in several chunks
    cfg = ExperimentConfig(experiment="quasi_iso", seed=seed, pairs=100)
    expected = [quasi_iso_check(spec1, spec2, cfg.k_max, n_elements=cfg.mesh)
                for spec1, spec2 in random_profile_pairs(cfg)]
    assert run_quasi_iso(cfg) == expected


def ramp_cases(count, seed):
    """Seeded ramp instances with a target from just above the floor to 1e300 times the total."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        samples, dim = int(rng.integers(2, 3001)), int(rng.integers(1, 12))
        integrand, weights, phi = ramp_phi_instance(samples, float(rng.uniform(0.05, 0.95)))
        dv = integrand * weights
        floor, total = float(dv[phi == 0.0].sum()), float(dv.sum())
        if rng.uniform() < 0.5:
            target = floor * (1.0 + 10.0 ** rng.uniform(-14.0, 0.0))
        else:
            target = total * 10.0 ** rng.uniform(0.0, 300.0)
        yield integrand, weights, phi, dim, target


def test_volume_solve_meets_each_target():
    # pyproject turns a RuntimeWarning, such as an overflow in exp, into an error
    for integrand, weights, phi, dim, target in ramp_cases(300, seed=18):
        c, volume = normalize_volume(integrand, weights, phi, dim, target)
        direct = float(np.sum(integrand * weights * np.exp(c * dim * phi / 2.0)))
        assert volume == pytest.approx(target, rel=1e-12)
        assert direct == pytest.approx(target, rel=1e-12)


@pytest.mark.parametrize("dim", [9, 2])
def test_volume_solve_reaches_a_target_of_1e300(dim):
    # a bracket on c that doubled past |c| = 1000 overflowed exp at dim 9 and gave up at dim 2
    integrand, weights, phi = ramp_phi_instance(512, 0.25)
    c, volume = normalize_volume(integrand, weights, phi, dim, 1e300)
    assert volume == pytest.approx(1e300, rel=1e-12)


def test_volume_solve_refuses_targets_no_c_reaches():
    integrand, weights, phi = ramp_phi_instance(64, 0.25)
    floor = float(np.sum((integrand * weights)[phi == 0.0]))
    for target in (floor, 0.5 * floor):
        with pytest.raises(InfeasibleError, match="at or below the phi=0 floor"):
            normalize_volume(integrand, weights, phi, 2, target)
    with pytest.raises(InfeasibleError, match="phi vanishes everywhere"):
        normalize_volume(integrand, weights, np.zeros_like(phi), 2, 2.0)
    # at phi = 1e-320 the volume reaches 3 only at a c beyond the float range
    with pytest.raises(NumericError, match="no finite c reaches the target"):
        normalize_volume(np.ones(2), np.ones(2), np.array([0.0, 1e-320]), 1, 3.0)


def test_volume_instance_refuses_values_without_a_meaning():
    # one sample has no trapezoid step; at dim 0 the volume does not depend on c
    with pytest.raises(DomainError, match="samples must be at least 2"):
        ramp_phi_instance(1, 0.25)
    integrand, weights, phi = ramp_phi_instance(2, 0.25)
    with pytest.raises(DomainError, match="dim must be at least 1"):
        normalize_volume(integrand, weights, phi, 0, 1.5)


@pytest.mark.parametrize("field, value", [("samples", 64), ("collar_fraction", 0.5)])
@pytest.mark.parametrize("experiment", ["quasi_iso", "spectrum", "verify"])
def test_normalize_volume_fields_rejected_elsewhere(experiment, field, value):
    # normalize_volume is their only reader; anywhere else they would be ignored
    raw = {"experiment": experiment, "top": 2.0, field: value}
    with pytest.raises(ConfigError, match=f"{field}: read only by experiment 'normalize_volume'"):
        config_from_dict(raw)


def test_normalize_volume_reads_its_fields():
    cfg = config_from_dict({
        "experiment": "normalize_volume", "target": 2.0, "dim": 2,
        "samples": 64, "collar_fraction": 0.5,
    })
    assert (cfg.samples, cfg.collar_fraction) == (64, 0.5)


@pytest.mark.parametrize("fields", [
    {"experiment": "spectrum", "top": 2.0, "mesh": 2**20},
    {"experiment": "oracle", "count": 4, "mesh": 2**20, "n_theta": 2**12},
    {"experiment": "normalize_volume", "target": 2.0, "dim": 2, "samples": 2**24},
])
def test_largest_accepted_sizes(fields):
    cfg = config_from_dict(fields)
    assert all(getattr(cfg, name) == value for name, value in fields.items())


def reads(experiment):
    """(required, optional) fields that the config table says `experiment` reads."""
    rows = [f for f in dataclasses.fields(ExperimentConfig)
            if experiment in f.metadata.get("readers", ())]
    return (tuple(f.name for f in rows if f.metadata["required"]),
            tuple(f.name for f in rows if not f.metadata["required"]))


REQUIRED_VALUES = {
    "top": 2.0, "count": 4, "epsilon_list": [0.1, 0.01], "delta": 0.6, "target": 2.0, "dim": 2,
}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_each_read_field_accepted(experiment):
    required, optional = reads(experiment)
    defaults = ExperimentConfig(experiment="verify")
    base = {"experiment": experiment, **{name: REQUIRED_VALUES[name] for name in required}}
    for name in optional:
        value = base.get(name, getattr(defaults, name))
        cfg = config_from_dict({**base, name: value})
        assert getattr(cfg, name) == value


@pytest.mark.parametrize("field, value, reader", [
    ("n_theta", 32, "oracle"), ("pairs", 3, "quasi_iso"), ("k_max", 4, "quasi_iso"),
])
def test_experiment_specific_field_rejected_elsewhere(field, value, reader):
    for experiment in sorted(set(EXPERIMENTS) - {reader}):
        required, _ = reads(experiment)
        raw = {"experiment": experiment, field: value,
               **{name: REQUIRED_VALUES[name] for name in required}}
        with pytest.raises(ConfigError, match=f"{field}: read only by experiment '{reader}', "
                           f"not '{experiment}'"):
            config_from_dict(raw)
    required, _ = reads(reader)
    raw = {"experiment": reader, field: value, **{n: REQUIRED_VALUES[n] for n in required}}
    assert getattr(config_from_dict(raw), field) == value


def test_every_unread_field_named():
    with pytest.raises(ConfigError) as info:
        config_from_dict({"experiment": "spectrum", "top": 2.0, "count": 3, "k_max": 9})
    assert str(info.value).startswith("count: read only by experiment 'oracle', not 'spectrum'; "
                                      "k_max: read only by experiment 'quasi_iso'")


def test_every_config_field_has_a_reader():
    read = {name for e in EXPERIMENTS for names in reads(e) for name in names}
    assert read | {"experiment"} == set(ExperimentConfig.__dataclass_fields__)


@pytest.mark.parametrize("fields, message", [
    ({"experiment": "quasi_iso", "seed": -1}, "seed: must be nonnegative"),
    ({"experiment": "kokarev", "epsilon_list": [0.1], "delta": 1.5}, "delta: must lie in (0, 1)"),
    ({"experiment": "spectrum", "top": "2"}, "top: expected a number"),
    ({"experiment": "oracle"}, "count: required for experiment 'oracle'"),
])
def test_directly_built_config_is_checked(fields, message):
    # acceptance builds its configs without config_from_dict
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(**fields)
    assert str(info.value) == message


def test_each_row_names_known_readers_in_experiment_order():
    # the refusal "read only by experiments ..." lists a row's readers as written
    for f in dataclasses.fields(ExperimentConfig)[1:]:
        readers = f.metadata["readers"]
        assert readers == tuple(e for e in EXPERIMENTS if e in readers), f.name

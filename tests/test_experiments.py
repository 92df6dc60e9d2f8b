"""Experiment drivers: the metric coefficient ratio of the quasi-isometry check, the
Kokarev bound check, and config fields."""

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
from steklovwarp import experiments
from steklovwarp.errors import ConfigError, DomainError
from steklovwarp.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    config_from_dict,
    metric_coefficient_ratio,
    normalize_volume,
    quasi_iso_check,
    ramp_phi_instance,
    run_kokarev_sweep,
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
@pytest.mark.parametrize("samples", [2, 512])
def test_matches_pointwise_ratio(mode, n, k, warps, samples):
    # 2k/n = 6 > 2 at (n, k) = (1, 3), so the base coefficient sets the ratio there
    spec1, spec2 = (spec_for(w, mode, n, k) for w in warps)
    expected = pointwise_ratio(spec1, spec2, samples)
    assert metric_coefficient_ratio(spec1, spec2, samples) == pytest.approx(expected, rel=1e-12)


def test_identical_warps_give_one():
    spec = spec_for(PLATEAU_A, "volume_preserving", 2, 1)
    assert metric_coefficient_ratio(spec, spec) == 1.0


@pytest.mark.parametrize("genus", [0, 2])
def test_kokarev_bound_allows_only_its_slack(monkeypatch, genus):
    # one Steklov circle of length 1 where h = 1, so sigma1 * L(boundary) is sigma1 itself
    cfg = ExperimentConfig(
        experiment="kokarev", epsilon_list=[0.1], delta=0.6, steklov_ends="left",
        fiber={"kind": "circle", "length": 1.0}, genus=genus,
    )
    bound = 8.0 * math.pi * (genus + 1)
    edge = bound * (1.0 + 1e-6)
    for sigma1, passed in ((edge, True), (math.nextafter(edge, math.inf), False)):
        stub = Sigma1Result(sigma1, "lambda0", sigma1, sigma1)
        monkeypatch.setattr(experiments, "sigma1_construction", lambda spec, n_elements: stub)
        (row,) = run_kokarev_sweep(cfg)
        assert (row.boundary_length, row.product, row.bound) == (1.0, sigma1, bound)
        assert row.passed is passed


def test_quasi_iso_check_compares_at_least_one_eigenvalue(monkeypatch):
    solves = []
    monkeypatch.setattr(experiments, "first_eigenvalues", lambda *a, **kw: solves.append(a))
    spec = spec_for(PLATEAU_A, "volume_preserving", 2, 1)
    with pytest.raises(DomainError, match="k_max must be at least 1"):
        quasi_iso_check(spec, spec, dim_m=2, k_max=0)
    assert solves == []


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
    if experiment == "sweep":  # the sweep refuses the default plain_warp mode
        base["mode"] = "volume_preserving"
    for name in optional:
        value = base.get(name, getattr(defaults, name))
        cfg = config_from_dict({**base, name: value})
        assert getattr(cfg, name) == value


@pytest.mark.parametrize("field, value, reader", [
    ("genus", 2, "kokarev"), ("pairs", 3, "quasi_iso"), ("k_max", 4, "quasi_iso"),
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
        config_from_dict({"experiment": "spectrum", "top": 2.0, "genus": 3, "k_max": 9})
    assert str(info.value).startswith("genus: read only by experiment 'kokarev', not 'spectrum'; "
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

"""Experiment drivers: the metric coefficient ratio of the quasi-isometry check, and config fields."""

import math

import numpy as np
import pytest

from steklovwarp import BaseGeometry, WarpedMetricSpec, WarpProfile, circle_spectrum, point_spectrum
from steklovwarp.errors import ConfigError
from steklovwarp.experiments import config_from_dict, metric_coefficient_ratio
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

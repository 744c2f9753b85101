"""Reference curves: capacity bound, linear bound, single-path baseline."""

import math

import numpy as np
import pytest

from tfqss.bounds import plob_bound, repeaterless_bound
from tfqss.channel import transmittance
from tfqss.core import ParameterError, SystemParams
from tfqss.optimize import (
    dps_qss_baseline,
    maximize_rate_at_transmittance,
    optimize_mu,
)

DEFAULTS = SystemParams()

# -log2(1 - 0.56), 50-digit evaluation
PLOB_AT_0 = 1.18442457113743


def test_plob_frozen_and_landmark_values():
    assert plob_bound(0.0, DEFAULTS) == pytest.approx(PLOB_AT_0, rel=1e-12)
    assert plob_bound(0.0, SystemParams(detector_efficiency=0.5)) == 1.0
    assert plob_bound(0.0, SystemParams(detector_efficiency=1.0)) == math.inf


def test_plob_vanishes_in_the_long_distance_limit():
    far = plob_bound(2000.0, DEFAULTS)
    assert 0.0 < far < 1e-30


def test_repeaterless_equals_arm_transmittance():
    # same closed form as the channel arm, bit for bit
    for distance in (0.0, 100.0, 300.0, 650.0):
        assert repeaterless_bound(distance, DEFAULTS) == transmittance(
            distance, DEFAULTS)
    assert repeaterless_bound(0.0, DEFAULTS) == 0.56
    assert repeaterless_bound(
        0.0, SystemParams(detector_efficiency=1.0)) == 1.0
    assert repeaterless_bound(300.0, DEFAULTS) == pytest.approx(
        1.75060444558941e-3, rel=1e-12)


def test_bounds_reject_negative_distance():
    with pytest.raises(ParameterError):
        plob_bound(-1.0, DEFAULTS)
    with pytest.raises(ParameterError):
        repeaterless_bound(-1.0, DEFAULTS)
    with pytest.raises(ParameterError):
        dps_qss_baseline(-1.0, DEFAULTS)
    # the full-path curves evaluate transmittance(2L) but name L
    for bound in (plob_bound, dps_qss_baseline):
        with pytest.raises(ParameterError, match=r"distance=-1\.0 "):
            bound(-1.0, DEFAULTS)
        with pytest.raises(ParameterError, match="distance=nan"):
            bound(float("nan"), DEFAULTS)


def test_both_bounds_strictly_decrease_in_distance():
    grid = [0.0, 50.0, 100.0, 200.0, 400.0, 700.0]
    plob = [plob_bound(d, DEFAULTS) for d in grid]
    rep = [repeaterless_bound(d, DEFAULTS) for d in grid]
    assert all(a > b for a, b in zip(plob, plob[1:]))
    assert all(a > b for a, b in zip(rep, rep[1:]))


def test_capacity_exceeds_transmittance_at_equal_argument():
    # plob_bound folds the whole line into its argument while
    # repeaterless_bound uses the one-arm convention, so the same
    # physical path compares plob_bound(L) against repeaterless_bound(2L)
    rng = np.random.default_rng(12)
    for _ in range(50):
        distance = rng.uniform(0.0, 400.0)
        eta_d = rng.uniform(0.05, 0.999)
        params = SystemParams(detector_efficiency=eta_d)
        assert plob_bound(distance, params) > repeaterless_bound(
            2.0 * distance, params)


def test_the_two_curve_conventions_cross():
    # under their own distance parameterizations neither dominates:
    # plob starts higher and falls twice as fast per km
    assert plob_bound(0.0, DEFAULTS) > repeaterless_bound(0.0, DEFAULTS)
    assert plob_bound(300.0, DEFAULTS) < repeaterless_bound(300.0, DEFAULTS)


def test_baseline_equals_protocol_rate_at_doubled_distance():
    # identical transmittance argument, identical optimizer
    for distance in (0.0, 50.0, 150.0, 250.0):
        base = dps_qss_baseline(distance, DEFAULTS)
        _, bd = optimize_mu(2.0 * distance, DEFAULTS)
        assert base == bd.rate


def test_baseline_at_zero_uses_detector_efficiency_alone():
    _, bd = maximize_rate_at_transmittance(0.56, DEFAULTS)
    assert dps_qss_baseline(0.0, DEFAULTS) == bd.rate
    assert bd.rate > 0.0


def test_baseline_never_beats_the_protocol_at_the_same_distance():
    for distance in (10.0, 100.0, 200.0, 300.0):
        _, bd = optimize_mu(distance, DEFAULTS)
        assert dps_qss_baseline(distance, DEFAULTS) <= bd.rate


def test_baseline_clamps_to_zero_beyond_its_cutoff():
    # the single-path curve dies at roughly half the protocol's reach
    assert dps_qss_baseline(400.0, DEFAULTS) == 0.0

"""Transmittance and the threshold-detector model.

Frozen reference numbers were computed once with 50-digit arithmetic
(mpmath) from the closed forms; the tests compare double-precision
results against them at 1e-12 relative tolerance.
"""

import math

import numpy as np
import pytest

from tfqss.channel import (
    ChannelState,
    click_probability,
    detect_slot,
    detect_slots,
    transmittance,
)
from tfqss.core import Outcome, ParameterError, SystemParams
from tfqss.keyrate import gain

DEFAULTS = SystemParams()

# eta_d * 10^(-0.167 * 300 / 20), 50-digit evaluation
ETA_300 = 1.75060444558941e-3


def test_transmittance_at_zero_is_detector_efficiency():
    assert transmittance(0.0, DEFAULTS) == 0.56
    assert transmittance(0.0, SystemParams(detector_efficiency=1.0)) == 1.0


def test_transmittance_frozen_value_at_300km():
    assert transmittance(300.0, DEFAULTS) == pytest.approx(
        ETA_300, rel=1e-12)


def test_transmittance_rejects_negative_distance():
    with pytest.raises(ParameterError, match="distance"):
        transmittance(-1.0, DEFAULTS)


def test_click_probability_closed_form():
    rng = np.random.default_rng(42)
    for _ in range(20):
        mu = rng.uniform(1e-4, 0.499)
        eta = rng.uniform(1e-4, 1.0)
        p_d = rng.uniform(0.0, 0.4)
        params = SystemParams(dark_count_rate=p_d)
        expected = 1.0 - (1.0 - p_d) ** 2 * math.exp(-mu * eta)
        assert click_probability(mu, eta, params) == pytest.approx(
            expected, rel=1e-15)


def test_click_probability_matches_linearized_gain_at_small_p_d():
    # the model is quadratic in p_d, the analytic gain linear; the gap is
    # p_d^2 e^(-mu*eta), below 1e-12 whenever p_d <= 1e-6
    rng = np.random.default_rng(43)
    for _ in range(50):
        mu = rng.uniform(1e-4, 0.499)
        eta = rng.uniform(1e-4, 1.0)
        p_d = 10.0 ** rng.uniform(-12, -6)
        params = SystemParams(dark_count_rate=p_d)
        diff = abs(click_probability(mu, eta, params) - gain(mu, eta, p_d))
        assert diff <= 1e-12
        assert diff == pytest.approx(p_d**2 * math.exp(-mu * eta), abs=1e-15)


def test_channel_state_bounds_and_constructor():
    state = ChannelState.for_distance(100.0, DEFAULTS)
    assert state.eta == transmittance(100.0, DEFAULTS)
    with pytest.raises(ParameterError, match="eta"):
        ChannelState(eta=0.0, params=DEFAULTS)
    with pytest.raises(ParameterError, match="eta"):
        ChannelState(eta=0.57, params=DEFAULTS)  # above detector efficiency
    with pytest.raises(ParameterError, match="100000.0 km: link too long"):
        ChannelState.for_distance(1e5, DEFAULTS)  # transmittance underflows


def test_detect_slots_argument_validation():
    rng = np.random.default_rng(0)
    ones = np.ones(4, dtype=np.uint8)
    with pytest.raises(ParameterError, match="mu"):
        detect_slots(ones, 0.5, 0.5, DEFAULTS, rng)
    with pytest.raises(ParameterError, match="mu"):
        detect_slots(ones, 0.0, 0.5, DEFAULTS, rng)
    with pytest.raises(ParameterError, match="eta"):
        detect_slots(ones, 0.1, 1.5, DEFAULTS, rng)
    with pytest.raises(ParameterError, match="one-dimensional"):
        detect_slots(np.zeros((2, 2), dtype=np.uint8), 0.1, 0.5,
                     DEFAULTS, rng)
    with pytest.raises(ParameterError, match="0/1"):
        detect_slots(np.array([0, 3], dtype=np.uint8), 0.1, 0.5,
                     DEFAULTS, rng)


def test_no_light_no_dark_counts_means_no_clicks():
    params = SystemParams(dark_count_rate=0.0)
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, 10_000, dtype=np.uint8)
    outcomes, resolved = detect_slots(bits, 0.1, 0.0, params, rng)
    assert np.all(outcomes == Outcome.NO_CLICK)
    assert np.all(resolved == 0)


def test_noiseless_clicks_land_on_the_matching_detector():
    # no misalignment, no dark counts: phase 0 can only fire D1,
    # phase 1 only D2, and doubles are impossible
    params = SystemParams(misalignment=0.0, dark_count_rate=0.0,
                          detector_efficiency=1.0)
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, 200_000, dtype=np.uint8)
    outcomes, resolved = detect_slots(bits, 0.499, 1.0, params, rng)
    clicked = outcomes != Outcome.NO_CLICK
    assert clicked.any()
    assert not np.any(outcomes == Outcome.DOUBLE)
    assert np.all(outcomes[clicked & (bits == 0)] == Outcome.D1)
    assert np.all(outcomes[clicked & (bits == 1)] == Outcome.D2)
    assert np.array_equal(resolved[clicked], bits[clicked])


def test_click_fraction_matches_model_probability():
    # reference point: defaults, mu=0.1, eta=0.5 over 1e7 slots
    rng = np.random.default_rng(3)
    n = 10**7
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    outcomes, _ = detect_slots(bits, 0.1, 0.5, DEFAULTS, rng)
    p = click_probability(0.1, 0.5, DEFAULTS)
    assert p == pytest.approx(1.0 - math.exp(-0.05), rel=1e-6)
    frac = np.count_nonzero(outcomes) / n
    sigma = math.sqrt(p * (1.0 - p) / n)
    assert abs(frac - p) <= 3.0 * sigma


def test_dark_count_only_regime_outcome_frequencies():
    # with negligible light the four outcomes follow two independent
    # Bernoulli(p_d) draws
    p_d = 0.2
    params = SystemParams(dark_count_rate=p_d)
    rng = np.random.default_rng(4)
    n = 10**6
    bits = np.zeros(n, dtype=np.uint8)
    outcomes, _ = detect_slots(bits, 1e-6, 1e-6, params, rng)
    for outcome, prob in [
        (Outcome.NO_CLICK, (1 - p_d) ** 2),
        (Outcome.D1, p_d * (1 - p_d)),
        (Outcome.D2, p_d * (1 - p_d)),
        (Outcome.DOUBLE, p_d**2),
    ]:
        frac = np.count_nonzero(outcomes == outcome) / n
        sigma = math.sqrt(prob * (1 - prob) / n)
        assert abs(frac - prob) <= 4.0 * sigma


def test_double_clicks_resolve_to_a_fair_coin():
    p_d = 0.4
    params = SystemParams(dark_count_rate=p_d)
    rng = np.random.default_rng(5)
    n = 10**6
    bits = np.zeros(n, dtype=np.uint8)
    outcomes, resolved = detect_slots(bits, 1e-6, 1e-6, params, rng)
    doubles = outcomes == Outcome.DOUBLE
    assert doubles.sum() > 100_000
    mean = resolved[doubles].mean()
    sigma = math.sqrt(0.25 / doubles.sum())
    assert abs(mean - 0.5) <= 4.0 * sigma


def test_outcome_stream_is_reproducible():
    bits = np.random.default_rng(6).integers(0, 2, 50_000, dtype=np.uint8)
    a = detect_slots(bits, 0.2, 0.3, DEFAULTS, np.random.default_rng(7))
    b = detect_slots(bits, 0.2, 0.3, DEFAULTS, np.random.default_rng(7))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    c = detect_slots(bits, 0.2, 0.3, DEFAULTS, np.random.default_rng(8))
    assert not np.array_equal(a[0], c[0])


def test_detect_slot_scalar_view():
    rng = np.random.default_rng(9)
    out = detect_slot(0, 0.499, 1.0,
                      SystemParams(misalignment=0.0, dark_count_rate=0.0,
                                   detector_efficiency=1.0), rng)
    assert out in (Outcome.NO_CLICK, Outcome.D1)
    with pytest.raises(ParameterError, match="phase_bit"):
        detect_slot(2, 0.1, 0.5, DEFAULTS, rng)

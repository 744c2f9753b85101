"""Transmittance and the threshold-detector model.

Frozen reference numbers were computed once with 50-digit arithmetic
(mpmath) from the closed forms; the tests compare double-precision
results against them at 1e-12 relative tolerance.
"""

import math
import warnings

import numpy as np
import pytest

from tfqss.channel import (
    _CHUNK,
    ChannelState,
    click_probability,
    detect_slots,
    sample_clicks,
    transmittance,
)
from tfqss.core import Outcome, ParameterError, SystemParams
from tfqss.keyrate import gain

DEFAULTS = SystemParams()

# eta_d * 10^(-0.167 * 300 / 20), 50-digit evaluation
ETA_300 = 1.75060444558941e-3

# 0.999 quantiles of the chi-square distribution by degrees of freedom
CHI2_999 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515,
            6: 22.458, 7: 24.322, 8: 26.124}


def test_transmittance_at_zero_is_detector_efficiency():
    assert transmittance(0.0, DEFAULTS) == 0.56
    assert transmittance(0.0, SystemParams(detector_efficiency=1.0)) == 1.0


def test_transmittance_frozen_value_at_300km():
    assert transmittance(300.0, DEFAULTS) == pytest.approx(
        ETA_300, rel=1e-12)


def test_transmittance_rejects_negative_distance():
    with pytest.raises(ParameterError, match="distance"):
        transmittance(-1.0, DEFAULTS)


def test_transmittance_rejects_nan_distance():
    # NaN fails every comparison, so the check must be "not >= 0"
    with pytest.raises(ParameterError, match="distance=nan"):
        transmittance(float("nan"), DEFAULTS)


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
    state = rng.bit_generator.state
    outcomes, resolved = detect_slots(bits, 0.1, 0.0, params, rng)
    assert np.all(outcomes == Outcome.NO_CLICK)
    assert np.all(resolved == 0)
    # click probability 0: not even one geometric gap is drawn
    assert rng.bit_generator.state == state


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


def _outcome_probabilities(mu, eta, params):
    """[NO_CLICK, D1, D2, DOUBLE] probabilities of a phase-0 slot.

    Each detector fires independently: the matching one (D1 for phase 0)
    on (1-e_d) mu eta mean photons or a dark count, the wrong one on
    e_d mu eta photons or a dark count.
    """
    p_d, e_d = params.dark_count_rate, params.misalignment
    silent_match = (1.0 - p_d) * math.exp(-(1.0 - e_d) * mu * eta)
    silent_wrong = (1.0 - p_d) * math.exp(-e_d * mu * eta)
    fire_match, fire_wrong = 1.0 - silent_match, 1.0 - silent_wrong
    return np.array([silent_match * silent_wrong, fire_match * silent_wrong,
                     silent_match * fire_wrong, fire_match * fire_wrong])


def _pearson(observed, expected):
    """Pearson statistic and degrees of freedom over one multinomial.

    Cells expecting fewer than 5 counts are pooled into one cell.
    """
    small = expected < 5.0
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    return float(np.sum((observed - expected) ** 2 / expected)), \
        observed.size - 1


@pytest.mark.parametrize("params, mu, eta, n", [
    pytest.param(SystemParams(misalignment=0.05), 0.4, 0.9, 200_000,
                 id="signal_dominated"),
    pytest.param(SystemParams(dark_count_rate=0.1), 0.01, 0.01, 200_000,
                 id="dark_dominated"),
    pytest.param(SystemParams(misalignment=0.0, dark_count_rate=1e-3),
                 0.3, 0.5, 200_000, id="no_misalignment"),
    # dark counts make a sixth of the clicks and the error rate is ~0.1,
    # where the key rate runs out; doubles are too rare to expect one
    pytest.param(SystemParams(dark_count_rate=2e-5), 0.1, 2e-3, 2_000_000,
                 id="near_cutoff"),
])
def test_outcome_frequencies_match_the_closed_forms(params, mu, eta, n):
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    outcomes, resolved = detect_slots(bits, mu, eta, params, rng)
    probs = _outcome_probabilities(mu, eta, params)
    stat, df = 0.0, 0
    # phase 1 sends the light to D2, which swaps the two single cells
    for bit, cells in ((0, probs), (1, probs[[0, 2, 1, 3]])):
        mask = bits == bit
        observed = np.bincount(outcomes[mask], minlength=4)
        s, d = _pearson(observed, cells * np.count_nonzero(mask))
        stat, df = stat + s, df + d
    assert stat <= CHI2_999[df], (stat, df)
    assert not np.any(resolved[outcomes <= Outcome.D1])
    assert np.all(resolved[outcomes == Outcome.D2] == 1)


def test_highest_admitted_click_probability_over_several_batches():
    # p_d and mu just below 1/2 on a lossless arm: P_click ~ 0.848, the
    # largest the validators admit, so 3 batches cover the slots
    params = SystemParams(dark_count_rate=0.4999)
    mu, eta, n = 0.4999, 1.0, 3 * _CHUNK + 1
    p = click_probability(mu, eta, params)
    assert p > 0.84
    rng = np.random.default_rng(22)
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    clicked = detect_slots(bits, mu, eta, params, rng)[0] != Outcome.NO_CLICK
    assert abs(clicked.mean() - p) <= 4.0 * math.sqrt(p * (1 - p) / n)
    # clicks are independent slot to slot, batch joins included
    pairs = np.mean(clicked[1:] & clicked[:-1])
    assert abs(pairs - p * p) <= 4.0 * math.sqrt(p * p * (1 - p * p) / n)


@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_slot_counts_around_the_batch_size(n):
    params = SystemParams(dark_count_rate=0.3)
    p = click_probability(0.4, 1.0, params)
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    outcomes, resolved = detect_slots(bits, 0.4, 1.0, params, rng)
    assert outcomes.shape == resolved.shape == (n,)
    assert outcomes.dtype == resolved.dtype == np.uint8
    assert outcomes.max(initial=0) <= Outcome.DOUBLE
    assert not np.any(resolved[outcomes <= Outcome.D1])
    assert np.all(resolved[outcomes == Outcome.D2] == 1)
    if n > 1:
        frac = np.count_nonzero(outcomes) / n
        assert abs(frac - p) <= 4.0 * math.sqrt(p * (1 - p) / n)


def test_single_slot_clicks_with_the_model_probability():
    params = SystemParams(dark_count_rate=0.3)
    p = click_probability(0.4, 1.0, params)
    rng = np.random.default_rng(24)
    trials = 4000
    clicks = 0
    for _ in range(trials):
        pos, outcomes, _ = sample_clicks(
            1, lambda at: np.ones(at.size, dtype=np.uint8),
            0.4, 1.0, params, rng)
        assert pos.tolist() in ([], [0])
        assert outcomes.min(initial=Outcome.D1) >= Outcome.D1
        clicks += pos.size
    assert abs(clicks / trials - p) <= 4.0 * math.sqrt(p * (1 - p) / trials)


def test_click_positions_do_not_depend_on_phase_bits():
    params = SystemParams(dark_count_rate=0.05, misalignment=0.1)
    bits = np.random.default_rng(25).integers(0, 2, 100_000, dtype=np.uint8)
    out, res = detect_slots(bits, 0.3, 0.5, params,
                            np.random.default_rng(26))
    flip_out, flip_res = detect_slots(1 - bits, 0.3, 0.5, params,
                                      np.random.default_rng(26))
    zero_out, _ = detect_slots(np.zeros_like(bits), 0.3, 0.5, params,
                               np.random.default_rng(26))
    clicked = out != Outcome.NO_CLICK
    assert np.array_equal(flip_out != Outcome.NO_CLICK, clicked)
    assert np.array_equal(zero_out != Outcome.NO_CLICK, clicked)
    # flipping every phase bit swaps D1 and D2 and keeps each double and
    # its coin
    swap = np.array([Outcome.NO_CLICK, Outcome.D2, Outcome.D1,
                     Outcome.DOUBLE], dtype=np.uint8)
    assert np.array_equal(flip_out, swap[out])
    double = out == Outcome.DOUBLE
    assert double.any()
    assert np.array_equal(flip_res[double], res[double])
    single = clicked & ~double
    assert np.array_equal(flip_res[single], 1 - res[single])


@pytest.mark.parametrize("mu_eta", [1e-300, 1e-322])
def test_sampler_without_dark_counts_on_a_vanishing_click_probability(
        mu_eta):
    # P_click = mu*eta, down to a subnormal: the gap quotient is clipped
    # before the int cast, so nothing overflows, and the clipped gap
    # ends past the last slot whatever the rounding, so no click lands
    params = SystemParams(dark_count_rate=0.0)
    assert 0.0 < click_probability(0.1, mu_eta / 0.1, params) <= 1e-300
    rng = np.random.default_rng(27)
    asked = []

    def lookup(positions):
        asked.extend(positions.tolist())
        return np.zeros(positions.size, dtype=np.uint8)

    with warnings.catch_warnings(), np.errstate(
            over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        for n in (*range(1, 100), 10**6):
            pos, outcomes, resolved = sample_clicks(
                n, lookup, 0.1, mu_eta / 0.1, params, rng)
            assert pos.size == outcomes.size == resolved.size == 0
    assert asked == []
    assert pos.dtype == np.int64


def test_sampler_reads_phase_bits_only_at_the_clicks():
    # P_click ~ 0.85, so over many short runs clicks land on the first
    # and the last slot; the lookup sees exactly the click positions
    params = SystemParams(dark_count_rate=0.4999, misalignment=0.0)
    n = 5
    rng = np.random.default_rng(28)
    ends = set()
    for _ in range(50):
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        asked = []

        def lookup(positions, bits=bits, asked=asked):
            asked.append(positions.copy())
            return bits[positions]

        pos, outcomes, resolved = sample_clicks(
            n, lookup, 0.4999, 1.0, params, rng)
        assert np.array_equal(np.concatenate(asked), pos)
        assert np.all(np.diff(pos) > 0)
        assert pos.size == 0 or 0 <= pos[0] and pos[-1] <= n - 1
        assert outcomes.min(initial=1) >= Outcome.D1
        single = outcomes != Outcome.DOUBLE
        assert np.array_equal(resolved[single], outcomes[single] - 1)
        ends.update({0, n - 1} & set(pos.tolist()))
    assert ends == {0, n - 1}

"""Transmittance and the threshold-detector model.

Frozen reference numbers were computed once with 50-digit arithmetic
(mpmath) from the closed forms; the tests compare double-precision
results against them at 1e-12 relative tolerance.
"""

import copy
import math
import warnings

import numpy as np
import pytest

import tfqss.channel
from tfqss.channel import (
    _CHUNK,
    ChannelState,
    click_probability,
    detect_slots,
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


def test_click_probability_rejects_mu_and_eta_outside_the_domain():
    # keyrate.gain's domain and messages
    with pytest.raises(ParameterError, match=r"^mu=-0\.5 must be >= 0$"):
        click_probability(-0.5, 1.0, DEFAULTS)
    with pytest.raises(ParameterError, match=r"^eta=2\.0 outside \[0, 1\]$"):
        click_probability(0.1, 2.0, DEFAULTS)
    with pytest.raises(ParameterError, match="eta=nan"):
        click_probability(0.1, math.nan, DEFAULTS)


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
    with pytest.raises(ParameterError, match="mu"):
        detect_slots(range(4), 0.5, 0.5, DEFAULTS, rng)
    with pytest.raises(ParameterError, match="mu"):
        detect_slots(range(4), 0.0, 0.5, DEFAULTS, rng)
    with pytest.raises(ParameterError, match="eta"):
        detect_slots(range(4), 0.1, 1.5, DEFAULTS, rng)
    with pytest.raises(ParameterError, match="step 1"):
        detect_slots(range(2, 8, 2), 0.1, 0.5, DEFAULTS, rng)


def _clicks(slots, mu, eta, params, rng, bits=None):
    """detect_slots' clicks as (slot numbers, outcomes, announced bits).

    The gaps are summed in place into the slot numbers, so the first
    array is still a view of the sampler's output. bits, if given, are
    the phase bits by slot number, applied by run_measurement's rule:
    each click's phase bit is XORed into its code. The outcomes are
    code + 1, DOUBLE where the code marks a double, and the announced
    bits the codes' bit 0, in the codes' own array.
    """
    gaps, codes = detect_slots(slots, mu, eta, params, rng)
    gaps[:1] += slots.start - 1
    pos = np.cumsum(gaps, out=gaps)
    if bits is not None:
        codes ^= bits[pos]
    outcomes = codes + 1
    np.minimum(outcomes, np.uint8(Outcome.DOUBLE), out=outcomes)
    codes &= 1
    return pos, outcomes, codes


def _dense(bits, mu, eta, params, rng):
    """Per-slot (outcomes, resolved) of slots 0..n-1 with phase bits bits.

    _clicks draws the clicks and applies their phase bits, and a
    scatter writes them into dense uint8 arrays, 0 where nothing
    clicked.
    """
    slots, clicked, announced = _clicks(range(bits.size), mu, eta, params,
                                        rng, bits)
    outcomes = np.zeros(bits.size, dtype=np.uint8)
    resolved = np.zeros(bits.size, dtype=np.uint8)
    outcomes[slots] = clicked
    resolved[slots] = announced
    return outcomes, resolved


def test_no_light_no_dark_counts_means_no_clicks():
    params = SystemParams(dark_count_rate=0.0)
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, 10_000, dtype=np.uint8)
    state = rng.bit_generator.state
    outcomes, resolved = _dense(bits, 0.1, 0.0, params, rng)
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
    outcomes, resolved = _dense(bits, 0.499, 1.0, params, rng)
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
    outcomes, _ = _dense(bits, 0.1, 0.5, DEFAULTS, rng)
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
    outcomes, _ = _dense(bits, 1e-6, 1e-6, params, rng)
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
    outcomes, resolved = _dense(bits, 1e-6, 1e-6, params, rng)
    doubles = outcomes == Outcome.DOUBLE
    assert doubles.sum() > 100_000
    mean = resolved[doubles].mean()
    sigma = math.sqrt(0.25 / doubles.sum())
    assert abs(mean - 0.5) <= 4.0 * sigma


def test_outcome_stream_is_reproducible():
    bits = np.random.default_rng(6).integers(0, 2, 50_000, dtype=np.uint8)
    a = _dense(bits, 0.2, 0.3, DEFAULTS, np.random.default_rng(7))
    b = _dense(bits, 0.2, 0.3, DEFAULTS, np.random.default_rng(7))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    c = _dense(bits, 0.2, 0.3, DEFAULTS, np.random.default_rng(8))
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
    outcomes, resolved = _dense(bits, mu, eta, params, rng)
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
    clicked = _dense(bits, mu, eta, params, rng)[0] != Outcome.NO_CLICK
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
    outcomes, resolved = _dense(bits, 0.4, 1.0, params, rng)
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
        pos, outcomes, _ = _clicks(range(1), 0.4, 1.0, params, rng)
        assert pos.tolist() in ([], [0])
        assert outcomes.min(initial=Outcome.D1) >= Outcome.D1
        clicks += pos.size
    assert abs(clicks / trials - p) <= 4.0 * math.sqrt(p * (1 - p) / trials)


def test_click_positions_do_not_depend_on_phase_bits():
    params = SystemParams(dark_count_rate=0.05, misalignment=0.1)
    bits = np.random.default_rng(25).integers(0, 2, 100_000, dtype=np.uint8)
    out, res = _dense(bits, 0.3, 0.5, params, np.random.default_rng(26))
    flip_out, flip_res = _dense(1 - bits, 0.3, 0.5, params,
                                np.random.default_rng(26))
    zero_out, _ = _dense(np.zeros_like(bits), 0.3, 0.5, params,
                         np.random.default_rng(26))
    clicked = out != Outcome.NO_CLICK
    assert np.array_equal(flip_out != Outcome.NO_CLICK, clicked)
    assert np.array_equal(zero_out != Outcome.NO_CLICK, clicked)
    # flipping every phase bit swaps D1 and D2, keeps each double, and
    # flips every click's announced bit, a double's coin included
    swap = np.array([Outcome.NO_CLICK, Outcome.D2, Outcome.D1,
                     Outcome.DOUBLE], dtype=np.uint8)
    assert np.array_equal(flip_out, swap[out])
    double = out == Outcome.DOUBLE
    assert double.any()
    assert np.array_equal(flip_res[double], 1 - res[double])
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
    with warnings.catch_warnings(), np.errstate(
            over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        for n in (*range(1, 100), 10**6):
            pos, outcomes, resolved = _clicks(
                range(n), 0.1, mu_eta / 0.1, params, rng)
            assert pos.size == outcomes.size == resolved.size == 0
    assert pos.dtype == np.int64


def test_sampler_reads_phase_bits_only_at_the_clicks():
    # P_click ~ 0.85, so over many short runs clicks land on the first
    # and the last slot; shifting by the bits at the clicks gives the
    # reference stream
    params = SystemParams(dark_count_rate=0.4999, misalignment=0.0)
    n = 5
    rng = np.random.default_rng(28)
    ends = set()
    for _ in range(50):
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        want = _reference_clicks(n, bits, 0.4999, 1.0, params,
                                 copy.deepcopy(rng))
        pos, outcomes, resolved = _clicks(
            range(n), 0.4999, 1.0, params, rng, bits)
        for g, w in zip((pos, outcomes, resolved), want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert np.all(np.diff(pos) > 0)
        assert pos.size == 0 or 0 <= pos[0] and pos[-1] <= n - 1
        assert outcomes.min(initial=1) >= Outcome.D1
        single = outcomes != Outcome.DOUBLE
        assert np.array_equal(resolved[single], outcomes[single] - 1)
        ends.update({0, n - 1} & set(pos.tolist()))
    assert ends == {0, n - 1}


def _firing(mu, eta, params):
    """(p_m, p_w): the matching and the wrong detector's probability to
    fire in a phase-0 slot, kept precise however small."""
    silent = math.log1p(-params.dark_count_rate)
    e_d = params.misalignment
    return (-math.expm1(silent - (1.0 - e_d) * mu * eta),
            -math.expm1(silent - e_d * mu * eta))


def _reference_clicks(n, bits, mu, eta, params, rng, chunk=_CHUNK):
    """The stream of the module docstring, drawn into fresh arrays.

    Per batch of at most chunk click gaps: their uniforms; then, over
    the batch's clicks, per run of at most half the first batch's gaps
    (rounded up), the gap uniforms of the clicks where the wrong
    detector fires, one uniform per such click (below p_m a double) and
    one coin per double click. Batches and runs are joined at the end.
    """
    p = click_probability(mu, eta, params)
    p_m, p_w = _firing(mu, eta, params)

    def bound(mean):
        return int(mean + 4 * math.sqrt(mean)) + 1

    def events(span, q, cap):
        """Each run's positions in 1..span of a Bernoulli(q) process."""
        log_stay = math.log1p(-q)
        last = 0
        while q > 0 and last < span:
            left = span - last
            u = rng.random(min(cap, left, bound(left * q)))
            gaps = np.maximum(np.log1p(-u), (left + 1) * log_stay) / log_stay
            pos = np.cumsum(gaps.astype(np.int64) + 1) + last
            last = int(pos[-1])
            yield pos[pos <= span]

    half = (min(chunk, n, bound(n * p)) + 1) // 2
    parts = [(np.empty(0, np.int64), np.empty(0, np.uint8),
              np.empty(0, np.uint8))]
    for pos in events(n, p, chunk):
        slot = pos - 1
        port = np.zeros(slot.size, np.uint8)  # phase 0: 1 if D2 fired
        double = np.zeros(slot.size, bool)
        coins = np.zeros(slot.size, np.uint8)
        for wrong in events(slot.size, p_w / p, half):
            wrong -= 1
            port[wrong] = 1
            both = wrong[rng.random(wrong.size) < p_m]
            double[both] = True
            coins[both] = rng.integers(0, 2, both.size, dtype=np.uint8)
        port ^= bits[slot]
        out = port + 1
        out[double] = Outcome.DOUBLE
        port[double] = coins[double] ^ bits[slot[double]]
        parts.append((slot, out, port))
    return [np.concatenate(col) for col in zip(*parts)]


@pytest.mark.parametrize("params, mu, eta, n, seeds, grows", [
    # about 6 clicks expected in 500 slots, so the outputs start with
    # room for 16; seed 12603 draws 20 and they grow
    (SystemParams(dark_count_rate=1e-3, misalignment=0.1), 0.2, 0.05, 500,
     [12603, *range(40)], 12603),
    # 0.05 clicks expected: room for one; seed 828 draws two
    (SystemParams(dark_count_rate=0.0), 0.1, 5e-3, 100,
     [828, *range(40)], 828),
    # P_click ~ 0.85 over several batches, doubles and both detectors
    (SystemParams(dark_count_rate=0.4999, misalignment=0.2), 0.4999, 1.0,
     3 * _CHUNK + 1, [22], None),
])
def test_sampler_draws_the_documented_stream(params, mu, eta, n, seeds,
                                             grows):
    bits = np.random.default_rng(29).integers(0, 2, n, dtype=np.uint8)
    mean = n * click_probability(mu, eta, params)
    room = min(n, int(mean + 4.0 * math.sqrt(mean)) + 1)
    for seed in seeds:
        got = _clicks(range(n), mu, eta, params,
                      np.random.default_rng(seed), bits)
        want = _reference_clicks(n, bits, mu, eta, params,
                                 np.random.default_rng(seed))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), seed
        assert (got[0].size > room) == (seed == grows), seed


@pytest.mark.parametrize("params, mu, eta, n, seeds", [
    # the three settings of test_sampler_draws_the_documented_stream:
    # seed 12603 grows the outputs, seed 828 too, and 3 _CHUNK + 1
    # slots at P_click ~ 0.85 take several batches, doubles among them
    (SystemParams(dark_count_rate=1e-3, misalignment=0.1), 0.2, 0.05, 500,
     [12603, 0, 1]),
    (SystemParams(dark_count_rate=0.0), 0.1, 5e-3, 100, [828, 0]),
    (SystemParams(dark_count_rate=0.4999, misalignment=0.2), 0.4999, 1.0,
     3 * _CHUNK + 1, [22]),
])
def test_sampler_gaps_and_doubles_follow_the_documented_stream(
        params, mu, eta, n, seeds):
    # the raw outputs: gaps from the click before, the first from
    # start - 1, and the codes, whose bit 1 marks the doubles and bit 0
    # holds the announced bit, wherever the range starts
    zeros = np.zeros(n, dtype=np.uint8)
    for seed in seeds:
        pos, outcomes, port = _reference_clicks(
            n, zeros, mu, eta, params, np.random.default_rng(seed))
        for start in (0, 2):
            gaps, codes = detect_slots(
                range(start, start + n), mu, eta, params,
                np.random.default_rng(seed))
            assert gaps.dtype == np.int64 and np.all(gaps >= 1), seed
            assert codes.dtype == np.uint8 and codes.max(initial=0) <= 3
            assert np.array_equal(np.cumsum(gaps) + start - 1, pos + start)
            assert np.array_equal(
                codes >> 1, outcomes == Outcome.DOUBLE), seed
            assert np.array_equal(codes & 1, port), seed


def test_outputs_grow_before_a_later_batch_that_would_overrun_them(
        monkeypatch):
    # batches of 64 gaps and about 80 clicks expected in all, so the
    # outputs start with room for 116 and a run takes two batches; on
    # seeds 40, 67, 70 and 87 the second batch's gap bound overruns that
    # room although its clicks fit, and the outputs double first
    monkeypatch.setattr("tfqss.channel._CHUNK", 64)
    params = SystemParams(dark_count_rate=1e-3, misalignment=0.1)
    mu, eta, n = 0.2, 0.04, 8039
    bits = np.random.default_rng(31).integers(0, 2, n, dtype=np.uint8)
    mean = n * click_probability(mu, eta, params)
    room = int(mean + 4.0 * math.sqrt(mean)) + 1
    for seed, grows in [(40, True), (67, True), (70, True), (87, True),
                        (0, False), (1, False), (2, False), (3, False)]:
        got = _clicks(range(n), mu, eta, params,
                      np.random.default_rng(seed), bits)
        want = _reference_clicks(n, bits, mu, eta, params,
                                 np.random.default_rng(seed), chunk=64)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), seed
        assert got[0].size <= room, seed
        assert (got[0].base.size > room) == grows, seed


def test_non_matching_runs_draw_on_and_the_doubles_grow(monkeypatch):
    # batches of 64 clicks at the defaults: about 1.4 of a batch's
    # clicks are non-matching, so a run's first draw holds 7 gaps; on
    # seeds 434 and 479 they fall short of the batch's last click and
    # the run draws on. About 1.8 doubles are expected in all, 8 with
    # four standard deviations; seed 15017 draws 9, each a bit of its
    # click's code, so nothing is sized to them
    monkeypatch.setattr("tfqss.channel._CHUNK", 64)
    gaps = tfqss.channel._gaps
    runs = []

    def watched(p, span, cap, rng, scratch, room):
        run = [p]
        runs.append(run)
        for batch in gaps(p, span, cap, rng, scratch, room):
            run.append(batch[0].size)
            yield batch

    monkeypatch.setattr(tfqss.channel, "_gaps", watched)
    params = SystemParams()
    mu, eta, n = 0.4, 0.56, 2000
    bits = np.random.default_rng(32).integers(0, 2, n, dtype=np.uint8)
    p_m, p_w = _firing(mu, eta, params)
    mean = n * p_m * p_w
    room = int(mean + 4.0 * math.sqrt(mean)) + 1
    for seed, draws_on, many in [(434, True, False), (479, True, False),
                                 (15017, False, True), (0, False, False),
                                 (1, False, False), (2, False, False)]:
        runs.clear()
        got = _clicks(range(n), mu, eta, params,
                      np.random.default_rng(seed), bits)
        want = _reference_clicks(n, bits, mu, eta, params,
                                 np.random.default_rng(seed), chunk=64)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), seed
        # the first call draws the clicks, each later one a run
        assert any(len(run) > 2 for run in runs[1:]) == draws_on, seed
        doubles = np.count_nonzero(got[1] == Outcome.DOUBLE)
        assert (doubles > room) == many, seed


def test_category_draw_takes_nothing_when_only_the_matching_detector_fires():
    # e_d = p_d = 0: the wrong detector never fires, so the generator
    # gives the click gaps and nothing else, over several batches
    params = SystemParams(misalignment=0.0, dark_count_rate=0.0)
    n = 3 * _CHUNK + 1
    zeros = np.zeros(n, dtype=np.uint8)
    rng, ref = np.random.default_rng(33), np.random.default_rng(33)
    pos, outcomes, announced = _clicks(range(n), 0.4999, 1.0, params, rng)
    want = _reference_clicks(n, zeros, 0.4999, 1.0, params, ref)
    assert np.array_equal(pos, want[0]) and pos.size > _CHUNK
    assert np.all(outcomes == Outcome.D1) and not announced.any()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("e_d", [5e-324, 1e-310])
def test_sampler_on_a_vanishing_non_matching_rate(e_d):
    # p_d = 0: the wrong detector fires with probability e_d mu eta,
    # which rounds to 0 at e_d = 5e-324 and is subnormal at 1e-310; the
    # non-matching draw is clipped before the int cast like the clicks',
    # so nothing overflows and no click is non-matching
    params = SystemParams(misalignment=e_d, dark_count_rate=0.0)
    p_w = _firing(0.4999, 1.0, params)[1]
    assert p_w < 1e-300 and (p_w > 0.0) == (e_d > 5e-324)
    with warnings.catch_warnings(), np.errstate(
            over="raise", divide="raise", invalid="raise", under="ignore"):
        warnings.simplefilter("error")
        for n in (1, 2, 17, 10**6):
            pos, outcomes, announced = _clicks(
                range(n), 0.4999, 1.0, params, np.random.default_rng(34))
            assert np.all(outcomes == Outcome.D1) and not announced.any()
    want = _reference_clicks(n, np.zeros(n, dtype=np.uint8), 0.4999, 1.0,
                             params, np.random.default_rng(34))
    assert np.array_equal(pos, want[0]) and pos.size > 300_000


@pytest.mark.parametrize("params", [
    pytest.param(SystemParams(), id="2pct"),
    pytest.param(SystemParams(misalignment=0.2, dark_count_rate=1e-3),
                 id="20pct"),
])
def test_categories_hold_their_law_at_every_batch_end(params):
    # over 3 _CHUNK clicks, so at least four batches: the first and the
    # last 1,000 clicks of each batch, and the gaps between non-matching
    # clicks over the whole run, follow the model
    mu, eta = 0.4, 0.56
    p = click_probability(mu, eta, params)
    p_m, p_w = _firing(mu, eta, params)
    n = int(3.2 * _CHUNK / p)
    pos, outcomes, announced = _clicks(range(n), mu, eta, params,
                                       np.random.default_rng(35))
    # 0 the matching detector alone, 1 the wrong one alone, 2 both
    category = announced.astype(np.int64)
    category[outcomes == Outcome.DOUBLE] = 2
    # each batch's clicks, by the documented batch sizes: a batch that
    # passes the end keeps fewer than its gaps
    starts, ends, last = [0], [], -1
    while last < n - 1:
        left = n - 1 - last
        mean = left * p
        k = min(_CHUNK, left, int(mean + 4.0 * math.sqrt(mean)) + 1)
        ends.append(min(starts[-1] + k, pos.size))
        last = pos[ends[-1] - 1] if ends[-1] - starts[-1] == k else n
        starts.append(ends[-1])
    assert len(ends) >= 4 and ends[-1] == pos.size
    probs = np.array([p_m * (1 - p_w), (1 - p_m) * p_w, p_m * p_w]) / p
    stat, df = 0.0, 0
    for window in ([category[lo:lo + 1000] for lo in starts[:-1]],
                   [category[max(lo, hi - 1000):hi]
                    for lo, hi in zip(starts, ends)]):
        picked = np.concatenate(window)
        s, d = _pearson(np.bincount(picked, minlength=3),
                        probs * picked.size)
        stat, df = stat + s, df + d
    assert stat <= CHI2_999[df], (stat, df)
    # the gaps between non-matching clicks, the first from one click
    # before the run: geometric with parameter p_w / p, in nine cells
    # of near equal probability
    share = p_w / p
    assert 0.015 < share < 0.25
    gaps = np.diff(np.flatnonzero(category), prepend=-1)
    edges = np.unique(np.ceil(
        np.log1p(-np.arange(1, 9) / 9) / math.log1p(-share)).astype(int))
    stay = (1 - share) ** np.concatenate(([0], edges))
    expected = np.append(stay[:-1] - stay[1:], stay[-1]) * gaps.size
    observed = np.bincount(np.searchsorted(edges, gaps),
                           minlength=edges.size + 1)
    stat, df = _pearson(observed, expected)
    assert df >= 6 and stat <= CHI2_999[df], (stat, df)

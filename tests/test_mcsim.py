"""Monte Carlo protocol run: preparation, measurement, sifting, QBER."""

import math
import tracemalloc

import numpy as np
import pytest

from tfqss.channel import ChannelState, transmittance
from tfqss.core import (
    Outcome,
    Owner,
    ParameterError,
    ProtocolConfig,
    PulseTrain,
    SiftedKeys,
    SystemParams,
)
from tfqss.keyrate import gain, qber
from tfqss.mcsim import (
    DetectionRecords,
    estimate_qber,
    prepare_train,
    run_measurement,
    run_protocol,
    sift,
)

DEFAULTS = SystemParams()


def _trains(n, mu, seed, a_bits=None, b_bits=None):
    rng = np.random.default_rng(seed)
    a = (PulseTrain(Owner.ALICE, np.asarray(a_bits, dtype=np.uint8), mu)
         if a_bits is not None else prepare_train(Owner.ALICE, n, mu, rng))
    b = (PulseTrain(Owner.BOB, np.asarray(b_bits, dtype=np.uint8), mu)
         if b_bits is not None else prepare_train(Owner.BOB, n, mu, rng))
    return a, b


def _ideal_phase_bit(slot, a_bits, b_bits):
    """Reference phase difference for interior slot j, derived by hand.

    Alice's pulse k sits at combined slot 2k-1, Bob's at 2k. Even slot
    2k interferes Bob's pulse k with Alice's pulse k; odd slot 2k-1
    interferes Alice's pulse k with Bob's pulse k-1 and picks up the
    extra pi from the delay arm.
    """
    if slot % 2 == 0:
        k = slot // 2
        return int(b_bits[k - 1]) ^ int(a_bits[k - 1])
    k = (slot + 1) // 2
    return int(a_bits[k - 1]) ^ int(b_bits[k - 2]) ^ 1


# ---------------------------------------------------------------- prepare


def test_prepare_train_is_deterministic():
    one = prepare_train(Owner.ALICE, 4, 0.1, np.random.default_rng(20))
    two = prepare_train(Owner.ALICE, 4, 0.1, np.random.default_rng(20))
    assert np.array_equal(one.bits, two.bits)
    assert one.owner is Owner.ALICE
    assert one.intensity == 0.1


def test_prepare_train_single_pulse():
    train = prepare_train(Owner.BOB, 1, 0.1, np.random.default_rng(21))
    assert len(train) == 1
    assert train.bits[0] in (0, 1)


def test_prepare_train_bits_are_fair():
    train = prepare_train(Owner.ALICE, 10**6, 0.1, np.random.default_rng(22))
    assert 0.497 <= train.bits.mean() <= 0.503


@pytest.mark.parametrize("n", [1, 7, 8, 9, 100003])
def test_prepare_train_unpacks_exactly_n_fair_bits(n):
    train = prepare_train(Owner.BOB, n, 0.1, np.random.default_rng(n))
    again = prepare_train(Owner.BOB, n, 0.1, np.random.default_rng(n))
    assert len(train) == train.bits.size == n
    assert train.bits.dtype == np.uint8
    assert not train.bits.flags.writeable
    assert set(np.unique(train.bits).tolist()) <= {0, 1}
    assert abs(int(train.bits.sum()) - n / 2) <= 4.0 * math.sqrt(n / 4)
    assert np.array_equal(train.bits, again.bits)


def test_prepare_train_rejects_empty():
    with pytest.raises(ParameterError, match="n="):
        prepare_train(Owner.ALICE, 0, 0.1, np.random.default_rng(23))


# ------------------------------------------------------------ measurement


def test_run_measurement_validates_inputs():
    a, b = _trains(8, 0.1, 24)
    state = ChannelState.for_distance(50.0, DEFAULTS)
    rng = np.random.default_rng(25)
    with pytest.raises(ParameterError, match="order"):
        run_measurement(b, a, state, rng)
    short_b = PulseTrain(Owner.BOB, b.bits[:4], 0.1)
    with pytest.raises(ParameterError, match="lengths differ"):
        run_measurement(a, short_b, state, rng)
    other_mu = PulseTrain(Owner.BOB, b.bits, 0.2)
    with pytest.raises(ParameterError, match="intensity"):
        run_measurement(a, other_mu, state, rng)


def test_run_measurement_single_pair_has_no_interior_slots():
    a, b = _trains(1, 0.1, 26)
    state = ChannelState.for_distance(50.0, DEFAULTS)
    records = run_measurement(a, b, state, np.random.default_rng(27))
    assert len(records) == 0


def test_run_measurement_covers_interior_slots_once():
    n = 100
    a, b = _trains(n, 0.1, 28)
    state = ChannelState.for_distance(50.0, DEFAULTS)
    records = run_measurement(a, b, state, np.random.default_rng(29))
    assert len(records) == 2 * n - 2
    assert np.array_equal(records.slots, np.arange(2, 2 * n))


def test_run_measurement_per_click_invariants():
    # dark counts and misalignment make every outcome occur: clicks
    # ascend inside the range, D1 announces 0, D2 announces 1 and double
    # clicks announce both coin values
    params = SystemParams(dark_count_rate=0.05, misalignment=0.1)
    a, b = _trains(20_000, 0.3, 30)
    state = ChannelState(eta=0.5, params=params)
    records = run_measurement(a, b, state, np.random.default_rng(31))
    clicks, outcomes = records.clicks, records.click_outcomes
    resolved = records.click_resolved
    assert clicks.dtype == np.int64
    assert outcomes.dtype == resolved.dtype == np.uint8
    assert clicks.size == outcomes.size == resolved.size > 1000
    assert np.all(np.diff(clicks) > 0)
    assert 0 <= clicks[0] and clicks[-1] < len(records)
    assert set(np.unique(outcomes).tolist()) == {
        Outcome.D1, Outcome.D2, Outcome.DOUBLE}
    assert np.all(resolved[outcomes == Outcome.D1] == 0)
    assert np.all(resolved[outcomes == Outcome.D2] == 1)
    assert set(resolved[outcomes == Outcome.DOUBLE].tolist()) == {0, 1}


def test_noiseless_outcomes_match_hand_derived_phases():
    # perfect channel: every click resolves to the ideal phase bit,
    # checked slot by slot against an independent index derivation
    params = SystemParams(detector_efficiency=1.0, dark_count_rate=0.0,
                          misalignment=0.0)
    a, b = _trains(500, 0.499, 32)
    state = ChannelState(eta=1.0, params=params)
    records = run_measurement(a, b, state, np.random.default_rng(33))
    assert records.clicks.size > 100
    assert set(records.click_outcomes.tolist()) <= {Outcome.D1, Outcome.D2}
    for slot, bit in zip(records.slots[0] + records.clicks,
                         records.click_resolved):
        assert bit == _ideal_phase_bit(slot, a.bits, b.bits)


def test_empirical_gain_matches_analytic_gain():
    # defaults, mu=0.1, L=100, ten million pulse pairs
    n = 10**7
    mu = 0.1
    a, b = _trains(n, mu, 34)
    state = ChannelState.for_distance(100.0, DEFAULTS)
    records = run_measurement(a, b, state, np.random.default_rng(35))
    detected = records.clicks.size
    interior = 2 * n - 2
    q = gain(mu, state.eta, DEFAULTS.dark_count_rate)
    sigma = math.sqrt(q * (1.0 - q) / interior)
    assert abs(detected / interior - q) <= 3.0 * sigma


def test_clicks_on_the_first_and_last_interior_slot():
    # noiseless and lossless, so every click resolves to its slot's
    # ideal phase; seeds are tried until both end slots click
    params = SystemParams(detector_efficiency=1.0, dark_count_rate=0.0,
                          misalignment=0.0)
    state = ChannelState(eta=1.0, params=params)
    n = 3  # interior slots 2..5
    for seed in range(200):
        a, b = _trains(n, 0.499, seed)
        records = run_measurement(a, b, state, np.random.default_rng(seed))
        if records.clicks.size and records.clicks[0] == 0 \
                and records.clicks[-1] == 2 * n - 3:
            break
    else:
        pytest.fail("no run clicked on both end slots")
    for i, slot in ((0, 2), (-1, 2 * n - 1)):
        assert records.slots[0] + records.clicks[i] == slot
        assert records.click_resolved[i] == _ideal_phase_bit(
            slot, a.bits, b.bits)
    keys = sift(records, a, b)
    assert keys.slots[0] == 2 and keys.slots[-1] == 2 * n - 1
    assert np.array_equal(keys.c_bits, keys.a_bits ^ keys.b_bits)


def test_measurement_and_sift_use_under_a_byte_per_pulse_pair():
    # simulate_sparse's point: 0.41 % of the 2e7 slots click, so a
    # click-indexed run needs far less than one byte per pulse pair
    n = 10**7
    a, b = _trains(n, 0.05, 46)
    state = ChannelState.for_distance(100.0, DEFAULTS)
    rng = np.random.default_rng(47)
    tracemalloc.start()
    try:
        keys = sift(run_measurement(a, b, state, rng), a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) > 50_000
    assert peak < n, peak


# ----------------------------------------------------------------- sifting


def test_sift_keeps_only_clicks_and_aligns_bits():
    a, b = _trains(2000, 0.3, 36)
    state = ChannelState.for_distance(30.0, DEFAULTS)
    records = run_measurement(a, b, state, np.random.default_rng(37))
    keys = sift(records, a, b)
    assert len(keys) == records.clicks.size
    # each retained slot's sender bits come from the adjacent pulses
    for slot, a_bit, b_bit in zip(keys.slots[:200], keys.a_bits[:200],
                                  keys.b_bits[:200]):
        if slot % 2 == 0:
            k = slot // 2
            assert a_bit == a.bits[k - 1] and b_bit == b.bits[k - 1]
        else:
            k = (slot + 1) // 2
            assert a_bit == a.bits[k - 1] and b_bit == b.bits[k - 2]


def test_sift_noiseless_correlation_both_parities():
    params = SystemParams(detector_efficiency=1.0, dark_count_rate=0.0,
                          misalignment=0.0)
    a, b = _trains(5000, 0.4, 38)
    state = ChannelState(eta=1.0, params=params)
    records = run_measurement(a, b, state, np.random.default_rng(39))
    keys = sift(records, a, b)
    assert np.array_equal(keys.c_bits, keys.a_bits ^ keys.b_bits)
    odd = keys.slots % 2 == 1
    assert odd.any() and (~odd).any()


def test_sift_violation_fraction_matches_analytic_qber():
    n = 10**6
    mu = 0.1
    a, b = _trains(n, mu, 40)
    state = ChannelState.for_distance(100.0, DEFAULTS)
    records = run_measurement(a, b, state, np.random.default_rng(41))
    keys = sift(records, a, b)
    frac = float(np.mean(keys.c_bits != (keys.a_bits ^ keys.b_bits)))
    e = qber(mu, state.eta, DEFAULTS.dark_count_rate, DEFAULTS.misalignment)
    sigma = math.sqrt(e * (1.0 - e) / len(keys))
    assert abs(frac - e) <= 3.0 * sigma


def test_sift_rejects_out_of_range_slots():
    a, b = _trains(4, 0.1, 42)
    bad = DetectionRecords(
        slots=range(8, 9),  # interior range is [2, 7]
        clicks=np.array([0], dtype=np.int64),
        click_outcomes=np.array([Outcome.D1], dtype=np.uint8),
        click_resolved=np.array([0], dtype=np.uint8),
    )
    with pytest.raises(ParameterError, match="interior"):
        sift(bad, a, b)


def _records(slots, clicks, outcomes=None, resolved=None):
    n = len(clicks)
    return DetectionRecords(
        slots, np.asarray(clicks, dtype=np.int64),
        np.asarray(outcomes or [Outcome.D1] * n, dtype=np.uint8),
        np.asarray(resolved or [0] * n, dtype=np.uint8))


def test_records_reject_clicks_outside_their_range():
    # 4-pulse trains have interior slots 2..7; entry 6 of range(2, 8)
    # would be boundary slot 8 and entry 7 slot 9
    a, b = _trains(4, 0.1, 43)
    for bad in ([6], [7], [-1], [0, 6]):
        with pytest.raises(ParameterError, match="click entries"):
            sift(_records(range(2, 8), bad), a, b)
    with pytest.raises(ParameterError, match="equal length"):
        _records(range(2, 8), [0, 1], outcomes=[Outcome.D1])
    with pytest.raises(ParameterError, match="equal length"):
        _records(range(2, 8), [0, 1], resolved=[0, 1, 1])
    # a record over part of the interior keeps its own slots' bits
    keys = sift(_records(range(3, 8, 2), [0, 2], resolved=[1, 0]), a, b)
    assert keys.slots.tolist() == [3, 7]
    assert keys.a_bits.tolist() == [a.bits[1], a.bits[3]]
    assert keys.b_bits.tolist() == [b.bits[0], b.bits[2]]
    assert keys.c_bits.tolist() == [0, 1]  # odd slots flip the dealer


# --------------------------------------------------------- QBER estimation


def _synthetic_keys(n, planted_errors, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, n, dtype=np.uint8)
    b = rng.integers(0, 2, n, dtype=np.uint8)
    c = a ^ b
    flip = rng.choice(n, size=planted_errors, replace=False)
    c = c.copy()
    c[flip] ^= 1
    return SiftedKeys(slots=np.arange(2, n + 2), a_bits=a, b_bits=b, c_bits=c)


def test_estimate_qber_error_free():
    keys = _synthetic_keys(1000, 0, 43)
    estimate, remaining, abort = estimate_qber(
        keys, 0.25, 0.11, np.random.default_rng(44))
    assert estimate == 0.0
    assert not abort
    assert len(remaining) == 1000 - 250


def test_estimate_qber_all_mismatch_aborts():
    keys = _synthetic_keys(100, 100, 45)
    estimate, _, abort = estimate_qber(
        keys, 0.5, 0.5, np.random.default_rng(46))
    assert estimate == 1.0
    assert abort


def test_estimate_qber_zero_threshold_aborts_on_any_noise():
    keys = _synthetic_keys(100, 100, 47)
    _, _, abort = estimate_qber(keys, 0.9, 0.0, np.random.default_rng(48))
    assert abort
    clean = _synthetic_keys(100, 0, 49)
    _, _, abort = estimate_qber(clean, 0.9, 0.0, np.random.default_rng(50))
    assert not abort


def test_estimate_qber_planted_five_percent():
    n = 10**6
    keys = _synthetic_keys(n, n // 20, 51)
    estimate, remaining, _ = estimate_qber(
        keys, 0.5, 0.11, np.random.default_rng(52))
    assert 0.047 <= estimate <= 0.053
    assert len(remaining) == n - math.ceil(0.5 * n)


def test_estimate_qber_consumes_ceil_and_preserves_order():
    keys = _synthetic_keys(10, 0, 53)
    estimate, remaining, _ = estimate_qber(
        keys, 0.25, 0.11, np.random.default_rng(54))
    assert len(remaining) == 10 - 3  # ceil(0.25 * 10) = 3
    assert np.all(np.diff(remaining.slots) > 0)
    kept = np.isin(keys.slots, remaining.slots)
    assert np.array_equal(remaining.a_bits, keys.a_bits[kept])
    assert np.array_equal(remaining.c_bits, keys.c_bits[kept])


def test_estimate_qber_rejects_bad_arguments():
    keys = _synthetic_keys(10, 0, 55)
    rng = np.random.default_rng(56)
    with pytest.raises(ParameterError, match="test_fraction"):
        estimate_qber(keys, 0.0, 0.11, rng)
    with pytest.raises(ParameterError, match="abort_threshold"):
        estimate_qber(keys, 0.1, 1.5, rng)
    empty = SiftedKeys(slots=np.empty(0, dtype=np.int64),
                       a_bits=np.empty(0, dtype=np.uint8),
                       b_bits=np.empty(0, dtype=np.uint8),
                       c_bits=np.empty(0, dtype=np.uint8))
    with pytest.raises(ValueError, match="empty sifted key"):
        estimate_qber(empty, 0.1, 0.11, rng)


# ------------------------------------------------------------ full protocol


def test_run_protocol_is_reproducible():
    config = ProtocolConfig(intensity=0.05, n_pairs=100_000, distance=100.0,
                            rng_seed=5)
    one = run_protocol(DEFAULTS, config)
    two = run_protocol(DEFAULTS, config)
    assert one.detected_slots == two.detected_slots
    assert one.empirical_qber == two.empirical_qber
    assert np.array_equal(one.sifted.slots, two.sifted.slots)
    assert np.array_equal(one.sifted.c_bits, two.sifted.c_bits)
    other = run_protocol(DEFAULTS, ProtocolConfig(
        intensity=0.05, n_pairs=100_000, distance=100.0, rng_seed=6))
    # totals can collide across seeds; the click pattern cannot
    assert not np.array_equal(other.sifted.slots, one.sifted.slots)


def test_run_protocol_accounting():
    config = ProtocolConfig(intensity=0.05, n_pairs=50_000, distance=100.0,
                            rng_seed=7)
    report = run_protocol(DEFAULTS, config)
    assert report.detected_slots == (report.test_slots_consumed
                                     + len(report.sifted))
    assert report.empirical_gain == report.detected_slots / (2 * 50_000 - 2)
    assert not report.abort


def test_run_protocol_aborts_on_noisy_channel():
    noisy = SystemParams(misalignment=0.3)
    config = ProtocolConfig(intensity=0.05, n_pairs=50_000, distance=100.0,
                            rng_seed=8)
    report = run_protocol(noisy, config)
    assert report.abort
    assert report.empirical_qber > 0.11


def test_run_protocol_rejects_single_pair_and_silent_channels():
    with pytest.raises(ParameterError, match="n_pairs"):
        run_protocol(DEFAULTS, ProtocolConfig(n_pairs=1))
    dead = ProtocolConfig(intensity=1e-6, n_pairs=100, distance=600.0,
                          rng_seed=9)
    with pytest.raises(ValueError, match="no detections"):
        run_protocol(SystemParams(dark_count_rate=0.0), dead)

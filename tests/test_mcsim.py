"""Monte Carlo protocol run: preparation, measurement, sifting, QBER."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import tfqss.mcsim
from tfqss.channel import ChannelState, transmittance
from tfqss.core import (
    Outcome,
    Owner,
    ParameterError,
    ProtocolConfig,
    PulseTrain,
    SiftedKeys,
    SimulationReport,
    SystemParams,
)
from tfqss.keyrate import gain, qber
from tfqss.mcsim import (
    DetectionRecords,
    _DrawnTrain,
    _drawn_trains,
    _hypergeometric,
    _keep_mask,
    _test_sample,
    estimate_qber,
    prepare_train,
    run_measurement,
    run_protocol,
    sift,
)

DEFAULTS = SystemParams()

# the 0.999 quantile of the chi-square distribution on 14 degrees of freedom
CHI2_999_14 = 36.123
# and on 1 to 24 degrees of freedom
CHI2_999 = dict(enumerate((
    10.828, 13.816, 16.266, 18.467, 20.515, 22.458, 24.322, 26.124,
    27.877, 29.588, 31.264, 32.909, 34.528, 36.123, 37.697, 39.252,
    40.790, 42.312, 43.820, 45.315, 46.797, 48.268, 49.728, 51.179), 1))


def _trains(n, mu, seed, a_bits=None, b_bits=None):
    rng = np.random.default_rng(seed)
    a = (PulseTrain.from_bits(Owner.ALICE,
                              np.asarray(a_bits, dtype=np.uint8), mu)
         if a_bits is not None else prepare_train(Owner.ALICE, n, mu, rng))
    b = (PulseTrain.from_bits(Owner.BOB,
                              np.asarray(b_bits, dtype=np.uint8), mu)
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


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 31, 32, 33, 100003])
def test_prepare_train_draws_the_bytes_of_rng_bytes(n):
    # the packed train is rng.bytes(ceil(n/8)), and the generator is left
    # where rng.bytes leaves it
    rng = np.random.default_rng(n)
    ref = np.random.default_rng(n)
    train = prepare_train(Owner.ALICE, n, 0.1, rng)
    assert train.packed.dtype == np.uint8
    assert np.array_equal(
        train.packed, np.frombuffer(ref.bytes(-(-n // 8)), np.uint8))
    assert rng.random() == ref.random()


def test_prepare_train_allocates_only_the_packed_bytes():
    # a train keeps n/8 bytes; unpacking it, or copying the drawn bytes,
    # costs a byte per bit or more
    n = 10**6
    prepare_train(Owner.ALICE, n, 0.1, np.random.default_rng(1))  # warm-up
    tracemalloc.start()
    try:
        train = prepare_train(Owner.ALICE, n, 0.1, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(train) == n
    assert peak < 0.2 * n, peak / n


def test_prepare_train_rejects_empty():
    with pytest.raises(ParameterError, match="n="):
        prepare_train(Owner.ALICE, 0, 0.1, np.random.default_rng(23))


@pytest.mark.parametrize("n, mu, match", [
    (10.0, 0.1, "n="),
    (np.float64(8), 0.1, "n="),
    (True, 0.1, "n="),
    (8, 0.7, "intensity="),
], ids=["10.0", "8.0", "True", "intensity"])
def test_prepare_train_rejects_a_non_integer_count_before_drawing(
        n, mu, match):
    # and an intensity outside (0, 0.5), also before the first draw
    rng = np.random.default_rng(24)
    with pytest.raises(ParameterError, match=match):
        prepare_train(Owner.ALICE, n, mu, rng)
    assert rng.random() == np.random.default_rng(24).random()


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 65, 3_000_001])
def test_drawn_trains_are_the_two_prepare_train_trains(n):
    # run_protocol's trains draw their bytes again where they are read:
    # they are the bytes of two prepare_train calls, for an odd and an
    # even count of uint32 words each, and the generator goes on as
    # after those calls
    rng = np.random.default_rng(n)
    ref = np.random.default_rng(n)
    drawn = _drawn_trains(n, 0.1, rng)
    kept = (prepare_train(Owner.ALICE, n, 0.1, ref),
            prepare_train(Owner.BOB, n, 0.1, ref))
    size = -(-n // 8)
    # spans out of order, from the last byte back to the first, starting
    # on an odd word (byte 4), within one word, and sharing a word
    reads = [(size - 1, size), (4, 9), (5, 6), (6, 8), (0, 1), (1, 12),
             (0, size), (9, 17), (size // 2, size), (3, 5)]
    for train, ref_train in zip(drawn, kept):
        assert train.owner is ref_train.owner and len(train) == n
        for lo, hi in reads:
            if hi <= size:
                assert np.array_equal(train._span(lo, hi),
                                      ref_train.packed[lo:hi]), (lo, hi)
    assert rng.random() == ref.random()
    assert np.array_equal(rng.integers(0, 1 << 16, 7, dtype=np.uint16),
                          ref.integers(0, 1 << 16, 7, dtype=np.uint16))
    assert np.array_equal(rng.integers(0, 2, 5, dtype=np.uint8),
                          ref.integers(0, 2, 5, dtype=np.uint8))


# ------------------------------------------------------------ measurement


def test_run_measurement_validates_inputs():
    a, b = _trains(8, 0.1, 24)
    state = ChannelState.for_distance(50.0, DEFAULTS)
    rng = np.random.default_rng(25)
    with pytest.raises(ParameterError, match="order"):
        run_measurement(b, a, state, rng)
    short_b = PulseTrain.from_bits(Owner.BOB, b.bits[:4], 0.1)
    with pytest.raises(ParameterError, match="lengths differ"):
        run_measurement(a, short_b, state, rng)
    other_mu = PulseTrain.from_bits(Owner.BOB, b.bits, 0.2)
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


def test_run_measurement_per_click_invariants():
    # dark counts and misalignment make every outcome occur: clicks
    # ascend inside the range, D1 announces 0, D2 announces 1 and double
    # clicks announce both coin values
    params = SystemParams(dark_count_rate=0.05, misalignment=0.1)
    a, b = _trains(20_000, 0.3, 30)
    state = ChannelState(eta=0.5, params=params)
    records = run_measurement(a, b, state, np.random.default_rng(31))
    slots, outcomes = records.click_slots, records.click_outcomes
    resolved = records.click_resolved
    assert slots.dtype == np.int64
    assert outcomes.dtype == resolved.dtype == np.uint8
    assert slots.size == outcomes.size == resolved.size > 1000
    assert np.all(np.diff(slots) > 0)
    assert 2 <= slots[0] and slots[-1] < len(records) + 2
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
    assert records.click_slots.size > 100
    assert set(records.click_outcomes.tolist()) <= {Outcome.D1, Outcome.D2}
    for slot, bit in zip(records.click_slots, records.click_resolved):
        assert bit == _ideal_phase_bit(slot, a.bits, b.bits)


def test_empirical_gain_matches_analytic_gain():
    # defaults, mu=0.1, L=100, ten million pulse pairs
    n = 10**7
    mu = 0.1
    a, b = _trains(n, mu, 34)
    state = ChannelState.for_distance(100.0, DEFAULTS)
    records = run_measurement(a, b, state, np.random.default_rng(35))
    detected = records.click_slots.size
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
        if records.click_slots.size and records.click_slots[0] == 2 \
                and records.click_slots[-1] == 2 * n - 1:
            break
    else:
        pytest.fail("no run clicked on both end slots")
    for i, slot in ((0, 2), (-1, 2 * n - 1)):
        assert records.click_slots[i] == slot
        assert records.click_resolved[i] == _ideal_phase_bit(
            slot, a.bits, b.bits)
    keys = sift(records, a, b)
    assert keys.slots[0] == 2 and keys.slots[-1] == 2 * n - 1
    assert np.array_equal(keys.c_bits, keys.a_bits ^ keys.b_bits)


def _dense_inputs():
    """The trains, channel and generator of _dense_run, before it
    measures."""
    n = 2 * 10**6
    rng = np.random.default_rng(3)
    a = prepare_train(Owner.ALICE, n, 0.4, rng)
    b = prepare_train(Owner.BOB, n, 0.4, rng)
    return a, b, ChannelState.for_distance(0.0, DEFAULTS), rng


def _dense_run():
    """simulate_dense at half the length: 802,010 clicks in four sampler
    batches."""
    a, b, state, rng = _dense_inputs()
    return a, b, run_measurement(a, b, state, rng)


def test_records_carry_the_sender_bits_at_every_click():
    # the bits run_measurement read tile by tile after the sampler are
    # the rule's bits at every click's slot, on both parities
    a, b, records = _dense_run()
    assert records.click_slots.size == 802_010
    slots = records.click_slots
    assert records.click_a_bits.dtype == records.click_b_bits.dtype == np.uint8
    assert np.array_equal(records.click_a_bits, a.bits[(slots - 1) >> 1])
    assert np.array_equal(records.click_b_bits, b.bits[(slots >> 1) - 1])
    odd = slots % 2 == 1
    assert odd.any() and (~odd).any()
    # no clicks, with no interior slot or on a silent link: empty uint8
    # bit arrays
    silent = ChannelState.for_distance(
        600.0, SystemParams(dark_count_rate=0.0))
    for n_pairs in (1, 100):
        a, b = _trains(n_pairs, 1e-6, 4)
        records = run_measurement(a, b, silent, np.random.default_rng(5))
        assert records.click_slots.size == 0
        for bits in (records.click_a_bits, records.click_b_bits):
            assert bits.dtype == np.uint8 and bits.size == 0


@pytest.mark.parametrize("tile", [1, 8, 13])
def test_tiles_of_few_clicks_read_the_same_bits(monkeypatch, tile):
    # run_measurement reads the sender bits a tile of clicks at a time,
    # each tile from its own span of each train; tiles of 1, 8 and 13
    # clicks cut the click list into many tiles and spans, and the
    # record does not change
    params = SystemParams(dark_count_rate=0.05, misalignment=0.1)
    state = ChannelState(eta=0.5, params=params)
    a, b = _trains(20_000, 0.3, 30)
    default = run_measurement(a, b, state, np.random.default_rng(31))
    monkeypatch.setattr("tfqss.mcsim._TILE", tile)
    records = run_measurement(a, b, state, np.random.default_rng(31))
    slots = records.click_slots
    assert slots.size > 1000
    for name in ("click_slots", "click_outcomes", "click_resolved",
                 "click_a_bits", "click_b_bits"):
        assert np.array_equal(getattr(records, name), getattr(default, name))
    assert np.array_equal(records.click_a_bits, a.bits[(slots - 1) >> 1])
    assert np.array_equal(records.click_b_bits, b.bits[(slots >> 1) - 1])


@pytest.mark.parametrize("n", [2, 3, 7, 9, 15, 17, 33])
def test_phase_lookup_reads_trains_whose_last_byte_is_partly_used(n):
    # n bits take ceil(n/8) bytes, and prepare_train leaves random bits
    # in the unused tail of the last one. Dark counts make most slots
    # click, and seeds are tried until both end slots do: slot 2 reads
    # both senders' first bits, slot 2n-1 Alice's last bit
    params = SystemParams(detector_efficiency=1.0, dark_count_rate=0.45)
    state = ChannelState(eta=1.0, params=params)
    for seed in range(100):
        a, b = _trains(n, 0.499, seed)
        records = run_measurement(a, b, state, np.random.default_rng(seed))
        slots = records.click_slots
        if slots.size and slots[0] == 2 and slots[-1] == 2 * n - 1:
            break
    else:
        pytest.fail("no run clicked on both end slots")
    a_bits, b_bits = records.click_a_bits, records.click_b_bits
    assert np.array_equal(a_bits, a.bits[(slots - 1) >> 1])
    assert np.array_equal(b_bits, b.bits[(slots >> 1) - 1])
    assert (a_bits[0], b_bits[0]) == (a.bits[0], b.bits[0])
    assert (a_bits[-1], b_bits[-1]) == (a.bits[n - 1], b.bits[n - 2])


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


def test_measurement_allocates_each_per_click_array_once():
    # the record holds 12 bytes a click: the int64 slots and four uint8
    # arrays. The sampler's float scratch and growth slack add about
    # one more; sender bits kept per batch and joined afterwards would
    # be held twice, 16 bytes a click
    a, b, state, rng = _dense_inputs()
    tracemalloc.start()
    try:
        records = run_measurement(a, b, state, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    clicks = records.click_slots.size
    assert clicks == 802_010
    assert peak < 14 * clicks, peak / clicks


def test_dense_run_peaks_under_17_bytes_per_click():
    # simulate_dense's point at half the length: one slot in five
    # clicks, four sampler batches. The test sample lists no index of
    # every click, so the sifted key and the sample's words and mask
    # lead the peak
    config = ProtocolConfig(intensity=0.4, n_pairs=2 * 10**6, distance=0.0,
                            rng_seed=3)
    tracemalloc.start()
    try:
        report = run_protocol(DEFAULTS, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.detected_slots > 800_000
    assert peak < 17 * report.detected_slots, peak / report.detected_slots


def test_sparse_run_peaks_under_a_byte_per_pulse_pair():
    # simulate_sparse's point at a fifth of the length: 0.41 % of the
    # slots click, so the two packed trains, an eighth of a byte per
    # pulse each, and the measurement's per-click arrays and scratch
    # lead the peak; unpacked trains alone would take two bytes per pair
    config = ProtocolConfig(intensity=0.05, n_pairs=2 * 10**6,
                            distance=100.0, rng_seed=1)
    tracemalloc.start()
    try:
        report = run_protocol(DEFAULTS, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.detected_slots > 15_000
    assert peak < config.n_pairs, peak / config.n_pairs


@pytest.mark.parametrize("n_pairs, distance, bytes_per_pair", [
    (2 * 10**7, 100.0, 0.3),
    (10**8, 400.0, 0.05),
], ids=["100km", "400km"])
def test_sparse_run_keeps_no_train(n_pairs, distance, bytes_per_pair):
    # run_protocol reads no phase byte until its key is read, which
    # draws the bytes that each tile of clicks reads, at most 256 KB a
    # train, instead of keeping N/4 bytes of packed trains: near 0.14
    # bytes per pair at 100 km (0.45 with the trains kept) and 0.0006
    # at 400 km
    config = ProtocolConfig(intensity=0.05, n_pairs=n_pairs,
                            distance=distance, rng_seed=1)
    tracemalloc.start()
    try:
        report = run_protocol(DEFAULTS, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.detected_slots > 2_000
    assert peak < bytes_per_pair * n_pairs, peak / n_pairs


@pytest.mark.parametrize("span_slots, tile", [
    (2, 1 << 15), (17, 3), (1000, 7)])
def test_windows_of_few_slots_read_the_same_bits(monkeypatch, span_slots,
                                                 tile):
    # a tile holds at most _TILE clicks within _SPAN_SLOTS slots and
    # reads one span of each train; cut into many tiles by either cap,
    # trains kept or drawn where read give the same record
    params = SystemParams(dark_count_rate=0.01, misalignment=0.1)
    state = ChannelState(eta=0.1, params=params)
    n = 20_001
    kept = _trains(n, 0.3, 32)
    default = run_measurement(*kept, state, np.random.default_rng(33))
    monkeypatch.setattr("tfqss.mcsim._SPAN_SLOTS", span_slots)
    monkeypatch.setattr("tfqss.mcsim._TILE", tile)
    for a, b in (kept, _drawn_trains(n, 0.3, np.random.default_rng(32))):
        records = run_measurement(a, b, state, np.random.default_rng(33))
        assert records.click_slots.size > 1000
        for name in ("click_slots", "click_outcomes", "click_resolved",
                     "click_a_bits", "click_b_bits"):
            assert np.array_equal(getattr(records, name),
                                  getattr(default, name))


@pytest.mark.parametrize("n, mu, distance", [
    (2 * 10**6, 0.4, 0.0), (5 * 10**6, 0.05, 100.0)], ids=["dense", "sparse"])
def test_tiles_keep_to_their_click_and_slot_caps(monkeypatch, n, mu,
                                                 distance):
    # a tile ends at _TILE clicks, which cuts the dense run (one slot in
    # five clicks), or at _SPAN_SLOTS slots, which cuts the sparse one
    # (0.41 %), and reads one span of each train of at most
    # _SPAN_SLOTS // 16 + 1 bytes; the record is an unwatched run's
    state = ChannelState.for_distance(distance, DEFAULTS)

    def measure():
        rng = np.random.default_rng(3)
        return run_measurement(*_drawn_trains(n, mu, rng), state, rng)

    default = measure()
    spans = []
    span = _DrawnTrain._span

    def watched_span(self, lo, hi):
        spans.append((self.owner, hi - lo))
        return span(self, lo, hi)

    monkeypatch.setattr(_DrawnTrain, "_span", watched_span)
    records = measure()
    for name in ("click_slots", "click_outcomes", "click_resolved",
                 "click_a_bits", "click_b_bits"):
        assert np.array_equal(getattr(records, name), getattr(default, name))
    # a tile reads one span of Bob's train, then one of Alice's
    tiles = len(spans) // 2
    assert [owner for owner, _ in spans] == [Owner.BOB, Owner.ALICE] * tiles
    widest = max(size for _, size in spans)
    assert widest <= tfqss.mcsim._SPAN_SLOTS // 16 + 1
    if distance == 0.0:
        # only the click cap cuts, so the tiles are as few as it allows
        assert tiles == -(-records.click_slots.size // tfqss.mcsim._TILE)
        assert tiles > 1
    else:
        assert tiles >= 3
        assert widest > tfqss.mcsim._SPAN_SLOTS // 32


def test_a_tile_ends_before_a_gap_of_more_than_gap_slots(monkeypatch):
    # hand-made gaps over kept trains, handed to run_measurement in
    # place of the sampler's: the gap of _GAP_SLOTS + 1 slots
    # after slot 2 ends the first tile, the gap of exactly _GAP_SLOTS
    # later does not, so two tiles read two spans of each train; with
    # the cut off, one tile reads one span of each, and the record is
    # the same
    g = tfqss.mcsim._GAP_SLOTS
    n = g + 16
    rng = np.random.default_rng(43)
    a, b = _trains(n, 0.3, 0, rng.integers(0, 2, n), rng.integers(0, 2, n))
    state = ChannelState.for_distance(0.0, DEFAULTS)
    gaps = [1, g + 1, 5, g, 3]
    slots = 1 + np.cumsum(gaps)
    spans = []
    span = PulseTrain._span

    def watched_span(self, lo, hi):
        spans.append((self.owner, lo, hi))
        return span(self, lo, hi)

    def hand_made(slots, mu, eta, params, rng):
        return (np.array(gaps, dtype=np.int64),
                np.zeros(len(gaps), dtype=np.uint8))

    def measure():
        spans.clear()
        return run_measurement(a, b, state, np.random.default_rng(0))

    monkeypatch.setattr("tfqss.mcsim.detect_slots", hand_made)
    monkeypatch.setattr(PulseTrain, "_span", watched_span)
    records = measure()
    assert np.array_equal(records.click_slots, slots)
    # each train's span runs from the byte of the tile's first click to
    # the last's: slot j reads Bob's byte (j-2) >> 4, Alice's (j-1) >> 4
    assert spans == [
        (owner, (first - k) >> 4, ((last - k) >> 4) + 1)
        for first, last in ((slots[0], slots[0]), (slots[1], slots[-1]))
        for owner, k in ((Owner.BOB, 2), (Owner.ALICE, 1))]
    monkeypatch.setattr(tfqss.mcsim, "_GAP_SLOTS", 2 * n)
    uncut = measure()
    assert len(spans) == 2
    for name in ("click_slots", "click_outcomes", "click_resolved",
                 "click_a_bits", "click_b_bits"):
        assert np.array_equal(getattr(records, name), getattr(uncut, name))
    assert np.array_equal(records.click_a_bits, a.bits[(slots - 1) >> 1])
    assert np.array_equal(records.click_b_bits, b.bits[(slots >> 1) - 1])
    # every code was the matching detector's alone, so the announced bit
    # is the click's phase bit
    phase = (slots & 1) ^ records.click_a_bits ^ records.click_b_bits
    assert np.array_equal(records.click_resolved, phase)
    assert np.array_equal(records.click_outcomes, phase + 1)


# ----------------------------------------------------------------- sifting


def test_sift_keeps_only_clicks_and_aligns_bits():
    a, b = _trains(2000, 0.3, 36)
    state = ChannelState.for_distance(30.0, DEFAULTS)
    records = run_measurement(a, b, state, np.random.default_rng(37))
    keys = sift(records, a, b)
    assert len(keys) == records.click_slots.size
    # each retained slot's sender bits come from the adjacent pulses
    for slot, a_bit, b_bit in zip(keys.slots[:200], keys.a_bits[:200],
                                  keys.b_bits[:200]):
        if slot % 2 == 0:
            k = slot // 2
            assert a_bit == a.bits[k - 1] and b_bit == b.bits[k - 1]
        else:
            k = (slot + 1) // 2
            assert a_bit == a.bits[k - 1] and b_bit == b.bits[k - 2]


def test_sift_allocates_only_the_dealer_bits():
    # the record's slot numbers become the key's uncopied; an int64 slot
    # array formed from entry indices costs 8 bytes per click more
    a, b, records = _dense_run()
    tracemalloc.start()
    try:
        keys = sift(records, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    clicks = len(keys)
    assert clicks == 802_010
    assert peak < 2 * clicks, peak / clicks
    assert np.shares_memory(keys.slots, records.click_slots)


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
        n_pairs=5,  # interior range [2, 9]; the trains' is [2, 7]
        click_slots=np.array([8], dtype=np.int64),
        click_outcomes=np.array([Outcome.D1], dtype=np.uint8),
        click_resolved=np.array([0], dtype=np.uint8),
        click_a_bits=np.array([0], dtype=np.uint8),
        click_b_bits=np.array([0], dtype=np.uint8),
    )
    with pytest.raises(ParameterError, match="interior"):
        sift(bad, a, b)
    _, b5 = _trains(5, 0.1, 42)
    with pytest.raises(ParameterError, match="train lengths differ"):
        sift(_records(4, []), a, b5)


def _records(n_pairs, click_slots, outcomes=None, resolved=None,
             a_bits=None, b_bits=None):
    n = len(click_slots)
    return DetectionRecords(
        n_pairs, np.asarray(click_slots, dtype=np.int64),
        np.asarray(outcomes or [Outcome.D1] * n, dtype=np.uint8),
        np.asarray(resolved or [0] * n, dtype=np.uint8),
        np.asarray(a_bits or [0] * n, dtype=np.uint8),
        np.asarray(b_bits or [0] * n, dtype=np.uint8))


def test_records_reject_clicks_outside_their_range():
    # 4-pulse trains have interior slots 2..7; slot 8 is a boundary
    # slot, 9 lies past it and 1 is the other boundary slot
    a, b = _trains(4, 0.1, 43)
    for bad in ([8], [9], [1], [2, 8]):
        with pytest.raises(ParameterError, match="click slots"):
            sift(_records(4, bad), a, b)
    with pytest.raises(ParameterError, match="equal length"):
        _records(4, [2, 3], outcomes=[Outcome.D1])
    with pytest.raises(ParameterError, match="equal length"):
        _records(4, [2, 3], resolved=[0, 1, 1])
    with pytest.raises(ParameterError, match="equal length"):
        _records(4, [2, 3], a_bits=[1])
    with pytest.raises(ParameterError, match="equal length"):
        _records(4, [2, 3], b_bits=[0, 1, 1])
    # a record over part of the interior keeps its own slots' bits; slot
    # j carries a[(j-1)>>1] and b[(j>>1)-1]
    slots = [3, 7]
    keys = sift(_records(4, slots, resolved=[1, 0],
                         a_bits=[int(a.bits[(j - 1) >> 1]) for j in slots],
                         b_bits=[int(b.bits[(j >> 1) - 1]) for j in slots]),
                a, b)
    assert keys.slots.tolist() == [3, 7]
    assert keys.a_bits.tolist() == [a.bits[1], a.bits[3]]
    assert keys.b_bits.tolist() == [b.bits[0], b.bits[2]]
    assert keys.c_bits.tolist() == [0, 1]  # odd slots flip the dealer
    # n_pairs is an integer >= 1, stored as a Python int
    for bad in (2.5, 0, -1, True, np.bool_(True), "4", None):
        with pytest.raises(ParameterError, match="n_pairs"):
            _records(bad, [])
    record = _records(np.int64(4), [2, 7])
    assert type(record.n_pairs) is int and len(record) == 6
    assert len(_records(1, [])) == 0  # N = 1: no interior slots


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


def test_estimate_qber_result_holds_under_two_bytes_per_entry():
    # the remaining key holds the sifted key, which the caller owns, and
    # a keep mask of a byte per entry; copying its four arrays out at
    # once would hold about 10 bytes per entry
    n = 10**6
    keys = _synthetic_keys(n, n // 50, 57)
    tracemalloc.start()
    try:
        result = estimate_qber(keys, 0.1, 0.11, np.random.default_rng(58))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(result[1]) == n - 10**5
    assert held < 2 * n, held / n


def test_remaining_key_first_read_allocates_only_what_it_returns():
    # the four masked arrays take 8 + 1 + 1 + 1 = 11 bytes per remaining
    # entry; any temporary beside them shows in the peak
    n = 10**6
    keys = _synthetic_keys(n, n // 50, 57)
    _, remaining, _ = estimate_qber(keys, 0.1, 0.11,
                                    np.random.default_rng(58))
    tracemalloc.start()
    try:
        remaining.slots
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11.5 * len(remaining), peak / len(remaining)


def test_remaining_key_is_the_kept_entries_masked_once():
    n, m = 10_000, 1_000
    keys = _synthetic_keys(n, 300, 59)
    estimate, remaining, abort = estimate_qber(
        keys, 0.1, 0.11, np.random.default_rng(60))
    # a report checks its accounting from the length alone
    report = SimulationReport(
        n_pairs=n, detected_slots=n, empirical_gain=0.5,
        empirical_qber=estimate, test_slots_consumed=m, sifted=remaining,
        abort=abort)
    assert len(report.sifted) == n - m
    # the test sample is the fresh generator's first draws: the count of
    # its errors among the 300, then its positions given that count
    rng = np.random.default_rng(60)
    k = _hypergeometric(300, n, m, rng)
    assert estimate == k / m

    def errors():
        return keys.a_bits ^ keys.b_bits ^ keys.c_bits

    kept = _keep_mask(n, errors, 300, k, m, rng)
    assert np.count_nonzero(kept) == n - m
    assert np.count_nonzero(errors()[~kept]) == k
    assert isinstance(remaining, SiftedKeys)
    for name in ("slots", "a_bits", "b_bits", "c_bits"):
        arr = getattr(remaining, name)
        assert np.array_equal(arr, getattr(keys, name)[kept]), name
        assert arr.dtype == getattr(keys, name).dtype
        assert not arr.flags.writeable
        assert getattr(remaining, name) is arr
    assert len(remaining) == remaining.slots.size == n - m


def _pooled_chi2(observed, expected):
    """Pearson's statistic and its degrees of freedom, adjacent cells
    pooled from the left until each expects at least 5."""
    cells, obs, exp = [], 0.0, 0.0
    for o, e in zip(observed, expected):
        obs, exp = obs + o, exp + e
        if exp >= 5.0:
            cells.append([obs, exp])
            obs = exp = 0.0
    cells[-1][0] += obs  # the tail joins the last cell
    cells[-1][1] += exp
    return sum((o - e) ** 2 / e for o, e in cells), len(cells) - 1


@pytest.mark.parametrize("good, n, m", [
    (3, 10, 4), (20, 50, 10), (40, 1000, 100), (700, 1000, 999)])
def test_count_draw_has_the_hypergeometric_law(good, n, m):
    # the errors in a uniform m-subset of n entries, good of them errors,
    # against the exact pmf C(good, k) C(n - good, m - k) / C(n, m)
    draws = 4000
    rng = np.random.default_rng(70)
    counts = np.bincount([_hypergeometric(good, n, m, rng)
                          for _ in range(draws)], minlength=m + 1)
    pmf = np.array([math.comb(good, k) * math.comb(n - good, m - k)
                    for k in range(m + 1)], dtype=float) / math.comb(n, m)
    assert counts[pmf == 0].sum() == 0
    stat, df = _pooled_chi2(counts, draws * pmf)
    assert df >= 1
    assert stat < CHI2_999[df], (stat, df)


@pytest.mark.parametrize("good, n, m, k", [
    (0, 10, 4, 0),      # no error: none tested
    (10, 10, 4, 4),     # all errors: every tested entry
    (3, 10, 10, 3),     # m = n: every error tested
    (0, 1, 1, 0),       # one entry
    (1, 1, 1, 1),
])
def test_count_draw_at_its_edges(good, n, m, k):
    rng = np.random.default_rng(71)
    assert [_hypergeometric(good, n, m, rng) for _ in range(20)] == [k] * 20


def test_count_draw_beyond_numpys_hypergeometric_limit():
    # rng.hypergeometric raises from 10^9 good or bad entries on; the
    # pair draw takes blocks of at most 2^14 binomial pairs whatever the
    # counts, and nothing per entry
    good, n, m = 10**9 + 7, 3 * 10**9, 10**9
    rng = np.random.default_rng(72)
    tracemalloc.start()
    try:
        k = _hypergeometric(good, n, m, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6, peak
    mean = m * good / n
    sd = math.sqrt(mean * (1 - good / n) * (n - m) / (n - 1))
    assert abs(k - mean) < 6 * sd, (k, mean, sd)


def test_position_draw_gives_each_subset_with_k_errors_equally_often():
    # 6 entries, 2 of them errors, m = 3 tested: given k, the tested
    # entries are one of the C(2, k) C(4, 3 - k) subsets with k errors,
    # each equally often, and the estimate is k / m
    n, m, draws = 6, 3, 6000
    keys = _synthetic_keys(n, 2, 73)
    bad = keys.a_bits ^ keys.b_bits ^ keys.c_bits
    weights = 1 << np.arange(n)
    counts = np.zeros(1 << n, dtype=np.int64)
    rng = np.random.default_rng(74)
    for _ in range(draws):
        estimate, remaining, _ = estimate_qber(keys, 0.5, 1.0, rng)
        tested = np.ones(n, dtype=bool)
        tested[remaining.slots - 2] = False
        assert np.count_nonzero(tested) == m
        assert np.count_nonzero(bad[tested]) == round(estimate * m)
        counts[weights[tested].sum()] += 1
    stat = df = 0
    for k in range(3):
        subsets = [s for s in range(1 << n) if bin(s).count("1") == m
                   and bin(s & int(weights[bad == 1].sum())).count("1") == k]
        assert len(subsets) == math.comb(2, k) * math.comb(4, m - k)
        total = counts[subsets].sum()
        expected = total / len(subsets)
        stat += ((counts[subsets] - expected) ** 2).sum() / expected
        df += len(subsets) - 1
    assert stat < CHI2_999[df], (stat, df)


def test_estimate_qber_peaks_at_its_words_and_mask():
    # a uint16 word and a mask byte per entry, then an int64 index of the
    # about m marked entries; rng.choice(n, m) permuted 8 bytes per entry
    n = 10**6
    keys = _synthetic_keys(n, n // 50, 61)
    tracemalloc.start()
    try:
        estimate_qber(keys, 0.1, 0.11, np.random.default_rng(62))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * n, peak / n


def test_test_sample_tests_each_entry_equally_often():
    # each of n = 15 entries is tested in m = 4 of 15 draws; the
    # per-entry counts of a uniform m-subset sum to m per draw, so their
    # normalised squared deviations sum to chi-square on n - 1 = 14
    # degrees of freedom
    n, m, draws = 15, 4, 12_000
    keys = _synthetic_keys(n, 0, 63)
    rng = np.random.default_rng(64)
    kept = np.zeros(n, dtype=np.int64)
    for _ in range(draws):
        _, remaining, _ = estimate_qber(keys, 0.25, 0.11, rng)
        assert len(remaining) == n - m  # m = ceil(0.25 * 15)
        kept[remaining.slots - 2] += 1
    tested = draws - kept
    p = m / n
    chi2 = (((tested - draws * p) ** 2).sum() * (n - 1)
            / (n * draws * p * (1 - p)))
    assert chi2 < CHI2_999_14, chi2


@pytest.mark.parametrize("threshold", [1 << 13, 1 << 15, 1 << 16])
def test_test_sample_draws_each_subset_equally_often(threshold):
    # the 15 pairs of 6 entries, drawn mostly by marking more entries
    # (threshold 2^13), by both trims (2^15) or by unmarking (2^16)
    n, m, draws = 6, 2, 15_000
    rng = np.random.default_rng(65)
    weights = 1 << np.arange(n)
    counts = np.zeros(1 << n, dtype=np.int64)
    for _ in range(draws):
        counts[weights[_test_sample(n, m, threshold, rng)].sum()] += 1
    pairs = [(1 << i) | (1 << j) for i in range(n) for j in range(i)]
    assert counts[pairs].sum() == draws
    expected = draws / len(pairs)
    chi2 = ((counts[pairs] - expected) ** 2).sum() / expected
    assert chi2 < CHI2_999_14, chi2


@pytest.mark.parametrize("n, m, threshold, trim", [
    (1000, 100, 0, "add"),           # nothing marked: all m are added
    (1000, 100, 1 << 16, "drop"),    # everything marked
    (10**5, 10**4, 5898, "add"),     # 9.0 % marked, 10 % wanted
    (10**5, 10**4, 7209, "drop"),    # 11.0 % marked
    (10**5, 9976, 6553, "none"),     # exactly m below the threshold
])
def test_test_sample_trims_to_exactly_m_both_ways(n, m, threshold, trim):
    # the marked entries are the generator's first n uint16 words below
    # the threshold; an added entry must be unmarked, a dropped one marked
    marked = np.random.default_rng(66).integers(
        0, 2**16, n, dtype=np.uint16) < threshold
    k = np.count_nonzero(marked)
    assert {"add": k < m, "drop": k > m, "none": k == m}[trim], k
    test = _test_sample(n, m, threshold, np.random.default_rng(66))
    assert test.dtype == bool and test.shape == (n,)
    assert np.count_nonzero(test) == m
    if k <= m:
        assert np.all(test[marked])
    else:
        assert np.all(marked[test])


@pytest.mark.parametrize("n, test_fraction", [
    (1, 0.5),                      # one entry, tested
    (10, 0.95),                    # m = n
    (1000, 0.999),                 # the threshold saturates at 2^16
    (1000, math.nextafter(1.0, 0.0)),  # m = n, saturated
    (1000, 5e-324),                # m = 1
])
def test_estimate_qber_at_the_edge_sizes(n, test_fraction):
    keys = _synthetic_keys(n, n // 3, 67)
    estimate, remaining, _ = estimate_qber(
        keys, test_fraction, 0.5, np.random.default_rng(68))
    m = math.ceil(test_fraction * n)
    assert len(remaining) == remaining.slots.size == n - m
    # the estimate counts exactly the errors outside the remaining key
    errors = np.count_nonzero(keys.a_bits ^ keys.b_bits ^ keys.c_bits)
    left = np.count_nonzero(
        remaining.a_bits ^ remaining.b_bits ^ remaining.c_bits)
    assert estimate == (errors - left) / m


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


def test_run_protocol_checks_threshold_and_link_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before checking")

    # run_protocol draws its trains with _drawn_trains and its clicks
    # with detect_slots
    monkeypatch.setattr("tfqss.mcsim._drawn_trains", no_draw)
    monkeypatch.setattr("tfqss.mcsim.detect_slots", no_draw)
    config = ProtocolConfig(n_pairs=10**7)
    with pytest.raises(ParameterError, match="abort_threshold=2.0"):
        run_protocol(DEFAULTS, config, qber_abort_threshold=2.0)
    far = ProtocolConfig(n_pairs=10**8, distance=100_000.0)
    with pytest.raises(ParameterError, match="link too long"):
        run_protocol(SystemParams(attenuation=50.0), far)


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


@pytest.mark.parametrize("args, detected, printed_qber", [
    ((4 * 10**6, 0.0, 0.4), 1_606_089, "2.001755817e-02"),
    ((10**7, 100.0, 0.05), 81_444, "1.915285451e-02"),
], ids=["dense", "sparse"])
def test_seed_one_reproduces_the_readme_numbers(args, detected, printed_qber):
    # the simulate_dense and simulate_sparse runs of the benchmark at
    # seed 1; a change to the random stream moves these numbers
    n_pairs, distance, mu = args
    report = run_protocol(DEFAULTS, ProtocolConfig(
        intensity=mu, n_pairs=n_pairs, distance=distance, rng_seed=1))
    assert report.detected_slots == detected
    assert f"{report.empirical_qber:.9e}" == printed_qber


def _sifted_digest(keys):
    digest = hashlib.sha256()
    for arr in (keys.slots, keys.a_bits, keys.b_bits, keys.c_bits):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def test_multi_batch_run_reproduces_its_pinned_keys():
    # 802,010 clicks take four sampler batches; the digest covers every
    # remaining key bit, so it pins the whole stream: trains, gaps,
    # categories, coins and the QBER test sample
    report = run_protocol(DEFAULTS, ProtocolConfig(
        intensity=0.4, n_pairs=2 * 10**6, distance=0.0, rng_seed=3))
    assert report.detected_slots == 802_010
    assert report.sifted.slots.dtype == np.int64
    assert _sifted_digest(report.sifted) == (
        "726ea7b6379998706329e0aaee30bdfa40156a4178122fe703fea506b2810bb6")


def test_sparse_run_reproduces_its_pinned_keys():
    # simulate_sparse's point at a fifth of the length, where
    # run_measurement reads the bits of a few clicks from each stretch
    # of the packed trains
    report = run_protocol(DEFAULTS, ProtocolConfig(
        intensity=0.05, n_pairs=2 * 10**6, distance=100.0, rng_seed=3))
    assert report.detected_slots == 16_399
    assert _sifted_digest(report.sifted) == (
        "36f32bfc05c72f71011f99dd4483a9e123997ec911ce89c1b16e8be051222c38")


def test_double_heavy_run_reproduces_its_pinned_records():
    # dark counts at 0.2 and misalignment at 0.2 make one click in six a
    # double: the digest pins every per-click array of the record,
    # outcomes, coins and sender bits included
    params = SystemParams(dark_count_rate=0.2, misalignment=0.2)
    rng = np.random.default_rng(5)
    a = prepare_train(Owner.ALICE, 200_000, 0.45, rng)
    b = prepare_train(Owner.BOB, 200_000, 0.45, rng)
    records = run_measurement(
        a, b, ChannelState.for_distance(0.0, params), rng)
    assert records.click_slots.size == 200_933
    assert np.count_nonzero(records.click_outcomes == Outcome.DOUBLE) == 33_071
    digest = hashlib.sha256()
    for name in ("click_slots", "click_outcomes", "click_resolved",
                 "click_a_bits", "click_b_bits"):
        digest.update(np.ascontiguousarray(getattr(records, name)).tobytes())
    assert digest.hexdigest() == (
        "e806d4cd994e8171dcc11b9e612a1ce2afdae8fcd393faf54a9182163a34340f")


@pytest.mark.parametrize("p_d, e_d", [(0.2, 0.2), (0.4999, 0.02)])
def test_double_clicks_err_by_a_fair_coin_whatever_the_phase(p_d, e_d):
    # a double click announces a fair coin, turned with its phase phi =
    # (j & 1) ^ a ^ b, so its error bit a ^ b ^ c = phi ^ resolved is a
    # fair coin independent of phi. Per seed, the squared z of the
    # announced and the error bits and the 2x2 chi-square of (phi,
    # error) stay below the 0.999 quantile on one degree of freedom
    state = ChannelState.for_distance(0.0, SystemParams(
        dark_count_rate=p_d, misalignment=e_d))
    for seed in range(4):
        rng = np.random.default_rng(seed)
        a, b = _trains(50_000, 0.45, seed)
        records = run_measurement(a, b, state, rng)
        double = records.click_outcomes == Outcome.DOUBLE
        slots = records.click_slots[double]
        phi = (slots.astype(np.uint8) & 1) ^ records.click_a_bits[double]
        phi ^= records.click_b_bits[double]
        announced = records.click_resolved[double]
        error = phi ^ announced
        n = phi.size
        assert n > 5_000
        table = np.bincount(2 * phi + error, minlength=4).reshape(2, 2)
        for bits in (announced, error):
            z = (2 * np.count_nonzero(bits) - n) / math.sqrt(n)
            assert z * z < CHI2_999[1], (seed, table)
        expected = np.outer(table.sum(1), table.sum(0)) / n
        chi2 = ((table - expected) ** 2 / expected).sum()
        assert chi2 < CHI2_999[1], (seed, table)


def _record_path(system, config, qber_abort_threshold):
    """run_protocol's report fields from the whole record: both trains
    drawn, every click measured and sifted, estimate_qber on the key;
    None where the run has no click."""
    rng = np.random.default_rng(config.rng_seed)
    a = prepare_train(Owner.ALICE, config.n_pairs, config.intensity, rng)
    b = prepare_train(Owner.BOB, config.n_pairs, config.intensity, rng)
    state = ChannelState.for_distance(config.distance, system)
    keys = sift(run_measurement(a, b, state, rng), a, b)
    if len(keys) == 0:
        return None
    estimate, remaining, abort = estimate_qber(
        keys, config.test_fraction, qber_abort_threshold, rng)
    return (len(keys), estimate, len(keys) - len(remaining), abort,
            _sifted_digest(remaining))


def test_run_protocol_reports_what_the_whole_record_gives():
    # run_protocol counts every click's error from the announced bit
    # alone and reads no sender bit; the record path reads them at
    # every click. From one seed both give the same report and the same
    # sifted key, on double-heavy channels too, and at N = 2 and 3, the
    # shortest trains, and odd N
    regimes = [(1e-8, 0.02), (0.01, 0.1), (0.2, 0.2), (0.3, 0.45)]
    compared = doubles = 0
    for (p_d, e_d), distance, mu, n_pairs, test_fraction in itertools.product(
            regimes, (0.0, 100.0), (0.05, 0.45), (2, 3, 1001, 40_001),
            (0.1, 0.9)):
        system = SystemParams(dark_count_rate=p_d, misalignment=e_d)
        config = ProtocolConfig(intensity=mu, n_pairs=n_pairs,
                                distance=distance, rng_seed=n_pairs,
                                test_fraction=test_fraction)
        expected = _record_path(system, config, 1.0)
        if expected is None:
            with pytest.raises(ValueError, match="no detections"):
                run_protocol(system, config, 1.0)
            continue
        report = run_protocol(system, config, 1.0)
        assert (report.detected_slots, report.empirical_qber,
                report.test_slots_consumed, report.abort,
                _sifted_digest(report.sifted)) == expected, (
            p_d, e_d, distance, mu, n_pairs, test_fraction)
        compared += 1
        doubles += p_d >= 0.2 and n_pairs > 3
    # the runs of 2 or 3 pairs at 100 km mostly do not click
    assert compared >= 100 and doubles >= 30


def _dense_report():
    """run_protocol's seed-3 dense run, traced from the start: the
    report, the memory it holds and the run's peak, in bytes per click.
    A short run first loads what numpy imports on first use."""
    run_protocol(DEFAULTS, ProtocolConfig(n_pairs=1000, distance=0.0))
    config = ProtocolConfig(intensity=0.4, n_pairs=2 * 10**6, distance=0.0,
                            rng_seed=3)
    tracemalloc.start()
    try:
        report = run_protocol(DEFAULTS, config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.detected_slots == 802_010
    return report, held / 802_010, peak / 802_010


def test_dense_report_holds_under_2_bytes_per_click():
    # until its sifted key is first read, the report holds the keep mask,
    # a byte per click, and a saved generator state: no per-click record
    # (13 bytes a click while the sifted key was kept)
    report, held, _ = _dense_report()
    assert held < 2.0, held
    assert len(report.sifted) == 802_010 - 80_201


def test_dense_run_peaks_under_12_5_bytes_per_click():
    # the run peaks in the sampler, at each click's int64 gap and code
    # and its float scratch: no per-click outcome array, and no slot
    # numbers, which run_protocol does not need (13 bytes a click with
    # both). The QBER test sample meets only the error bits, a byte per
    # click, not the 11 of the sifted key
    _, _, peak = _dense_report()
    assert peak < 12.5, peak


def test_double_heavy_run_peaks_under_12_bytes_per_click():
    # dark counts at 0.4999 make 38.5 % of the clicks doubles. The run
    # counts their errors from the sampler's codes as it does the single
    # clicks', and a double is a bit of its click's code, so the run
    # peaks in the sampler as a dense one does: 14.3 bytes a click while
    # the sampler listed the doubles' int64 indices apart, 18.2 while
    # the run numbered, measured and sifted them apart
    run_protocol(DEFAULTS, ProtocolConfig(n_pairs=1000, distance=0.0))
    config = ProtocolConfig(intensity=0.45, n_pairs=10**6, distance=0.0,
                            rng_seed=5)
    tracemalloc.start()
    try:
        report = run_protocol(SystemParams(dark_count_rate=0.4999), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    clicks = report.detected_slots
    assert clicks == 1_611_065
    assert peak < 12 * clicks, peak / clicks


def test_run_protocol_measures_nothing_until_the_key_is_read(monkeypatch):
    # every click's error bit is the sampler's announced bit, so the
    # report runs no run_measurement or sift and draws no train span,
    # doubles or not; the first read of the sifted key measures and
    # sifts every click once, and a later read measures none
    system = SystemParams(dark_count_rate=0.2, misalignment=0.2)
    config = ProtocolConfig(intensity=0.45, n_pairs=20_000, distance=0.0,
                            rng_seed=5)
    calls = []
    measure, sifted, span = (tfqss.mcsim.run_measurement, tfqss.mcsim.sift,
                             _DrawnTrain._span)

    def watched_measure(a, b, state, rng):
        records = measure(a, b, state, rng)
        calls.append(("run_measurement", records.click_slots.size))
        return records

    def watched_sift(records, a, b):
        calls.append(("sift", records.click_slots.size))
        return sifted(records, a, b)

    def watched_span(self, lo, hi):
        calls.append(("_span", hi - lo))
        return span(self, lo, hi)

    monkeypatch.setattr(tfqss.mcsim, "run_measurement", watched_measure)
    monkeypatch.setattr(tfqss.mcsim, "sift", watched_sift)
    monkeypatch.setattr(_DrawnTrain, "_span", watched_span)
    report = run_protocol(system, config, 1.0)
    assert len(report.sifted) == (report.detected_slots
                                  - report.test_slots_consumed)
    assert calls == []
    keys = report.sifted.slots
    clicks = report.detected_slots
    assert [c for c in calls if c[0] != "_span"] == [
        ("run_measurement", clicks), ("sift", clicks)]
    assert any(name == "_span" for name, _ in calls)
    assert keys.size == len(report.sifted)
    read = len(calls)
    for name in ("slots", "a_bits", "b_bits", "c_bits"):
        getattr(report.sifted, name)
    assert len(calls) == read


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

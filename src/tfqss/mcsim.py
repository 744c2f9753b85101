"""Event-level Monte Carlo of one protocol run.

Alice's pulse k (bit index k-1, zero-based) occupies combined slot
2k-1, Bob's pulse k occupies slot 2k. The dealer's interferometer
overlaps every pulse with its predecessor, so interior detection slot
j in [2, 2N-1] sits between two sender pulses, and one rule gives the
bits of both:

    alice = a[(j - 1) >> 1],  bob = b[(j >> 1) - 1]

That is bits a[k-1], b[k-1] on even slot j = 2k and a[k-1], b[k-2] on
odd slot j = 2k-1. Slot j carries ideal phase difference
pi * (alice XOR bob XOR (j & 1)), where the extra XOR on odd slots is
the pi shift the interferometer applies to Alice's pulses on one arm.
The two boundary slots (1 and 2N) lack a partner pulse and are
discarded, leaving 2N-2 interior slots; the empirical gain is
detected/(2N-2).

Sifting keeps clicked slots, flips the dealer's bit on odd slots (which
cancels that pi shift), and keeps the sender bits read by the same rule,
so that c = a XOR b holds exactly on every retained slot of a noiseless
run, for both slot parities.

The run is click-indexed: nothing is stored per slot. A train packs
its bits eight to a byte, and run_protocol keeps not even those bytes:
its trains (_DrawnTrain) are plain records of a copy of the generator
and its next word, and draw again only the bytes that run_measurement
reads, at most 256 KB a train at a time whatever N is.
run_measurement draws the clicks of the interior slots first
(channel.detect_slots, phase-free), which gives each click's gap from
the click before, and numbers every click by its slot with one prefix
sum over those gaps, in place; then _measure walks them once in tiles
and applies the rule above only there: it reads each sender bit once,
straight from its packed byte, nothing unpacked, and channel.shift_phase
applies each click's phase. The record of a run is its clicks:
DetectionRecords keeps n_pairs plus, per click, the slot, outcome,
announced bit and the two sender bits, each array allocated once. sift
adds only the dealer's flipped bit and passes the record's arrays on
uncopied.

The QBER test sample is drawn in two steps. With K errors among the n
sifted entries, the count draw (_estimate) draws k, the errors among
m = ceil(test_fraction * n) tested entries, from its hypergeometric
law, with no work per entry; the estimate is k/m. The position draw
(_keep_mask) then picks a uniform k-subset of the errors and a
uniform (m - k)-subset of the rest. The remaining keys' arrays are
masked out only when a caller first reads them, so a run that
reports only the remaining count copies none.

run_protocol builds no whole record. A single click's error bit
a ^ b ^ c is the port the sampler drew for phase 0, whatever the
phase: 0 where the matching detector fired alone, 1 where the wrong
one did (run_protocol's docstring has the derivation). So it counts
K from the sampler's announced bits, and runs the record path (the
tile loop, then sift) on the double clicks alone, whose error bit
depends on the senders' bits. It numbers only those: the sampler
lists the doubles' indices, and their slots are the gaps summed up
to each. It makes the count draw and no position draw: its sifted
key is measured and sifted again on its first read, from a copy of
the generator saved after the trains, and the test positions are
drawn then, from a copy saved after the count draw. So the key is
the one the whole record gives. One seeded generator is
consumed in this order: Alice's packed phase bytes, Bob's (which
run_protocol skips, and draws again from copies of the generator
where they are read), then per sampler batch the click gaps'
uniforms and, per run of its draw of the clicks where the wrong
detector fires, that run's gap uniforms, one uniform per such click
and one coin per double click (channel's module docstring), then the
count draw's blocks of binomial pairs, then the position draw: a
uint16 word per entry without error and, unless exactly m - k words
fall below its threshold, one rng.choice of the entries to unmark or
to add, then the same over the errors for k.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelState, detect_slots, shift_phase
from .core import (
    Outcome,
    Owner,
    ParameterError,
    ProtocolConfig,
    PulseTrain,
    SiftedKeys,
    SimulationReport,
    SystemParams,
    _as_count,
    _check_intensity,
)

# A tile of run_measurement holds at most this many clicks: its one
# int64 index buffer, allocated once, and the uint8 temporaries of each
# tile, at most 32 KB each, then stay in cache however many slots click.
_TILE = 1 << 15

# A tile also spans at most this many slots, so the span of bytes it
# reads of each train, which a train of run_protocol draws again for it,
# is at most 256 KB whatever N is.
_SPAN_SLOTS = 1 << 22

# A tile also ends before a window of this many slots with no click.
# One more tile costs about 43 us (two advance and random_raw calls, about
# 1.5 us a train, and the tile's other numpy calls), and a span about
# 0.036 ns a slot (a raw 64-bit word, 2.3 ns, holds 128 slots' bits of
# a train, and each tile draws two trains): the two break even at a gap
# of about 1.2e6 slots, measured on 2-CPU x86_64, numpy 2.4.6. Windows
# of 2^19 slots cut every gap of 2^20 slots or more and none below 2^19.
# The whole-record path's clicks lie far closer than that.
_GAP_SLOTS = 1 << 19

# A test sample's positions (_subset) mark each entry whose uint16
# word, one of _WORDS values, falls below a threshold this many
# standard deviations of the marked count above m/n, so that fewer than
# m are marked with probability below about 1e-9 and the trim to
# exactly m unmarks only about 1.4 % of a dense run's marked entries.
# The sample is uniform whichever way it trims.
_SAMPLE_SIGMAS = 6.0
_WORDS = 1 << 16

# The count draw (_hypergeometric) draws at most this many binomial
# pairs a block: 256 KB of int64 temporaries however many entries.
_PAIRS = 1 << 14


def prepare_train(
    owner: Owner, n: int, mu: float, rng: np.random.Generator
) -> PulseTrain:
    """Draw n fair phase bits for one sender at intensity mu.

    The bits are the first n bits, most significant bit first, of the
    ceil(n/8) bytes that rng.bytes(ceil(n/8)) would return: the bytes
    of ceil(n/32) uniform uint32 words in little-endian order. The
    train keeps them packed. n and mu are checked before the first draw.
    """
    count = _as_count(n, "n")
    _check_intensity(mu)
    words = rng.integers(0, 2**32, -(-count // 32), dtype=np.uint32)
    packed = words.astype("<u4", copy=False).view(np.uint8)[:-(-count // 8)]
    return PulseTrain(owner, packed, count, mu)


@dataclass
class _DrawnTrain:
    """A train of prepare_train's bytes, drawn again where they are read.

    Its bytes are bytes [base, base + ceil(n/8)) of the little-endian
    64-bit words that bit_generator, which the train owns, gives from
    its state at construction; at is the generator's next word. _span
    draws the words that hold the bytes asked for, moving the generator
    to the first of them with advance, which takes a negative step
    modulo 2**128, the period, so spans come back in any order. It
    stands in for a PulseTrain where run_measurement and sift read one:
    owner, intensity, len and _span.
    """

    owner: Owner
    n: int
    intensity: float
    bit_generator: np.random.BitGenerator
    base: int
    at: int = 0

    def __len__(self) -> int:
        return self.n

    def _span(self, lo: int, hi: int) -> np.ndarray:
        lo += self.base
        hi += self.base
        first, stop = lo >> 3, (hi + 7) >> 3
        self.bit_generator.advance(first - self.at)
        self.at = stop
        words = self.bit_generator.random_raw(stop - first)
        skip = first << 3
        return words.astype("<u8", copy=False).view(np.uint8)[
            lo - skip:hi - skip]


def _drawn_trains(n: int, mu: float, rng: np.random.Generator
                  ) -> tuple[_DrawnTrain, _DrawnTrain]:
    """Alice's and Bob's prepare_train trains, drawn where they are read.

    Two prepare_train calls take 2*ceil(n/32) uint32 words, the low then
    the high half of each of ceil(n/32) 64-bit words, when rng holds no
    buffered half-word, as a fresh generator does. So Alice's bytes
    start at byte 0 of those 64-bit words and Bob's at byte
    4*ceil(n/32); rng skips the words, and draws on as after the calls.
    """
    words = -(-n // 32)
    bits = rng.bit_generator
    a = _DrawnTrain(Owner.ALICE, n, mu, copy.deepcopy(bits), 0)
    b = _DrawnTrain(Owner.BOB, n, mu, copy.deepcopy(bits), 4 * words)
    bits.advance(words)
    return a, b


@dataclass(frozen=True, eq=False)
class DetectionRecords:
    """The dealer's record of one run: its clicks, nothing per slot.

    n_pairs is N, the pulses per sender, so the run covers the interior
    slots [2, 2N-1]. click_slots holds the ascending slot numbers that
    clicked, click_outcomes their Outcome values, click_resolved their
    announced bits (0 for D1, 1 for D2, a fair coin for DOUBLE), and
    click_a_bits and click_b_bits Alice's and Bob's bits at each click
    by the module docstring's rule, as run_measurement read them.
    Every other interior slot did not click.
    """

    n_pairs: int
    click_slots: np.ndarray     # int64 slot numbers
    click_outcomes: np.ndarray  # uint8 Outcome values
    click_resolved: np.ndarray  # uint8 announced bits
    click_a_bits: np.ndarray    # uint8 Alice's bits
    click_b_bits: np.ndarray    # uint8 Bob's bits

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_pairs", _as_count(self.n_pairs, "n_pairs"))
        n = self.click_slots.size
        if not (self.click_outcomes.size == self.click_resolved.size
                == self.click_a_bits.size == self.click_b_bits.size == n):
            raise ParameterError("per-click arrays must have equal length")
        last = 2 * self.n_pairs - 1
        if n and (self.click_slots.min() < 2
                  or self.click_slots.max() > last):
            raise ParameterError(f"click slots outside [2, {last}]")

    def __len__(self) -> int:
        return 2 * self.n_pairs - 2


def run_measurement(
    a: PulseTrain | _DrawnTrain,
    b: PulseTrain | _DrawnTrain,
    state: ChannelState,
    rng: np.random.Generator,
) -> DetectionRecords:
    """Interfere the two trains and record the interior slots' clicks.

    Slot outcomes follow the channel's threshold-detector model applied
    to each slot's ideal phase difference. The clicks are drawn first
    (channel.detect_slots over the slots [2, 2N-1]); their gaps are
    summed in place into their slot numbers, and their outcomes are the
    announced bits plus 1, DOUBLE at the sampler's doubles. _measure
    then reads the sender bits at the clicked slots only, by the module
    docstring's rule; the record keeps them for sift. N = 1 yields no
    interior slots.
    """
    if a.owner is not Owner.ALICE or b.owner is not Owner.BOB:
        raise ParameterError("expected trains in (alice, bob) order")
    if len(a) != len(b):
        raise ParameterError(
            f"train lengths differ: {len(a)} != {len(b)}")
    if a.intensity != b.intensity:
        raise ParameterError("senders must use the same intensity")

    # the range goes positionally: bench/tracing.py counts the slots
    # from the first argument
    gaps, resolved, doubles = detect_slots(
        range(2, 2 * len(a)), a.intensity, state.eta, state.params, rng)
    # the first gap counts from slot 1; the clicks are numbered in place
    gaps[:1] += 1
    slots = np.cumsum(gaps, out=gaps)
    outcomes = resolved + 1
    outcomes[doubles] = Outcome.DOUBLE
    return _measure(a, b, slots, outcomes, resolved)


def _measure(
    a: PulseTrain | _DrawnTrain,
    b: PulseTrain | _DrawnTrain,
    slots: np.ndarray,
    outcomes: np.ndarray,
    resolved: np.ndarray,
) -> DetectionRecords:
    """The record of some of detect_slots' clicks, phases applied.

    slots, outcomes and resolved are the ascending int64 slot numbers,
    uint8 Outcome values and announced bits of detect_slots' clicks over
    the trains' interior (run_measurement builds them from its gaps,
    announced bits and doubles), or of a subset of those clicks; the
    record takes outcomes and resolved over and applies the phases to
    them in place. One pass walks the clicks in tiles of at most _TILE
    clicks within _SPAN_SLOTS slots, each ending also before a window of
    _GAP_SLOTS slots with no click, so that clicks far apart, as
    run_protocol's double clicks often are, fall in tiles of their own.
    Each train gives a tile the span of its bytes from the tile's first
    click to its last (its _span), which run_protocol's trains draw
    again for it: at most 256 KB each.
    The pass reads each click's two bits from those bytes and applies
    the tile's phase bits (channel.shift_phase). It preallocates one
    int64 index buffer; the rest is uint8 temporaries of at most 32 KB
    per tile.
    """
    clicks = slots.size
    a_bits = np.empty(clicks, dtype=np.uint8)
    b_bits = np.empty(clicks, dtype=np.uint8)
    index = np.empty(min(_TILE, clicks), dtype=np.int64)
    lo = 0
    while lo < clicks:
        # a tile is at most _TILE clicks within _SPAN_SLOTS slots of its
        # first. Slot j reads b[(j>>1)-1] = b[(j-2)>>1] and a[(j-1)>>1].
        # Bit i is bit i & 7, most significant first, of byte i >> 3:
        # with k = 2 for Bob and 1 for Alice, the bit sits in byte
        # (j-k) >> 4 at shift ((j-k) >> 1) & 7, which the low byte of j
        # gives. Each train's span runs from the first click's byte to
        # the last click's
        j = slots[lo:lo + _TILE]
        j = j[:np.searchsorted(j, j[0] + _SPAN_SLOTS)]
        if j[-1] - j[0] >= 2 * _GAP_SLOTS:
            # the tile ends before the first of its windows of
            # _GAP_SLOTS slots from j[0] that holds no click, whose bytes
            # its spans would draw for nothing; a gap of 2 _GAP_SLOTS
            # between two clicks holds such a window
            edges = np.searchsorted(j, range(int(j[0]) + _GAP_SLOTS,
                                             int(j[-1]) + 1, _GAP_SLOTS))
            empty = np.flatnonzero(edges[1:] == edges[:-1])
            if empty.size:
                j = j[:edges[empty[0]]]
        m = j.size
        at = index[:m]
        low = j.astype(np.uint8)  # j mod 256
        ab, bb = a_bits[lo:lo + m], b_bits[lo:lo + m]
        for train, k, out in ((b, 2, bb), (a, 1, ab)):
            first = (int(j[0]) - k) >> 4
            span = train._span(first, ((int(j[-1]) - k) >> 4) + 1)
            np.subtract(j, k + (first << 4), out=at)
            at >>= 4
            np.take(span, at, out=out)
            out >>= 7 - (((low - k) >> 1) & 7)
            out &= 1
        low &= 1  # the odd slots' pi shift, then the phase difference
        low ^= ab ^ bb
        shift_phase(outcomes[lo:lo + m], resolved[lo:lo + m], low)
        lo += m
    return DetectionRecords(len(a), slots, outcomes, resolved, a_bits,
                            b_bits)


def sift(
    records: DetectionRecords, a: PulseTrain | _DrawnTrain,
    b: PulseTrain | _DrawnTrain
) -> SiftedKeys:
    """Keep clicked slots and align the three parties' bits.

    The dealer flips his announced bit on odd slots; afterwards every
    retained slot satisfies c = a XOR b up to channel noise. The slots
    and sender bits are the record's own, which run_measurement read at
    the clicks by the module docstring's rule; they are passed on
    uncopied, and only the dealer's bits are allocated.
    """
    n = len(a)
    if len(b) != n:
        raise ParameterError(f"train lengths differ: {n} != {len(b)}")
    if records.n_pairs != n:
        raise ParameterError(
            f"record interior [2, {2 * records.n_pairs - 1}] is not the "
            f"trains' interior [2, {2 * n - 1}]")
    c_bits = records.click_slots.astype(np.uint8)
    c_bits &= 1
    c_bits ^= records.click_resolved
    return SiftedKeys(records.click_slots, records.click_a_bits,
                      records.click_b_bits, c_bits)


class _RemainingKeys(SiftedKeys):
    """The entries of a sifted key outside its QBER test sample, in order.

    Its length is given. rebuild gives the sifted key and its keep
    mask: it is called once, on the first read of any of the four
    arrays, which masks all four out of that key and checks them as
    SiftedKeys does; rebuild is let go then. From estimate_qber,
    rebuild returns the key it was given and the mask it drew, a byte
    per entry; from run_protocol it holds nothing per entry: it
    measures and sifts the run again from a saved generator state, then
    draws the test positions (_keep_mask) from another. A caller that
    only counts the remaining entries copies none and rebuilds nothing.
    """

    def __init__(self, count: int,
                 rebuild: Callable[[], tuple[SiftedKeys, np.ndarray]]
                 ) -> None:
        object.__setattr__(self, "_rebuild", rebuild)
        object.__setattr__(self, "_count", count)

    def __len__(self) -> int:
        return self._count

    @cached_property
    def _keys(self) -> SiftedKeys:
        keys, keep = self.__dict__.pop("_rebuild")()
        return SiftedKeys(keys.slots[keep], keys.a_bits[keep],
                          keys.b_bits[keep], keys.c_bits[keep])

    slots = property(lambda self: self._keys.slots)
    a_bits = property(lambda self: self._keys.a_bits)
    b_bits = property(lambda self: self._keys.b_bits)
    c_bits = property(lambda self: self._keys.c_bits)


def estimate_qber(
    sifted: SiftedKeys,
    test_fraction: float,
    abort_threshold: float,
    rng: np.random.Generator,
) -> tuple[float, SiftedKeys, bool]:
    """Announce a random sample and estimate the error rate on it.

    Consumes m = ceil(test_fraction * len) slots, a uniformly random
    m-subset of the sifted key; returns (estimate, remaining keys in
    original order, abort flag). Raises on an empty sifted key. With K
    the errors a ^ b ^ c of the key, it draws k, the errors in the
    sample, from their hypergeometric law (_estimate), then the sample
    given k (_keep_mask): a uniform k-subset of the errors and a
    uniform (m - k)-subset of the rest. The estimate is k / m. The
    remaining keys hold the sifted key and the sample's keep mask, a
    byte per sifted entry: their length is known at once, and their
    arrays are masked out on their first read, so a caller's writes to
    the arrays that the sifted key views show in them until then.
    """
    _check_abort_threshold(abort_threshold, "abort_threshold")
    n = len(sifted)
    bad = int(np.count_nonzero(_error_bits(sifted)))
    m, k = _estimate(n, bad, test_fraction, rng)
    keep = _keep_mask(n, lambda: _error_bits(sifted), bad, k, m, rng)
    estimate = k / m
    return (estimate, _RemainingKeys(n - m, lambda: (sifted, keep)),
            estimate > abort_threshold)


def _error_bits(keys: SiftedKeys) -> np.ndarray:
    """Each entry's uint8 error bit a ^ b ^ c, in a new array."""
    bits = keys.a_bits ^ keys.b_bits
    bits ^= keys.c_bits
    return bits


def _estimate(n: int, bad: int, test_fraction: float,
              rng: np.random.Generator) -> tuple[int, int]:
    """The count draw of a QBER test sample: (m, k).

    m = ceil(test_fraction * n) of n entries, bad of them errors, are
    tested, and k, the errors among them, is drawn from its law
    (_hypergeometric), with no work per entry: the errors of a uniform
    m-subset, with no subset drawn. test_fraction is checked before the
    draw, then n > 0.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ParameterError(
            f"test_fraction={test_fraction!r} outside (0, 1)")
    if n == 0:
        raise ValueError("empty sifted key; nothing to sample")
    m = math.ceil(test_fraction * n)
    return m, _hypergeometric(bad, n, m, rng)


def _hypergeometric(good: int, n: int, m: int,
                    rng: np.random.Generator) -> int:
    """One draw of the good entries in a uniform m-subset of n.

    With p = m / n, draws pairs X ~ Bin(good, p), Y ~ Bin(n - good, p)
    in blocks and returns the first X with X + Y = m. Given X + Y = m,
    X has the hypergeometric law C(good, x) C(n - good, m - x) / C(n,
    m) whatever p is, so the draw is exact for every count, beyond the
    10^9 that rng.hypergeometric admits too. p = m / n makes X + Y = m
    likeliest, with probability about 1 / sqrt(2 pi m (1 - p)), and a
    block is about the reciprocal in pairs, at most _PAIRS.
    """
    p = m / n
    block = min(_PAIRS, int(math.sqrt(2.0 * math.pi * m * (1.0 - p))) + 1)
    while True:
        x = rng.binomial(good, p, block)
        y = rng.binomial(n - good, p, block)
        y += x
        hit = np.flatnonzero(y == m)
        if hit.size:
            return int(x[hit[0]])


def _keep_mask(n: int, errors: Callable[[], np.ndarray], bad: int, k: int,
               m: int, rng: np.random.Generator) -> np.ndarray:
    """The position draw of a QBER test sample, given its k errors.

    errors gives the n entries' uint8 error bits, bad of them set, in
    an array this draw overwrites. The sample is a uniform (m - k)-subset
    of the entries without error (_subset), then a uniform k-subset of
    the bad ones: given k, a uniform m-subset of all n. errors is called
    after the first draw, so its array and that draw's words are not
    held at once. Returns the keep mask, the sample's complement.
    """
    rest = _subset(n - bad, m - k, rng)
    hits = _subset(bad, k, rng)
    mask = errors().view(bool)
    keep = np.empty(n, dtype=bool)
    keep[mask] = np.logical_not(hits, out=hits)
    np.logical_not(mask, out=mask)
    keep[mask] = np.logical_not(rest, out=rest)
    return keep


def _subset(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random m-subset of range(n), as a bool mask.

    _test_sample's draw, with its threshold _SAMPLE_SIGMAS standard
    deviations of the marked count above m / n; an empty or a full
    subset draws nothing.
    """
    if m in (0, n):
        return np.full(n, m > 0)
    p = m / n
    threshold = math.ceil(
        _WORDS * (p + _SAMPLE_SIGMAS * math.sqrt(p * (1.0 - p) / n)))
    return _test_sample(n, m, min(threshold, _WORDS), rng)


def _test_sample(n: int, m: int, threshold: int,
                 rng: np.random.Generator) -> np.ndarray:
    """A uniformly random m-subset of range(n), as a bool mask.

    Draws one uint16 word per entry and marks the K entries whose word
    is below threshold (at most _WORDS, which marks all). Given K, the
    marked set is a uniform K-subset, so unmarking K - m of its entries
    chosen uniformly, or marking m - K of the unmarked ones, leaves a
    uniform m-subset: the distribution of rng.choice(n, m,
    replace=False), without its n-long int64 index. Only the K marked
    positions are listed, and the unmarked ones too where fewer than m
    are marked, which happens with probability below about 1e-9.
    """
    test = rng.integers(0, _WORDS, n, dtype=np.uint16) < threshold
    marked = np.flatnonzero(test)
    k = marked.size
    if k > m:
        test[marked[rng.choice(k, k - m, replace=False)]] = False
    elif k < m:
        add = rng.choice(n - k, m - k, replace=False)
        test[np.flatnonzero(~test)[add]] = True
    return test


def _check_abort_threshold(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name}={value!r} outside [0, 1]")


def run_protocol(
    system: SystemParams,
    config: ProtocolConfig,
    qber_abort_threshold: float = 0.11,
) -> SimulationReport:
    """Full seeded run: trains, measurement, sifting, QBER estimate.

    All randomness (phase bits, detector draws, test sampling) comes
    from one generator seeded with config.rng_seed, so reruns with an
    identical config reproduce the report exactly. The trains are the
    bytes two prepare_train calls would draw, but drawn where they are
    read (_drawn_trains), so no N-bit train is kept. Requires n_pairs >= 2
    (shorter trains have no interior slots) and at least one detection.
    The threshold and the link are checked before the first draw.

    The QBER needs each click's error bit a ^ b ^ c, and only the
    double clicks need sender bits for it. With phi = (j & 1) ^ a ^ b
    the phase of slot j, detect_slots announces the port it drew for
    phase 0 (0 for the matching detector alone, 1 for the wrong one
    alone) or, for a double click, a coin. For a single click,
    shift_phase sets resolved = port ^ phi and sift sets c = resolved
    ^ (j & 1), so a ^ b ^ c = port: the announced bit as drawn. For a
    double click resolved stays the coin, so a ^ b ^ c = phi ^ coin,
    which the record path (_measure, then sift) gives on the doubles
    alone. detect_slots lists the doubles' indices among its clicks,
    so only their slots are numbered: one np.add.reduceat sums the
    gaps between consecutive doubles, and a prefix sum over those few
    sums gives their slots; no other click is numbered or scanned.
    The count of those bits is all the QBER's count draw (_estimate)
    needs. The random stream is the record path's, so the report is
    the one a whole record would give. The report keeps no sifted key
    and no test positions: on the first read of report.sifted's arrays
    the key is measured and sifted again, from a copy of the generator
    saved after the trains, and the positions drawn (_keep_mask) from
    a copy saved after the count draw (see _RemainingKeys).
    """
    if config.n_pairs < 2:
        raise ParameterError(
            f"n_pairs={config.n_pairs!r} must be >= 2 to measure anything")
    _check_abort_threshold(qber_abort_threshold, "qber_abort_threshold")
    state = ChannelState.for_distance(config.distance, system)
    rng = np.random.default_rng(config.rng_seed)
    a, b = _drawn_trains(config.n_pairs, config.intensity, rng)
    trains = copy.deepcopy(rng.bit_generator)
    gaps, errors, doubles = detect_slots(
        range(2, 2 * config.n_pairs), config.intensity, state.eta,
        state.params, rng)
    detected = errors.size
    if detected == 0:
        raise ValueError(
            "no detections; increase n_pairs, intensity, or shorten the link")
    # only the doubles are numbered: the gaps summed up to each, from
    # slot 1
    slots = np.empty(0, dtype=np.int64)
    if doubles.size:
        starts = np.concatenate(([0], doubles[:-1] + 1))
        slots = np.add.reduceat(gaps[:doubles[-1] + 1], starts)
        np.cumsum(slots, out=slots)
        slots += 1
    keys = sift(_measure(a, b, slots,
                         np.full(doubles.size, Outcome.DOUBLE, dtype=np.uint8),
                         errors[doubles]), a, b)
    errors[doubles] = keys.a_bits ^ keys.b_bits ^ keys.c_bits
    bad = int(np.count_nonzero(errors))
    # only the error count meets the QBER test sample
    del gaps, errors, doubles, slots, keys
    m, k = _estimate(detected, bad, config.test_fraction, rng)
    positions = copy.deepcopy(rng.bit_generator)

    def rebuild() -> tuple[SiftedKeys, np.ndarray]:
        keys = sift(run_measurement(a, b, state, np.random.Generator(trains)),
                    a, b)
        return keys, _keep_mask(detected, lambda: _error_bits(keys), bad, k,
                                m, np.random.Generator(positions))

    estimate = k / m
    return SimulationReport(
        n_pairs=config.n_pairs,
        detected_slots=detected,
        empirical_gain=detected / (2 * config.n_pairs - 2),
        empirical_qber=estimate,
        test_slots_consumed=m,
        sifted=_RemainingKeys(detected - m, rebuild),
        abort=estimate > qber_abort_threshold,
    )

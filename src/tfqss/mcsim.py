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
cancels that pi shift), and reads the sender bits by the same rule, so
that c = a XOR b holds exactly on every retained slot of a noiseless
run, for both slot parities.

The run is click-indexed: apart from the two N-bit trains nothing is
stored per slot. run_measurement draws the click positions first
(channel.sample_clicks) and applies the rule above only there. The
record of a run is its clicks, as the dealer announces them:
DetectionRecords keeps the slot range plus one entry index, outcome and
announced bit per click, with no per-slot view, and sift gathers the
sender bits at the clicks. One seeded generator is consumed in this
order: Alice's packed phase bytes, Bob's, then per sampler batch the
gap uniforms, category uniforms and coins, then the QBER test sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# detect_slots is not called here; it stays importable as
# tfqss.mcsim.detect_slots, which bench/tracing.py wraps (the
# benchmark's traced run fails without it)
from .channel import ChannelState, detect_slots, sample_clicks  # noqa: F401
from .core import (
    Owner,
    ParameterError,
    ProtocolConfig,
    PulseTrain,
    SiftedKeys,
    SimulationReport,
    SystemParams,
)


def prepare_train(
    owner: Owner, n: int, mu: float, rng: np.random.Generator
) -> PulseTrain:
    """Draw n fair phase bits for one sender at intensity mu.

    The bits are the first n bits of ceil(n/8) random bytes, unpacked
    most significant bit first.
    """
    if n < 1:
        raise ParameterError(f"n={n!r} must be >= 1")
    packed = np.frombuffer(rng.bytes(-(-n // 8)), dtype=np.uint8)
    return PulseTrain(owner=owner, bits=np.unpackbits(packed, count=n),
                      intensity=mu)


@dataclass(frozen=True, eq=False)
class DetectionRecords:
    """The dealer's record of one run: its clicks, nothing per slot.

    slots is the range of combined slots the run covers; entry i of it
    is slot slots[i]. clicks holds the ascending entry indices of the
    slots that clicked, click_outcomes their Outcome values and
    click_resolved their announced bits (0 for D1, 1 for D2, a fair
    coin for DOUBLE). Every other slot of the range did not click.
    """

    slots: range                # combined-slot indices
    clicks: np.ndarray          # int64 entry indices of the clicks
    click_outcomes: np.ndarray  # uint8 Outcome values
    click_resolved: np.ndarray  # uint8 announced bits

    def __post_init__(self) -> None:
        n = self.clicks.size
        if not self.click_outcomes.size == self.click_resolved.size == n:
            raise ParameterError("per-click arrays must have equal length")
        if n and (self.clicks.min() < 0
                  or self.clicks.max() >= len(self.slots)):
            raise ParameterError(
                f"click entries outside [0, {len(self.slots)})")

    def __len__(self) -> int:
        return len(self.slots)


def run_measurement(
    a: PulseTrain,
    b: PulseTrain,
    state: ChannelState,
    rng: np.random.Generator,
) -> DetectionRecords:
    """Interfere the two trains and record the interior slots' clicks.

    Slot outcomes follow the channel's threshold-detector model applied
    to each slot's ideal phase difference. The clicks are drawn first
    (channel.sample_clicks), and the module docstring's rule gives the
    phase bits at the clicks only. N = 1 yields no interior slots.
    """
    if a.owner is not Owner.ALICE or b.owner is not Owner.BOB:
        raise ParameterError("expected trains in (alice, bob) order")
    if len(a) != len(b):
        raise ParameterError(
            f"train lengths differ: {len(a)} != {len(b)}")
    if a.intensity != b.intensity:
        raise ParameterError("senders must use the same intensity")

    def phase_at(entries: np.ndarray) -> np.ndarray:
        # entry e is slot j = e + 2: a[(j-1)>>1] = a[(e+1)>>1],
        # b[(j>>1)-1] = b[e>>1], and j is odd where e is
        odd = entries.astype(np.uint8) & 1
        return a.bits[(entries + 1) >> 1] ^ b.bits[entries >> 1] ^ odd

    n = len(a)
    clicks, outcomes, resolved = sample_clicks(
        2 * n - 2, phase_at, a.intensity, state.eta, state.params, rng)
    return DetectionRecords(range(2, 2 * n), clicks, outcomes, resolved)


def sift(
    records: DetectionRecords, a: PulseTrain, b: PulseTrain
) -> SiftedKeys:
    """Keep clicked slots and align the three parties' bits.

    The dealer flips his announced bit on odd slots; afterwards every
    retained slot satisfies c = a XOR b up to channel noise. Sender bits
    are read only at the clicked slots, by the module docstring's rule.
    """
    n = len(a)
    if len(b) != n:
        raise ParameterError(f"train lengths differ: {n} != {len(b)}")
    slots = records.slots
    interior = range(2, 2 * n)
    if slots and (slots[0] not in interior or slots[-1] not in interior):
        raise ParameterError("record slots outside interior range")
    kept_slots = slots.start + slots.step * records.clicks
    return SiftedKeys(
        slots=kept_slots,
        a_bits=a.bits[(kept_slots - 1) >> 1],
        b_bits=b.bits[(kept_slots >> 1) - 1],
        c_bits=records.click_resolved ^ kept_slots.astype(np.uint8) & 1,
    )


def estimate_qber(
    sifted: SiftedKeys,
    test_fraction: float,
    abort_threshold: float,
    rng: np.random.Generator,
) -> tuple[float, SiftedKeys, bool]:
    """Announce a random sample and estimate the error rate on it.

    Consumes ceil(test_fraction * len) slots, chosen without
    replacement; returns (estimate, remaining keys in original order,
    abort flag). Raises on an empty sifted key.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ParameterError(
            f"test_fraction={test_fraction!r} outside (0, 1)")
    if not 0.0 <= abort_threshold <= 1.0:
        raise ParameterError(
            f"abort_threshold={abort_threshold!r} outside [0, 1]")
    n = len(sifted)
    if n == 0:
        raise ValueError("empty sifted key; nothing to sample")
    m = min(n, max(1, math.ceil(test_fraction * n)))
    test_idx = rng.choice(n, size=m, replace=False)
    mismatch = sifted.c_bits != (sifted.a_bits ^ sifted.b_bits)
    estimate = float(np.mean(mismatch[test_idx]))
    keep = np.ones(n, dtype=bool)
    keep[test_idx] = False
    remaining = SiftedKeys(
        slots=sifted.slots[keep],
        a_bits=sifted.a_bits[keep],
        b_bits=sifted.b_bits[keep],
        c_bits=sifted.c_bits[keep],
    )
    return estimate, remaining, estimate > abort_threshold


def run_protocol(
    system: SystemParams,
    config: ProtocolConfig,
    qber_abort_threshold: float = 0.11,
) -> SimulationReport:
    """Full seeded run: trains, measurement, sifting, QBER estimate.

    All randomness (phase bits, detector draws, test sampling) comes
    from one generator seeded with config.rng_seed, so reruns with an
    identical config reproduce the report exactly. Requires n_pairs >= 2
    (shorter trains have no interior slots) and at least one detection.
    """
    if config.n_pairs < 2:
        raise ParameterError("n_pairs must be >= 2 to measure anything")
    rng = np.random.default_rng(config.rng_seed)
    a = prepare_train(Owner.ALICE, config.n_pairs, config.intensity, rng)
    b = prepare_train(Owner.BOB, config.n_pairs, config.intensity, rng)
    state = ChannelState.for_distance(config.distance, system)
    records = run_measurement(a, b, state, rng)
    sifted_all = sift(records, a, b)
    detected = len(sifted_all)
    interior = 2 * config.n_pairs - 2
    if detected == 0:
        raise ValueError(
            "no detections; increase n_pairs, intensity, or shorten the link")
    estimate, remaining, abort = estimate_qber(
        sifted_all, config.test_fraction, qber_abort_threshold, rng)
    return SimulationReport(
        n_pairs=config.n_pairs,
        detected_slots=detected,
        empirical_gain=detected / interior,
        empirical_qber=estimate,
        test_slots_consumed=detected - len(remaining),
        sifted=remaining,
        abort=abort,
    )

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, detect_slots
from .core import (
    DetectionRecord,
    Outcome,
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
    """Draw n fair phase bits for one sender at intensity mu."""
    if n < 1:
        raise ParameterError(f"n={n!r} must be >= 1")
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    return PulseTrain(owner=owner, bits=bits, intensity=mu)


@dataclass(frozen=True, eq=False)
class DetectionRecords:
    """Array-backed sequence of DetectionRecord, one per interior slot.

    slots is a range (the slot of entry i is implied by its index), so
    slicing with any step stays a range and stores nothing per slot.
    """

    slots: range          # combined-slot indices
    outcomes: np.ndarray  # uint8 Outcome values
    resolved: np.ndarray  # uint8 announced bits; 0 placeholder at no-clicks

    def __len__(self) -> int:
        return len(self.outcomes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return DetectionRecords(
                self.slots[i], self.outcomes[i], self.resolved[i])
        outcome = Outcome(int(self.outcomes[i]))
        bit = None if outcome is Outcome.NO_CLICK else int(self.resolved[i])
        return DetectionRecord(
            slot=self.slots[i], outcome=outcome, resolved_bit=bit)

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


def run_measurement(
    a: PulseTrain,
    b: PulseTrain,
    state: ChannelState,
    rng: np.random.Generator,
) -> DetectionRecords:
    """Interfere the two trains and record every interior slot.

    Slot outcomes follow the channel's threshold-detector model applied
    to each slot's ideal phase difference, built by the module
    docstring's rule (vectorized form of channel.detect_slot). N = 1
    yields no interior slots.
    """
    if a.owner is not Owner.ALICE or b.owner is not Owner.BOB:
        raise ParameterError("expected trains in (alice, bob) order")
    if len(a) != len(b):
        raise ParameterError(
            f"train lengths differ: {len(a)} != {len(b)}")
    if a.intensity != b.intensity:
        raise ParameterError("senders must use the same intensity")
    n = len(a)
    ideal = np.empty(2 * n - 2, dtype=np.uint8)
    np.bitwise_xor(a.bits[:-1], b.bits[:-1], out=ideal[0::2])  # j = 2k
    np.bitwise_xor(a.bits[1:], b.bits[:-1], out=ideal[1::2])   # j = 2k-1
    ideal[1::2] ^= 1  # pi shift on Alice's delayed pulses (odd slots)
    outcomes, resolved = detect_slots(
        ideal, a.intensity, state.eta, state.params, rng)
    return DetectionRecords(range(2, 2 * n), outcomes, resolved)


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
    clicked = np.flatnonzero(np.asarray(records.outcomes) != Outcome.NO_CLICK)
    kept_slots = slots.start + slots.step * clicked
    return SiftedKeys(
        slots=kept_slots,
        a_bits=a.bits[(kept_slots - 1) >> 1],
        b_bits=b.bits[(kept_slots >> 1) - 1],
        c_bits=np.asarray(records.resolved)[clicked] ^ (kept_slots & 1),
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

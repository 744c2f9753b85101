"""Shared types for the twin-field differential-phase-shift QSS model.

Two senders (Alice, Bob) transmit phase-modulated weak coherent pulse
trains to a measuring dealer (Charlie). Alice's pulses occupy odd
combined slots 2k-1, Bob's occupy even slots 2k; the dealer interferes
adjacent slots and announces which detector clicked. Everything
downstream (simulation, analytic rates, bounds, leakage analysis)
shares the parameter records and result containers defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

MAX_INTENSITY = 0.5  # privacy factor (1 - 2*mu) must stay positive
_SEED_BOUND = 2**64


class ParameterError(ValueError):
    """A field is outside its admissible range."""


class Owner(Enum):
    ALICE = "alice"
    BOB = "bob"


class Outcome(IntEnum):
    """Dealer detection result for one combined slot."""

    NO_CLICK = 0
    D1 = 1  # phase difference 0
    D2 = 2  # phase difference pi
    DOUBLE = 3


@dataclass(frozen=True)
class SystemParams:
    """Hardware/channel parameters, defaulted to the reference setup.

    detector_efficiency: eta_d, single detector efficiency in (0, 1].
    dark_count_rate: p_d, dark count probability per detector per slot.
    attenuation: fiber loss in dB/km.
    ec_efficiency: error correction inefficiency f >= 1.
    misalignment: e_d, probability a photon hits the wrong detector.
    """

    detector_efficiency: float = 0.56
    dark_count_rate: float = 1e-8
    attenuation: float = 0.167
    ec_efficiency: float = 1.16
    misalignment: float = 0.02

    def __post_init__(self) -> None:
        validate_params(self)


def validate_params(params: SystemParams) -> None:
    """Raise ParameterError naming the first out-of-range field."""
    eta_d = params.detector_efficiency
    if not 0.0 < eta_d <= 1.0:
        raise ParameterError(
            f"detector_efficiency={eta_d!r} outside (0, 1]")
    p_d = params.dark_count_rate
    if not 0.0 <= p_d < 0.5:
        raise ParameterError(
            f"dark_count_rate={p_d!r} outside [0, 0.5)")
    if not 0.0 < params.attenuation < math.inf:
        raise ParameterError(
            f"attenuation={params.attenuation!r} must be finite and > 0 dB/km")
    if not 1.0 <= params.ec_efficiency < math.inf:
        raise ParameterError(
            f"ec_efficiency={params.ec_efficiency!r} must be finite and >= 1")
    e_d = params.misalignment
    if not 0.0 <= e_d < 0.5:
        raise ParameterError(
            f"misalignment={e_d!r} outside [0, 0.5)")


@dataclass(frozen=True)
class ProtocolConfig:
    """One simulated run: pulse-train size, link, randomness, sampling.

    intensity: mean photon number mu per pulse, in (0, 0.5).
    n_pairs: N, pulses per sender; the combined train has 2N slots.
    distance: total Alice-Bob distance in km (each arm is half).
    rng_seed: master seed; all randomness in a run derives from it.
    test_fraction: fraction of sifted slots announced for QBER.
    """

    intensity: float = 0.05
    n_pairs: int = 10**6
    distance: float = 100.0
    rng_seed: int = 1
    test_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.intensity < MAX_INTENSITY:
            raise ParameterError(
                f"intensity={self.intensity!r} outside (0, {MAX_INTENSITY})")
        if not (isinstance(self.n_pairs, int) and self.n_pairs >= 1):
            raise ParameterError(
                f"n_pairs={self.n_pairs!r} must be an integer >= 1")
        if not self.distance >= 0.0:
            raise ParameterError(
                f"distance={self.distance!r} must be >= 0 km")
        if not (isinstance(self.rng_seed, int)
                and 0 <= self.rng_seed < _SEED_BOUND):
            raise ParameterError(
                f"rng_seed={self.rng_seed!r} must be a 64-bit unsigned int")
        if not 0.0 < self.test_fraction < 1.0:
            raise ParameterError(
                f"test_fraction={self.test_fraction!r} outside (0, 1)")


def _as_bit_array(bits: np.ndarray, name: str) -> np.ndarray:
    """Coerce to a read-only uint8 array of {0,1} values."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ParameterError(f"{name} must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ParameterError(f"{name} must contain only 0/1 values")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class PulseTrain:
    """One sender's phase bits for a run; bit i modulates pulse i.

    Alice's bit i rides combined slot 2i+1, Bob's rides slot 2i+2.
    The bits array is read-only once constructed.
    """

    owner: Owner
    bits: np.ndarray
    intensity: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", _as_bit_array(self.bits, "bits"))
        if self.bits.size < 1:
            raise ParameterError("pulse train must contain at least one bit")
        if not 0.0 < self.intensity < MAX_INTENSITY:
            raise ParameterError(
                f"intensity={self.intensity!r} outside (0, {MAX_INTENSITY})")

    def __len__(self) -> int:
        return int(self.bits.size)


@dataclass(frozen=True, eq=False)
class SiftedKeys:
    """Post-sifting aligned bits, one entry per retained slot.

    c_bits holds the dealer's bit after the odd-slot flip, so the
    correlation is c = a XOR b on every entry of a noiseless run.
    """

    slots: np.ndarray
    a_bits: np.ndarray
    b_bits: np.ndarray
    c_bits: np.ndarray

    def __post_init__(self) -> None:
        slots = np.asarray(self.slots, dtype=np.int64)
        slots.flags.writeable = False
        object.__setattr__(self, "slots", slots)
        for name in ("a_bits", "b_bits", "c_bits"):
            object.__setattr__(
                self, name, _as_bit_array(getattr(self, name), name))
        n = self.slots.size
        if not (self.a_bits.size == self.b_bits.size
                == self.c_bits.size == n):
            raise ParameterError("sifted arrays must have equal length")
        if n and slots.min() < 2:
            raise ParameterError("sifted slots must be interior (>= 2)")

    def __len__(self) -> int:
        return int(self.slots.size)


@dataclass(frozen=True)
class RateBreakdown:
    """Analytic rate at one (intensity, distance) point, with factors."""

    gain: float
    qber: float
    collision: float
    privacy_term: float
    ec_term: float
    rate: float


@dataclass(frozen=True)
class RatePoint:
    """One distance sample of a rate-vs-distance scan."""

    distance: float
    mu_opt: float
    gain: float
    qber: float
    rate: float
    plob: float
    repeaterless: float
    dps_baseline: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.gain <= 1.0:
            raise ParameterError(f"gain={self.gain!r} outside [0, 1]")
        if not 0.0 <= self.qber <= 1.0:
            raise ParameterError(f"qber={self.qber!r} outside [0, 1]")
        for name in ("rate", "plob", "repeaterless", "dps_baseline"):
            if not getattr(self, name) >= 0.0:
                raise ParameterError(f"{name} must be >= 0")


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Aggregate of one Monte Carlo run.

    empirical_gain is detected_slots / (2N - 2); empirical_qber is the
    mismatch fraction on the announced test sample; sifted holds the
    surviving (non-test) slots in original order.
    """

    n_pairs: int
    detected_slots: int
    empirical_gain: float
    empirical_qber: float
    test_slots_consumed: int
    sifted: SiftedKeys
    abort: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.empirical_gain <= 1.0:
            raise ParameterError("empirical_gain outside [0, 1]")
        if not 0.0 <= self.empirical_qber <= 1.0:
            raise ParameterError("empirical_qber outside [0, 1]")
        if self.detected_slots != self.test_slots_consumed + len(self.sifted):
            raise ParameterError(
                "detected_slots must equal test slots plus sifted slots")

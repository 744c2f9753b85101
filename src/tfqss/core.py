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
import operator
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
        # the first out-of-range field is named
        eta_d = self.detector_efficiency
        if not 0.0 < eta_d <= 1.0:
            raise ParameterError(
                f"detector_efficiency={eta_d!r} outside (0, 1]")
        p_d = self.dark_count_rate
        if not 0.0 <= p_d < 0.5:
            raise ParameterError(f"dark_count_rate={p_d!r} outside [0, 0.5)")
        loss, f_ec = self.attenuation, self.ec_efficiency
        if not 0.0 < loss < math.inf:
            raise ParameterError(
                f"attenuation={loss!r} must be finite and > 0 dB/km")
        if not 1.0 <= f_ec < math.inf:
            raise ParameterError(
                f"ec_efficiency={f_ec!r} must be finite and >= 1")
        e_d = self.misalignment
        if not 0.0 <= e_d < 0.5:
            raise ParameterError(f"misalignment={e_d!r} outside [0, 0.5)")


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
        _check_intensity(self.intensity)
        object.__setattr__(self, "n_pairs", _as_count(self.n_pairs, "n_pairs"))
        if not self.distance >= 0.0:
            raise ParameterError(
                f"distance={self.distance!r} must be >= 0 km")
        rng_seed = _as_int(self.rng_seed)
        if rng_seed is None or not 0 <= rng_seed < _SEED_BOUND:
            raise ParameterError(
                f"rng_seed={self.rng_seed!r} must be a 64-bit unsigned int")
        object.__setattr__(self, "rng_seed", rng_seed)
        if not 0.0 < self.test_fraction < 1.0:
            raise ParameterError(
                f"test_fraction={self.test_fraction!r} outside (0, 1)")


def _check_intensity(intensity: float) -> None:
    """Raise unless the mean photon number lies in (0, MAX_INTENSITY)."""
    if not 0.0 < intensity < MAX_INTENSITY:
        raise ParameterError(
            f"intensity={intensity!r} outside (0, {MAX_INTENSITY})")


def _as_int(value: object) -> int | None:
    """value as an int if operator.index takes it and it is no bool."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _as_count(value: object, name: str) -> int:
    """value as an int >= 1; raises a ParameterError naming it if not."""
    count = _as_int(value)
    if count is None or count < 1:
        raise ParameterError(f"{name}={value!r} must be an integer >= 1")
    return count


def _as_int_view(values: np.ndarray, name: str,
                 dtype: type[np.integer]) -> np.ndarray:
    """A read-only 1-D view of integer values as dtype.

    Bool counts as integer; a float, complex or object array raises
    unless it is empty (numpy reads [] as float64). The view is frozen,
    not the array it views, so the caller can still write their own.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ParameterError(f"{name} must be one-dimensional")
    if arr.size and arr.dtype.kind not in "biu":
        raise ParameterError(f"{name} must hold integers, not {arr.dtype}")
    arr = arr.astype(dtype, copy=False).view()
    arr.flags.writeable = False
    return arr


def _as_bit_array(bits: np.ndarray, name: str) -> np.ndarray:
    """A read-only uint8 view of bits, checked to hold only {0,1}."""
    arr = np.asarray(bits)
    # before the cast to uint8, which would wrap 257 and -255 to 1
    if arr.size and arr.dtype.kind in "iu" and (
            arr.max() > 1 or (arr.dtype.kind == "i" and arr.min() < 0)):
        raise ParameterError(f"{name} must contain only 0/1 values")
    return _as_int_view(arr, name, np.uint8)


@dataclass(frozen=True, eq=False)
class PulseTrain:
    """One sender's phase bits for a run; bit i modulates pulse i.

    Alice's bit i rides combined slot 2i+1, Bob's rides slot 2i+2.
    The n bits are stored packed, most significant bit first, in the
    ceil(n/8) bytes of the read-only packed array; bits unpacks them on
    demand. from_bits builds a train from an array of bits.
    """

    owner: Owner
    packed: np.ndarray
    n: int
    intensity: float

    def __post_init__(self) -> None:
        packed = np.asarray(self.packed)
        if packed.dtype != np.uint8 or packed.ndim != 1:
            raise ParameterError("packed must be a 1-D uint8 array")
        n = _as_int(self.n)
        if n is None or n < 1:
            raise ParameterError("pulse train must contain at least one bit")
        if packed.size != -(-n // 8):
            raise ParameterError(
                f"packed holds {packed.size} bytes, not ceil({n}/8)")
        _check_intensity(self.intensity)
        packed = packed.view()
        packed.flags.writeable = False
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "n", n)

    @classmethod
    def from_bits(cls, owner: Owner, bits: np.ndarray,
                  intensity: float) -> "PulseTrain":
        """The train of a one-dimensional array of {0,1} bits."""
        arr = _as_bit_array(bits, "bits")
        return cls(owner, np.packbits(arr), arr.size, intensity)

    @property
    def bits(self) -> np.ndarray:
        """The n bits, unpacked into a fresh read-only uint8 array."""
        bits = np.unpackbits(self.packed, count=self.n)
        bits.flags.writeable = False
        return bits

    def _span(self, lo: int, hi: int) -> np.ndarray:
        """Bytes [lo, hi) of packed, which hold bits [8*lo, 8*hi)."""
        return self.packed[lo:hi]

    def __len__(self) -> int:
        return self.n


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
        slots = _as_int_view(self.slots, "slots", np.int64)
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
    surviving (non-test) slots in original order. From run_protocol,
    sifted holds its length and two saved generator states, nothing per
    click: the first read of its arrays measures and sifts the run
    again, about the cost of the run's record path, draws the test
    sample's positions given its error count, then masks them out.
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

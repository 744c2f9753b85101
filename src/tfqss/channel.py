"""Fiber transmittance and the dealer's threshold-detector model.

Each sender is half the total distance from the dealer, so one arm sees
eta = eta_d * 10^(-alpha*L/20) for total sender-sender distance L. A
combined slot carrying ideal phase difference 0 (pi) sends its light to
detector D1 (D2); misalignment diverts a photon to the wrong detector
with probability e_d, and each detector dark-fires independently with
probability p_d per slot. Photon numbers are Poissonian, detectors are
threshold (click on >= 1 photon or a dark count), and double clicks are
kept and later resolved to a fair coin bit.

The exact per-slot click probability is 1 - (1-p_d)^2 e^(-mu*eta),
which differs from the linearized analytic gain 1 - (1-2 p_d) e^(-mu*eta)
by p_d^2 e^(-mu*eta), i.e. below 1e-12 for p_d <= 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_INTENSITY, Outcome, ParameterError, SystemParams

# Slot draws are consumed from the generator in fixed-size chunks so that
# the random stream layout (and thus every outcome) is reproducible for a
# given seed regardless of how many slots one call processes.
_CHUNK = 1 << 20


def transmittance(distance: float, params: SystemParams) -> float:
    """Arm transmittance eta = eta_d * 10^(-alpha*L/20).

    distance is the total sender-to-sender length in km; each arm covers
    half of it, hence the /20 in the exponent.
    """
    if distance < 0.0:
        raise ParameterError(f"distance={distance!r} must be >= 0 km")
    return params.detector_efficiency * 10.0 ** (
        -params.attenuation * distance / 20.0)


def click_probability(mu: float, eta: float, params: SystemParams) -> float:
    """Exact model probability that at least one detector clicks."""
    p_d = params.dark_count_rate
    return 1.0 - (1.0 - p_d) ** 2 * math.exp(-mu * eta)


@dataclass(frozen=True)
class ChannelState:
    """Frozen per-run channel view: one arm transmittance plus params."""

    eta: float
    params: SystemParams

    def __post_init__(self) -> None:
        if not 0.0 < self.eta <= self.params.detector_efficiency:
            raise ParameterError(
                f"eta={self.eta!r} outside (0, detector_efficiency]")

    @classmethod
    def for_distance(cls, distance: float,
                     params: SystemParams) -> "ChannelState":
        eta = transmittance(distance, params)
        if eta == 0.0:
            raise ParameterError(
                f"distance={distance!r} km: link too long, the arm "
                "transmittance underflows to 0")
        return cls(eta, params)


def _check_detection_args(mu: float, eta: float) -> None:
    if not 0.0 < mu < MAX_INTENSITY:
        raise ParameterError(f"mu={mu!r} outside (0, {MAX_INTENSITY})")
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"eta={eta!r} outside [0, 1]")


def detect_slots(
    phase_bits: np.ndarray,
    mu: float,
    eta: float,
    params: SystemParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw detection outcomes for a batch of slots.

    phase_bits[i] in {0, 1} encodes the ideal phase difference (0 or pi)
    of slot i. Returns (outcomes, resolved) uint8 arrays: outcomes hold
    Outcome values, resolved holds the announced bit (0 for D1, 1 for
    D2, a fair coin for DOUBLE) and 0 where nothing clicked.

    Per chunk the generator is consumed in a fixed order: matching-port
    photon counts, wrong-port photon counts, D1 dark uniforms, D2 dark
    uniforms, coin bits. The same seed therefore reproduces the same
    outcome stream bit for bit.
    """
    _check_detection_args(mu, eta)
    bits = np.asarray(phase_bits, dtype=np.uint8)
    if bits.ndim != 1:
        raise ParameterError("phase_bits must be one-dimensional")
    if bits.size and bits.max() > 1:
        raise ParameterError("phase_bits must contain only 0/1 values")

    e_d = params.misalignment
    p_d = params.dark_count_rate
    lam_match = (1.0 - e_d) * mu * eta
    lam_wrong = e_d * mu * eta

    outcomes = np.empty(bits.size, dtype=np.uint8)
    resolved = np.empty(bits.size, dtype=np.uint8)
    for start in range(0, bits.size, _CHUNK):
        stop = min(start + _CHUNK, bits.size)
        ph = bits[start:stop].astype(bool)
        m = ph.size
        sig_match = rng.poisson(lam_match, m) > 0
        sig_wrong = rng.poisson(lam_wrong, m) > 0
        dark1 = rng.random(m) < p_d
        dark2 = rng.random(m) < p_d
        coins = rng.integers(0, 2, m, dtype=np.uint8)

        click1 = np.where(ph, sig_wrong, sig_match) | dark1
        click2 = np.where(ph, sig_match, sig_wrong) | dark2
        out = click1.astype(np.uint8) + 2 * click2.astype(np.uint8)

        res = coins  # double clicks keep the coin
        res[out == Outcome.NO_CLICK] = 0
        res[out == Outcome.D1] = 0
        res[out == Outcome.D2] = 1
        outcomes[start:stop] = out
        resolved[start:stop] = res
    return outcomes, resolved


def detect_slot(
    phase_bit: int,
    mu: float,
    eta: float,
    params: SystemParams,
    rng: np.random.Generator,
) -> Outcome:
    """Draw one slot's outcome; single-slot view of detect_slots."""
    if phase_bit not in (0, 1):
        raise ParameterError(f"phase_bit={phase_bit!r} must be 0 or 1")
    outcomes, _ = detect_slots(
        np.array([phase_bit], dtype=np.uint8), mu, eta, params, rng)
    return Outcome(int(outcomes[0]))

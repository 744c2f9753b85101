"""Fiber transmittance and the dealer's threshold-detector model.

Each sender is half the total distance from the dealer, so one arm sees
eta = eta_d * 10^(-alpha*L/20) for total sender-sender distance L. A
combined slot carrying ideal phase difference 0 (pi) sends its light to
detector D1 (D2); misalignment diverts a photon to the wrong detector
with probability e_d, and each detector dark-fires independently with
probability p_d per slot. Photon numbers are Poissonian, detectors are
threshold (click on >= 1 photon or a dark count), and double clicks are
kept and later resolved to a fair coin bit.

The matching detector sees mean photon number lam_m = (1-e_d) mu eta and
the wrong one lam_w = e_d mu eta. Detector x stays silent with
probability q_x = (1-p_d) e^(-lam_x) and fires with p_x = 1 - q_x, so a
slot clicks with probability

    P_click = 1 - q_m q_w = 1 - (1-p_d)^2 e^(-mu*eta),

which does not depend on the phase bit. Given a click the slot falls in
one of three cases:

    matching detector only    p_m q_w / P_click
    wrong detector only       q_m p_w / P_click
    both (double click)       p_m p_w / P_click

and the phase bit only decides which of D1 and D2 is the matching one.
The exact P_click differs from the linearized analytic gain
1 - (1-2 p_d) e^(-mu*eta) by p_d^2 e^(-mu*eta), i.e. below 1e-12 for
p_d <= 1e-6.

Because P_click does not depend on the phase bit, sample_clicks draws
only the slots that click: geometric gaps between clicks, then a
category per click. Per batch it consumes the generator in this order:
the gap uniforms, one category uniform per click, one coin bit per
double click. It reads a slot's phase bit only at the clicks, through
a lookup the caller passes in, so the phase bits never move a click and
a seed reproduces the same clicks bit for bit. It returns per-click
positions, outcomes and announced bits; detect_slots scatters them
into dense arrays.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import MAX_INTENSITY, Outcome, ParameterError, SystemParams

# Click positions are drawn in batches of at most this many geometric
# gaps, which bounds the per-batch temporaries however many slots click.
_CHUNK = 1 << 18


def transmittance(distance: float, params: SystemParams) -> float:
    """Arm transmittance eta = eta_d * 10^(-alpha*L/20).

    distance is the total sender-to-sender length in km; each arm covers
    half of it, hence the /20 in the exponent.
    """
    if not distance >= 0.0:
        raise ParameterError(f"distance={distance!r} must be >= 0 km")
    return params.detector_efficiency * 10.0 ** (
        -params.attenuation * distance / 20.0)


def click_probability(mu: float, eta: float, params: SystemParams) -> float:
    """Exact model probability that at least one detector clicks.

    Evaluated as -expm1(2 log1p(-p_d) - mu*eta), which keeps full
    relative precision when both dark counts and light are tiny.
    """
    p_d = params.dark_count_rate
    return -math.expm1(2.0 * math.log1p(-p_d) - mu * eta)


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


def sample_clicks(
    n: int,
    phase_at: Callable[[np.ndarray], np.ndarray],
    mu: float,
    eta: float,
    params: SystemParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw the clicks among n slots; the one detection sampler.

    phase_at maps an ascending int64 array of slot positions in [0, n)
    to their uint8 phase bits; it is called only with positions that
    click. Returns the ascending int64 positions of the clicks, their
    Outcome values and their announced bits (0 for D1, 1 for D2, a fair
    coin for DOUBLE). A gap between clicks is
    floor(log1p(-u) / log1p(-P_click)) + 1 for a uniform u; each batch
    draws about as many gaps as clicks are expected in the slots left,
    at most _CHUNK. The stream order is in the module docstring. When
    P_click is 0 the generator is not touched.
    """
    _check_detection_args(mu, eta)
    p_click = click_probability(mu, eta, params)
    if n < 1 or p_click == 0.0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8),
                np.empty(0, dtype=np.uint8))

    e_d = params.misalignment
    dark_silent = math.log1p(-params.dark_count_rate)
    log_q_match = dark_silent - (1.0 - e_d) * mu * eta
    log_q_wrong = dark_silent - e_d * mu * eta
    q_match, p_match = math.exp(log_q_match), -math.expm1(log_q_match)
    q_wrong, p_wrong = math.exp(log_q_wrong), -math.expm1(log_q_wrong)
    # category thresholds on a click's uniform: below the first the
    # matching detector fires alone, below the second the wrong one
    # does, otherwise both fire
    match_only = p_match * q_wrong / p_click
    single = (p_match * q_wrong + q_match * p_wrong) / p_click
    log_stay = math.log1p(-p_click)  # < 0; subnormal if p_click is

    parts = []
    last = -1  # position of the last click drawn so far
    while last < n - 1:
        left = n - 1 - last
        mean = left * p_click  # clicks expected in the slots left
        gaps = rng.random(
            min(_CHUNK, left, int(mean + 4.0 * math.sqrt(mean)) + 1))
        np.log1p(-gaps, out=gaps)
        # a gap reaching past the end only ends the loop; clipping it
        # there, in float before the cast, keeps the quotient finite
        # for a subnormal P_click and the running sum far from overflow
        np.maximum(gaps, (left + 1) * log_stay, out=gaps)
        gaps /= log_stay
        pos = gaps.astype(np.int64)
        pos += 1
        np.cumsum(pos, out=pos)
        pos += last
        last = int(pos[-1])
        pos = pos[:np.searchsorted(pos, n)]

        u = rng.random(pos.size)
        port = phase_at(pos) ^ (u >= match_only)  # 0 for D1, 1 for D2
        double = u >= single
        out = port + 1
        out[double] = Outcome.DOUBLE
        port[double] = rng.integers(0, 2, np.count_nonzero(double),
                                    dtype=np.uint8)
        parts.append((pos, out, port))
    return tuple(np.concatenate(col) for col in zip(*parts))


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
    D2, a fair coin for DOUBLE) and 0 where nothing clicked. This is the
    dense view of sample_clicks, which draws the clicks and consumes the
    generator; the click positions do not depend on phase_bits.
    """
    bits = np.asarray(phase_bits, dtype=np.uint8)
    if bits.ndim != 1:
        raise ParameterError("phase_bits must be one-dimensional")
    if bits.size and bits.max() > 1:
        raise ParameterError("phase_bits must contain only 0/1 values")
    pos, clicked, announced = sample_clicks(
        bits.size, bits.take, mu, eta, params, rng)
    outcomes = np.zeros(bits.size, dtype=np.uint8)
    resolved = np.zeros(bits.size, dtype=np.uint8)
    outcomes[pos] = clicked
    resolved[pos] = announced
    return outcomes, resolved


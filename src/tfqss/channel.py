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

Because P_click does not depend on the phase bit, detect_slots draws
only the slots of its range that click, each as if its phase bit were
0: geometric gaps between clicks, then a category per click. Per batch
it consumes the generator in this order: the gap uniforms, one category
uniform per click, one coin bit per double click. shift_phase then
applies the phase bits at the clicks, so they never move a click or a
draw and a seed reproduces the same clicks bit for bit. The outputs
are allocated once, sized to the clicks expected plus four standard
deviations, and grow only before a batch whose gap bound would overrun
them, which is rare. Every batch draws its uniforms into one reused
float scratch. The sampler keeps each click's gap from the click
before, not its slot number: a caller that needs the slots of every
click sums the gaps once, and one that needs them at a few clicks,
such as the double clicks, sums only up to those. Only the batch that
reaches the range's end numbers its clicks, to drop those past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_INTENSITY, Outcome, ParameterError, SystemParams

# Clicks are drawn in batches of at most this many geometric
# gaps, which bounds the per-batch temporaries however many slots click.
_CHUNK = 1 << 18

# log1p(-u) >= log1p(-(1 - 2**-53)) = -53 ln 2, about -36.74, for every
# u that rng.random returns, so clipping the gaps' logs at this bound or
# below changes none of them.
_LOG1P_FLOOR = -37.0


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
    if not mu >= 0.0:
        raise ParameterError(f"mu={mu!r} must be >= 0")
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"eta={eta!r} outside [0, 1]")
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


def detect_slots(
    slots: range,
    mu: float,
    eta: float,
    params: SystemParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw the clicks among a range of consecutive slots.

    Returns (gaps, announced, doubles), drawn with every phase bit 0.
    gaps holds each click's int64 slot gap from the click before, each
    at least 1, the first counted from slots.start - 1, so
    np.cumsum(gaps) + slots.start - 1 are the ascending slot numbers
    that click. announced holds their uint8 announced bits (0 for D1,
    1 for D2, a fair coin for DOUBLE), and doubles the ascending
    indices of the double clicks; every other click is a single one,
    its Outcome announced + 1. A gap is floor(log1p(-u) /
    log1p(-P_click)) + 1 for a uniform u; each batch draws about as
    many gaps as clicks are expected in the slots left, at most
    _CHUNK. The stream order is in the module docstring, and it does
    not depend on where the range starts. When P_click is 0 the
    generator is not touched.
    """
    if slots.step != 1:
        raise ParameterError(f"slots={slots!r} must have step 1")
    if not 0.0 < mu < MAX_INTENSITY:
        raise ParameterError(f"mu={mu!r} outside (0, {MAX_INTENSITY})")
    p_click = click_probability(mu, eta, params)
    n = len(slots)
    if n == 0 or p_click == 0.0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8),
                np.empty(0, dtype=np.intp))

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

    # the outputs hold the clicks expected in all n slots plus four
    # standard deviations, the bound of the first batch; they grow only
    # before a batch whose gap bound would overrun them, and the result
    # is their filled head
    size = min(n, _click_bound(n * p_click))
    gaps = np.empty(size, dtype=np.int64)
    announced = np.empty(size, dtype=np.uint8)
    doubles = []  # each batch's double-click indices, joined at the end
    # one float scratch for each batch's gap and category uniforms,
    # sized to the first batch, the largest
    scratch = np.empty(min(_CHUNK, size))
    filled = 0
    stop = slots.stop
    last = slots.start - 1  # slot of the last click drawn so far
    while last < stop - 1:
        left = stop - 1 - last
        k = min(_CHUNK, left, _click_bound(left * p_click))
        u = rng.random(out=scratch[:k])
        np.negative(u, out=u)
        np.log1p(u, out=u)
        # a gap reaching past the end only ends the loop; clipping it
        # there, in float before the cast, keeps the quotient finite
        # for a subnormal P_click and the batch's sum far from overflow.
        # Only a batch near the end, or at a tiny P_click, can reach it
        reach = (left + 1) * log_stay
        if reach > _LOG1P_FLOOR:
            np.maximum(u, reach, out=u)
        u /= log_stay
        if filled + k > gaps.size:
            # the batch's gap bound would overrun the outputs, so they
            # grow first; filled + k <= n, since filled <= last + 1 -
            # slots.start and k <= left. np.resize repeats the entries
            # into the new room; this batch and later ones overwrite it
            grown = min(n, max(filled + k, 2 * gaps.size))
            gaps, announced = (np.resize(col, grown)
                               for col in (gaps, announced))
        g = gaps[filled:filled + k]
        g[...] = u
        g += 1
        reached = last + int(g.sum())  # the slot of the batch's last click
        if reached < stop:
            end = filled + k
        else:
            # the batch that reaches the end numbers its clicks, in the
            # scratch that its gap uniforms no longer need, to count
            # those before stop
            pos = np.cumsum(g, out=scratch[:k].view(np.int64))
            end = filled + int(np.searchsorted(pos, stop - last))
        last = reached

        port = announced[filled:end]
        u = rng.random(out=scratch[:port.size])
        # 0 for D1, 1 for D2
        np.greater_equal(u, match_only, out=port.view(bool))
        double = np.flatnonzero(u >= single)
        port[double] = rng.integers(0, 2, double.size, dtype=np.uint8)
        double += filled
        doubles.append(double)
        filled = end
    return gaps[:filled], announced[:filled], np.concatenate(doubles)


def _click_bound(mean: float) -> int:
    """Clicks expected plus four standard deviations, rounded up."""
    return int(mean + 4.0 * math.sqrt(mean)) + 1


def shift_phase(outcomes: np.ndarray, announced: np.ndarray,
                phase: np.ndarray) -> None:
    """Apply the clicks' uint8 phase bits to their outcomes and bits.

    outcomes are the Outcome values of detect_slots' clicks (announced
    + 1, DOUBLE at its doubles) and announced its announced bits. A
    phase bit of 1 swaps D1 and D2 and flips the announced bit of a
    single click; a double click and its coin stay as drawn. Works in
    place, phase included.
    """
    flip = np.bitwise_and(phase, outcomes < Outcome.DOUBLE, out=phase)
    announced ^= flip
    flip *= 3  # D1 ^ 3 is D2 and D2 ^ 3 is D1
    outcomes ^= flip


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

The wrong detector fires on a click with probability p_w / P_click,
which is 1 - p_m q_w / P_click, and given that, the matching one fires
too with probability p_m, independently; otherwise the matching
detector fired alone, which is most clicks wherever the key rate is
positive.

Because P_click does not depend on the phase bit, detect_slots draws
only the slots of its range that click, each as if its phase bit were
0: geometric gaps between clicks, then, over each batch's clicks,
geometric gaps between the clicks where the wrong detector fires. One
helper, _gaps, draws both processes. Per batch of clicks it consumes
the generator in this order: the clicks' gap uniforms, then, per run
of the non-matching draw, its gap uniforms, one uniform per
non-matching click (below p_m a double click, else the wrong detector
alone) and one coin bit per double click. shift_phase then applies the
phase bits at the clicks, so they never move a click or a draw and a
seed reproduces the same clicks bit for bit. The outputs are allocated
once, sized to the clicks, and the double clicks, expected plus four
standard deviations, and grow only before a batch or a run that could
overrun them, which is rare. Every draw goes into one reused float
scratch, whose first half, viewed as int64, also holds a run's
non-matching click indices. The sampler keeps each click's gap from the
click before, not its slot number: a caller that needs the slots of
every click sums the gaps once, and one that needs them at a few
clicks, such as the double clicks, sums only up to those. Only the
batch that reaches the range's end numbers its clicks, to drop those
past it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
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
    its Outcome announced + 1.

    The clicks are a Bernoulli(P_click) process over the slots, which
    _gaps draws in batches of geometric gaps. Over each batch's clicks,
    those where the wrong detector fires are a Bernoulli(p_w / P_click)
    process, which _gaps draws too, in runs of at most half the float
    scratch. Each of them takes one uniform: below p_m it is a double
    click, else a wrong-only one. Every other click is the matching
    detector's alone, announced 0. The stream order is in the module
    docstring, and it does not depend on where the range starts. When
    P_click is 0 the generator is not touched, and when p_w is 0 it
    gives the click gaps alone.
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
    p_match = -math.expm1(dark_silent - (1.0 - e_d) * mu * eta)
    p_wrong = -math.expm1(dark_silent - e_d * mu * eta)

    # gaps and announced hold the clicks expected in all n slots plus
    # four standard deviations, the bound of the first batch, and
    # doubles the double clicks expected likewise; each grows only
    # before a batch or a run that could overrun it, and the result is
    # their filled heads
    size = min(n, _click_bound(n * p_click))
    gaps = np.empty(size, dtype=np.int64)
    announced = np.empty(size, dtype=np.uint8)
    doubles = np.empty(min(size, _click_bound(n * p_match * p_wrong)),
                       dtype=np.intp)
    # one float scratch, sized to the first batch, the largest, and
    # rounded up to even: a batch's gap uniforms fill it, and a run of
    # the non-matching draw takes its first half, viewed as int64, for
    # its click indices and its second for their uniforms
    half = (min(_CHUNK, size) + 1) // 2
    scratch = np.empty(2 * half)
    ints = scratch.view(np.int64)
    filled = tally = 0

    def room(k: int) -> np.ndarray:
        nonlocal gaps, announced
        if filled + k > gaps.size:
            # filled + k <= n, since filled clicks lie among the slots
            # drawn and k gaps among the rest
            gaps, announced = (_grown(col, filled + k, n)
                               for col in (gaps, announced))
        return gaps[filled:filled + k]

    for g, last, reached in _gaps(p_click, n, _CHUNK, rng, scratch, room):
        end = filled + g.size
        if reached > n:
            # the batch that passes the end numbers its clicks, in the
            # scratch that its gap uniforms no longer need, to count
            # those up to the end
            pos = np.cumsum(g, out=ints[:g.size])
            end = filled + int(np.searchsorted(pos, n + 1 - last))
        port = announced[filled:end]
        port.fill(0)  # the matching detector alone: D1
        for h, at, passed in _gaps(p_wrong / p_click, port.size, half, rng,
                                   scratch, lambda k: ints[:k]):
            # the run's non-matching clicks, numbered in place and
            # counted up to the batch's last click, then made 0-based
            idx = np.cumsum(h, out=h)
            if passed > port.size:
                idx = idx[:np.searchsorted(idx, port.size + 1 - at)]
            idx += at - 1
            port[idx] = 1  # the wrong detector: D2, unless a double
            double = rng.random(out=scratch[half:half + idx.size]) < p_match
            d = int(np.count_nonzero(double))
            if tally + d > doubles.size:
                doubles = _grown(doubles, tally + d, n)
            mark = np.compress(double, idx, out=doubles[tally:tally + d])
            port[mark] = rng.integers(0, 2, d, dtype=np.uint8)
            mark += filled
            tally += d
        filled = end
    return gaps[:filled], announced[:filled], doubles[:tally]


def _gaps(
    p: float,
    span: int,
    cap: int,
    rng: np.random.Generator,
    scratch: np.ndarray,
    room: Callable[[int], np.ndarray],
) -> Iterator[tuple[np.ndarray, int, int]]:
    """Draw the events of a Bernoulli(p) process over positions 1..span.

    Yields them in batches of geometric gaps, as (gaps, last, reached):
    last is the position of the event before the batch, 0 at first,
    and reached the position of the batch's last event. Each batch
    draws about as many uniforms u as events are expected in the
    positions left, at most cap, into scratch, and casts each gap
    floor(log1p(-u) / log1p(-p)) + 1 into room(k), an int64 array of
    the batch's k entries, which may be scratch's own memory. A batch
    whose gaps fall short of span is followed by another, which draws
    on from its last event; the batch that reaches span, or passes it,
    is the last, and its events past span are the caller's to drop.
    When p is 0 nothing is drawn.
    """
    if p == 0.0:
        return
    log_stay = math.log1p(-p)  # < 0; subnormal if p is
    last = 0
    while last < span:
        left = span - last
        k = min(cap, left, _click_bound(left * p))
        u = rng.random(out=scratch[:k])
        np.negative(u, out=u)
        np.log1p(u, out=u)
        # a gap reaching past span only ends the draw; clipping it
        # there, in float before the cast, keeps the quotient finite for
        # a subnormal p and the batch's sum far from overflow. Only a
        # batch near the end, or at a tiny p, can reach it
        reach = (left + 1) * log_stay
        if reach > _LOG1P_FLOOR:
            np.maximum(u, reach, out=u)
        u /= log_stay
        g = room(k)
        g[...] = u
        g += 1
        reached = last + int(g.sum())
        yield g, last, reached
        last = reached


def _grown(col: np.ndarray, need: int, cap: int) -> np.ndarray:
    """col resized to hold need entries: doubled, or more, up to cap.

    np.resize repeats the entries into the new room; the draws that
    follow overwrite it.
    """
    return np.resize(col, min(cap, max(need, 2 * col.size)))


def _click_bound(mean: float) -> int:
    """Events expected plus four standard deviations, rounded up."""
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


"""Closed-form secret-key-rate engine.

For mean photon number mu and arm transmittance eta the dealer's gain
and error rate per interior combined slot are

    Q = 1 - (1 - 2 p_d) e^(-mu*eta)
    E = [e_d Q + (1/2 - e_d) 2 p_d e^(-mu*eta)] / Q

and the asymptotic secret fraction (units: bits per interior combined
slot) is

    R = Q [ -(1 - 2 mu) log2(P_co) - f h(E) ]

where P_co = 1 - E^2 - (1 - 6E)^2 / 2 bounds the eavesdropper's
collision probability and h is the binary entropy. The (1 - 2 mu)
factor is the fraction of the raw key not exposed by the optimal
internal attack (see attacks.internal_general_leakage), which is why
intensities are restricted to mu < 0.5.

A per-bit collision probability cannot be below 1/2 (even a blind
guess of a fair bit collides half the time), so the quadratic is a
meaningful bound only while P_co >= 1/2, i.e. E <= 6/19. Beyond that
the bound is saturated and no privacy credit remains; without this cut
the -log2(P_co) term would diverge to +infinity as E approaches the
root of the quadratic near 0.3843, manufacturing key in a regime where
the eavesdropper already knows everything.
"""

from __future__ import annotations

import math

from .channel import transmittance
from .core import MAX_INTENSITY, ParameterError, RateBreakdown, SystemParams


class DegenerateChannelError(ValueError):
    """Gain is exactly zero, so conditional rates are undefined."""


def gain(mu: float, eta: float, p_d: float) -> float:
    """Per-slot click probability Q = 1 - (1 - 2 p_d) e^(-mu*eta).

    Evaluated as (1 - e^(-mu*eta)) (1 - 2 p_d) + 2 p_d with expm1: both
    terms are non-negative, so Q keeps full relative precision on long
    links where it would otherwise cancel to 0.
    """
    if not mu >= 0.0:
        raise ParameterError(f"mu={mu!r} must be >= 0")
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"eta={eta!r} outside [0, 1]")
    if not 0.0 <= p_d < 0.5:
        raise ParameterError(f"p_d={p_d!r} outside [0, 0.5)")
    return -math.expm1(-mu * eta) * (1.0 - 2.0 * p_d) + 2.0 * p_d


def qber(mu: float, eta: float, p_d: float, e_d: float) -> float:
    """Error fraction of detected slots.

    Misaligned signal photons contribute e_d of the gain; dark counts
    are wrong half the time. Raises DegenerateChannelError when the
    gain vanishes (p_d = 0 and mu*eta = 0): no clicks, no error rate.
    """
    if not 0.0 <= e_d < 0.5:
        raise ParameterError(f"e_d={e_d!r} outside [0, 0.5)")
    q = gain(mu, eta, p_d)
    if q == 0.0:
        raise DegenerateChannelError(
            "gain is zero (p_d = 0 and mu*eta = 0); QBER undefined")
    dark = 2.0 * p_d * math.exp(-mu * eta)
    # dark <= q holds exactly (their difference is 1 - e^(-mu*eta)), so
    # the true value is <= 1/2; division rounding can poke an ulp above
    # when dark counts dominate, which would escape the QBER domain.
    return min(0.5, (e_d * q + (0.5 - e_d) * dark) / q)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2(x) - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"binary entropy argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def collision_probability(e: float) -> float:
    """Eavesdropper collision-probability bound 1 - e^2 - (1-6e)^2/2.

    Increasing for e < 3/19, decreasing beyond; callers must treat
    results below 1/2 (e > 6/19) as "no privacy left" rather than
    evaluate a logarithm of them.
    """
    if not 0.0 <= e <= 0.5:
        raise ParameterError(f"collision argument {e!r} outside [0, 0.5]")
    return 1.0 - e * e - (1.0 - 6.0 * e) ** 2 / 2.0


def rate_at_transmittance(
    mu: float, eta: float, params: SystemParams
) -> RateBreakdown:
    """Rate breakdown at an explicit arm transmittance."""
    if not 0.0 < mu < MAX_INTENSITY:
        raise ParameterError(f"mu={mu!r} outside (0, {MAX_INTENSITY})")
    p_d = params.dark_count_rate
    q = gain(mu, eta, p_d)
    e = qber(mu, eta, p_d, params.misalignment)
    p_co = collision_probability(e)
    ec_term = params.ec_efficiency * binary_entropy(e)
    if p_co < 0.5:
        # A collision probability below 1/2 is outside the bound's
        # validity (E > 6/19): treat it as saturated rather than credit
        # the diverging -log2(P_co) with nonphysical privacy.
        return RateBreakdown(gain=q, qber=e, collision=p_co,
                             privacy_term=float("-inf"), ec_term=ec_term,
                             rate=0.0)
    privacy = -(1.0 - 2.0 * mu) * math.log2(p_co)
    rate = q * (privacy - ec_term)
    return RateBreakdown(gain=q, qber=e, collision=p_co,
                         privacy_term=privacy, ec_term=ec_term,
                         rate=max(0.0, rate))


def key_rate(mu: float, distance: float, params: SystemParams) -> RateBreakdown:
    """Rate breakdown at a total sender-sender distance in km."""
    return rate_at_transmittance(mu, transmittance(distance, params), params)

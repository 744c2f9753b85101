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

Each formula is written once, as a numpy expression: the functions
here take scalars or arrays that broadcast against each other (only
key_rate's distance must be a scalar) and return floats for scalar
input and arrays otherwise. The optimizer
evaluates a whole (lanes x grid) block of (mu, eta) points per call of
rate_at_transmittance; each element goes through exactly the arithmetic
of a scalar call, so an array result equals the elementwise scalar
results bit for bit. Domain errors name the first offending element
in C order. The optimizer's root search calls _rate_and_slope, which
returns the same rate together with dR/dmu and d2R/dmu2 from one pass
over the same expressions; it validates no argument, and only the
rate's Q == 0 check runs.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import transmittance
from .core import MAX_INTENSITY, ParameterError, RateBreakdown, SystemParams


_LN2 = math.log(2.0)


class DegenerateChannelError(ValueError):
    """Gain is exactly zero, so conditional rates are undefined."""


def _require(value: np.ndarray, ok, message: str) -> None:
    """Raise ParameterError naming the first element of value not ok.

    message holds one {!r} field for that element.
    """
    if not ok.all():
        bad = value[np.logical_not(ok)].flat[0]
        raise ParameterError(message.format(bad.item()))


def _float_or_array(value):
    return float(value) if np.ndim(value) == 0 else value


def _check_eta(eta) -> None:
    _require(eta, (eta >= 0.0) & (eta <= 1.0), "eta={!r} outside [0, 1]")


def _check_gain_args(mu, eta, p_d) -> None:
    _require(mu, mu >= 0.0, "mu={!r} must be >= 0")
    _check_eta(eta)
    _require(p_d, (p_d >= 0.0) & (p_d < 0.5), "p_d={!r} outside [0, 0.5)")


def _gain(mu, eta, p_d):
    """Q and the exponent mu*eta."""
    x = mu * eta
    return -np.expm1(-x) * (1.0 - 2.0 * p_d) + 2.0 * p_d, x


def _qber(q, decay, p_d, e_d):
    """E from Q and e^(-mu*eta); DegenerateChannelError where Q = 0."""
    if (q == 0.0).any():
        raise DegenerateChannelError(
            "gain is zero (p_d = 0 and mu*eta = 0); QBER undefined")
    dark = 2.0 * p_d * decay
    # dark <= q holds exactly (their difference is 1 - e^(-mu*eta)), so
    # the true value is <= 1/2; division rounding can poke an ulp above
    # when dark counts dominate, which would escape the QBER domain.
    return np.minimum(0.5, (e_d * q + (0.5 - e_d) * dark) / q)


def _binary_entropy(x):
    inside = (x > 0.0) & (x < 1.0)
    y = np.where(inside, x, 0.5)  # keeps log2 away from 0
    return np.where(
        inside, -y * np.log2(y) - (1.0 - y) * np.log1p(-y) / _LN2, 0.0)


def _collision_probability(e):
    return 1.0 - e * e - (1.0 - 6.0 * e) ** 2 / 2.0


def gain(mu, eta, p_d):
    """Per-slot click probability Q = 1 - (1 - 2 p_d) e^(-mu*eta).

    Evaluated as (1 - e^(-mu*eta)) (1 - 2 p_d) + 2 p_d with expm1: both
    terms are non-negative, so Q keeps full relative precision on long
    links where it would otherwise cancel to 0.
    """
    mu, eta, p_d = np.asarray(mu), np.asarray(eta), np.asarray(p_d)
    _check_gain_args(mu, eta, p_d)
    q, _ = _gain(mu, eta, p_d)
    return _float_or_array(q)


def qber(mu, eta, p_d, e_d):
    """Error fraction of detected slots.

    Misaligned signal photons contribute e_d of the gain; dark counts
    are wrong half the time. Raises DegenerateChannelError when the
    gain vanishes (p_d = 0 and mu*eta = 0): no clicks, no error rate.
    """
    mu, eta, p_d, e_d = (np.asarray(v) for v in (mu, eta, p_d, e_d))
    _require(e_d, (e_d >= 0.0) & (e_d < 0.5), "e_d={!r} outside [0, 0.5)")
    _check_gain_args(mu, eta, p_d)
    q, x = _gain(mu, eta, p_d)
    e = _qber(q, np.exp(-x), p_d, e_d)
    return _float_or_array(e)


def binary_entropy(x):
    """h(x) = -x log2(x) - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    x = np.asarray(x)
    _require(x, (x >= 0.0) & (x <= 1.0),
             "binary entropy argument {!r} outside [0, 1]")
    return _float_or_array(_binary_entropy(x))


def collision_probability(e):
    """Eavesdropper collision-probability bound 1 - e^2 - (1-6e)^2/2.

    Increasing for e < 3/19, decreasing beyond; callers must treat
    results below 1/2 (e > 6/19) as "no privacy left" rather than
    evaluate a logarithm of them.
    """
    e = np.asarray(e)
    _require(e, (e >= 0.0) & (e <= 0.5),
             "collision argument {!r} outside [0, 0.5]")
    return _float_or_array(_collision_probability(e))


def _rate_terms(mu, eta, params: SystemParams):
    """e^(-mu*eta) and the breakdown's fields (Q, E, P_co, privacy, ec, R).

    mu and eta are validated arrays; p_d and e_d need no check, because
    SystemParams validated them.
    """
    p_d = params.dark_count_rate
    q, x = _gain(mu, eta, p_d)
    decay = np.exp(-x)
    e = _qber(q, decay, p_d, params.misalignment)
    p_co = _collision_probability(e)
    ec_term = params.ec_efficiency * _binary_entropy(e)
    # A collision probability below 1/2 is outside the bound's validity
    # (E > 6/19): treat it as saturated rather than credit the diverging
    # -log2(P_co) with nonphysical privacy. The -inf term gives rate 0.
    saturated = p_co < 0.5
    privacy = np.where(
        saturated, -np.inf,
        -(1.0 - 2.0 * mu) * np.log2(np.where(saturated, 1.0, p_co)))
    rate = np.maximum(0.0, q * (privacy - ec_term))
    return decay, q, e, p_co, privacy, ec_term, rate


def rate_at_transmittance(mu, eta, params: SystemParams) -> RateBreakdown:
    """Rate breakdown at explicit arm transmittances: the rate kernel.

    mu and eta broadcast against each other; the breakdown's fields
    have their common shape (floats when both are scalars). Raises
    ParameterError naming the first mu outside (0, 0.5) or eta outside
    [0, 1], and DegenerateChannelError if any point has zero gain.
    """
    mu, eta = np.asarray(mu), np.asarray(eta)
    _require(mu, (mu > 0.0) & (mu < MAX_INTENSITY),
             f"mu={{!r}} outside (0, {MAX_INTENSITY})")
    _check_eta(eta)
    _, *terms = _rate_terms(mu, eta, params)
    return RateBreakdown(*(_float_or_array(v) for v in terms))


def _rate_and_slope(mu, eta, params: SystemParams):
    """R, dR/dmu and d2R/dmu2 at validated (mu, eta) arrays, in one pass.

    R is rate_at_transmittance's rate bit for bit. With D = 2 p_d
    e^(-mu*eta), P_E = dP_co/dE and S = privacy - f h(E) the pieces are

        Q'  = (1 - 2 p_d) eta e^(-mu*eta)
        E'  = -(1/2 - e_d) (D/Q) (eta/Q)
        P_E = 6 - 38 E,    h'(E) = log2((1 - E)/E)
        S'  = 2 log2(P_co) - (1 - 2 mu) r / ln 2 - f h'(E) E'
        R'  = Q' S + Q S'

    with r = P_E E' / P_co (E' uses Q + (1 - 2 p_d) e^(-mu*eta) = 1).
    D/Q <= 1 and eta/Q <= 2/mu, so neither factor overflows, and Q*Q,
    which underflows to 0 on long links without dark counts, is never
    formed. The curvature comes from the same pieces:

        Q'' = -eta Q',    E'' = -E' (eta + Q')/Q
        r'  = (-38 E'^2 + P_E E'')/P_co - r^2
        S'' = (4 r - (1 - 2 mu) r')/ln 2 - f (h''(E) E'^2 + h'(E) E'')
        R'' = Q'' S + 2 Q' S' + Q S''

    where h''(E) E'^2 = -E' (E'/E)/((1 - E) ln 2) is 0 where E = 0
    (E'/E <= eta/Q). Slope and curvature are 0 wherever the rate is
    clamped to 0 or P_co is saturated. No argument is validated here;
    only the rate's Q == 0 check can raise DegenerateChannelError.
    """
    decay, q, e, p_co, privacy, ec_term, rate = _rate_terms(mu, eta, params)
    p_d, e_d = params.dark_count_rate, params.misalignment
    f = params.ec_efficiency
    keyed = rate > 0.0  # so P_co >= 1/2 and E < 1/2
    dq = (1.0 - 2.0 * p_d) * eta * decay
    eta_q = eta / q
    de = -(0.5 - e_d) * (2.0 * p_d * decay / q) * eta_q
    p = np.where(keyed, p_co, 1.0)
    p_e = 6.0 - 38.0 * e
    r = p_e * de / p
    w = 1.0 - 2.0 * mu
    # h'(E) as a difference of logs: (1 - E)/E overflows for subnormal
    # E. E = 0 only where D/Q = 0, and then dE/dmu = 0 as well.
    positive = e > 0.0
    y = np.where(positive, e, 0.5)
    one_y = 1.0 - y
    f_h1 = f * np.where(positive, np.log2(one_y) - np.log2(y), 0.0)
    s = np.where(keyed, privacy - ec_term, 0.0)
    d_s = 2.0 * np.log2(p) - w * r / _LN2 - f_h1 * de
    slope = np.where(keyed, dq * s + q * d_s, 0.0)
    # E'' = -E' (eta + Q')/Q = E' (eta - 2 eta/Q), as eta Q + Q' = eta
    d2e = de * (eta - 2.0 * eta_q)
    d_r = (p_e * d2e - 38.0 * de * de) / p - r * r
    # -f h''(E) E'^2 = f E' (E'/E) / ((1 - E) ln 2)
    d2_s = (4.0 * r - w * d_r + f * de * (de / y) / one_y) / _LN2 - f_h1 * d2e
    # R'' = Q'' S + 2 Q' S' + Q S'' with Q'' = -eta Q'
    curv = dq * (2.0 * d_s - eta * s) + q * d2_s
    return rate, slope, np.where(keyed, curv, 0.0)


def key_rate(mu, distance: float, params: SystemParams) -> RateBreakdown:
    """Rate breakdown at a total sender-sender distance in km."""
    return rate_at_transmittance(mu, transmittance(distance, params), params)

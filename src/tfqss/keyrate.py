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
input and arrays otherwise. Each element goes through exactly the
arithmetic of a scalar call, so an array result equals the elementwise
scalar results bit for bit. Domain errors name the first offending
element in C order. The kernels read p_d, e_d and f by name from their
params argument, and these too may be arrays that broadcast against mu
and eta: the optimizer gives each lane its own e_d that way, passing a
record with SystemParams' three field names. Like mu and eta they
enter each element's arithmetic alone, so a lane's result does not
depend on its neighbours. _rate_terms gives rate_at_transmittance's
rate of eta that its caller validated with _check_eta and
_require_gain, with the pieces _rate_and_slope reads again to give the
same rate together with dR/dmu and d2R/dmu2; it validates no argument.
_key_window gives each lane the range of an ascending mu grid outside
which _rate_terms rates exactly 0, from closed forms evaluated once per
distinct channel value, so that the optimizer's grid evaluates that
range alone.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import transmittance
from .core import MAX_INTENSITY, ParameterError, RateBreakdown, SystemParams


_LN2 = math.log(2.0)
# the error rate where P_co = 1/2, above which no privacy credit remains,
# and its binary entropy
_E_SAT = 6.0 / 19.0
_H_SAT = (-_E_SAT * math.log2(_E_SAT)
          - (1.0 - _E_SAT) * math.log2(1.0 - _E_SAT))
# relative widening of E_top in _key_window: far above the rounding of
# the kernel's E and of its key test, far below a cell of the mu grid
_TOP_MARGIN = 1e-9
_ZERO_GAIN = "gain is zero (p_d = 0 and mu*eta = 0); QBER undefined"


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
    """Q and e^(-mu*eta)."""
    x = -(mu * eta)
    return -np.expm1(x) * (1.0 - 2.0 * p_d) + 2.0 * p_d, np.exp(x)


def _require_gain(mu, eta, p_d) -> None:
    """DegenerateChannelError where Q = 0: p_d = 0 and mu*eta = 0."""
    if ((p_d == 0.0) & (mu * eta == 0.0)).any():
        raise DegenerateChannelError(_ZERO_GAIN)


def _qber(q, decay, p_d, e_d):
    """E from Q > 0 and e^(-mu*eta)."""
    dark = 2.0 * p_d * decay
    # dark <= q holds exactly (their difference is 1 - e^(-mu*eta)), so
    # the true value is <= 1/2; division rounding can poke an ulp above
    # when dark counts dominate, which would escape the QBER domain.
    return np.minimum(0.5, (e_d * q + (0.5 - e_d) * dark) / q)


def _binary_entropy(x):
    """h(x), and y (x inside (0, 1), else 1/2), log2(y) and 1 - y."""
    inside = (x > 0.0) & (x < 1.0)
    y = np.where(inside, x, 0.5)  # keeps log2 away from 0
    log_y, one_y = np.log2(y), 1.0 - y
    return (np.where(inside, -y * log_y - one_y * np.log1p(-y) / _LN2, 0.0),
            y, log_y, one_y)


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
    _require_gain(mu, eta, p_d)
    e = _qber(*_gain(mu, eta, p_d), p_d, e_d)
    return _float_or_array(e)


def binary_entropy(x):
    """h(x) = -x log2(x) - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    x = np.asarray(x)
    _require(x, (x >= 0.0) & (x <= 1.0),
             "binary entropy argument {!r} outside [0, 1]")
    return _float_or_array(_binary_entropy(x)[0])


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
    """The breakdown's fields (Q, E, P_co, privacy, ec, R), and the
    pieces _rate_and_slope reads again: e^(-mu*eta), log2 P_co (0 where
    saturated), 1 - 2 mu, privacy - f h(E), and _binary_entropy's y,
    log2 y and 1 - y.

    mu and eta are validated arrays with Q > 0 at every point
    (_require_gain). params' dark_count_rate, misalignment and
    ec_efficiency are floats or arrays that broadcast against them, one
    value per lane; they need no check, because SystemParams validated
    them (the optimizer checks each e_d of a scan the same way).
    """
    p_d = params.dark_count_rate
    q, decay = _gain(mu, eta, p_d)
    e = _qber(q, decay, p_d, params.misalignment)
    p_co = _collision_probability(e)
    h, *entropy = _binary_entropy(e)
    ec_term = params.ec_efficiency * h
    # A collision probability below 1/2 is outside the bound's validity
    # (E > 6/19): treat it as saturated rather than credit the diverging
    # -log2(P_co) with nonphysical privacy. The -inf term gives rate 0.
    saturated = p_co < 0.5
    log_p = np.log2(np.where(saturated, 1.0, p_co))
    w = 1.0 - 2.0 * mu
    privacy = np.where(saturated, -np.inf, -w * log_p)
    s = privacy - ec_term
    rate = np.maximum(0.0, q * s)
    return (q, e, p_co, privacy, ec_term, rate), (decay, log_p, w, s, *entropy)


def _error_top(f: float) -> float:
    """E_top(f): at ec_efficiency f no E above it keys.

    The key needs P_co(E) >= 1/2, so E <= 6/19, and -log2 P_co(E) >
    f h(E). At 6/19 the left side is 1, so where f h(6/19) <= 1 (within
    _TOP_MARGIN) E_top is 6/19. Elsewhere -log2 P_co(E) - f h(E), 1 at
    E = 0, changes sign once on [0, 6/19]: on (0, 3/19), where both
    terms of its derivative are negative. E_top is that root, by Newton
    steps bracketed by bisection.
    """
    if f * _H_SAT <= 1.0 + _TOP_MARGIN:
        return _E_SAT
    lo, hi, e = 0.0, _E_SAT, 0.05
    for _ in range(100):
        p = 1.0 - e * e - (1.0 - 6.0 * e) ** 2 / 2.0
        log_e, log_1e = math.log2(e), math.log2(1.0 - e)
        g = -math.log2(p) + f * (e * log_e + (1.0 - e) * log_1e)
        lo, hi = (e, hi) if g > 0.0 else (lo, e)
        step = g / (-(6.0 - 38.0 * e) / (p * _LN2) - f * (log_1e - log_e))
        if abs(step) <= 1e-12 * e:
            return e - step
        e = e - step if lo < e - step < hi else 0.5 * (lo + hi)
    return hi


def _window_bounds(p_d: float, e_d: float, f: float) -> tuple[float, float]:
    """(x_lo, mu_hi) of _key_window at one channel value: mu*eta >=
    x_lo and mu < mu_hi where the key lives, and (inf, 0) where none
    does."""
    r = (_error_top(f) * (1.0 + _TOP_MARGIN) - e_d) / (0.5 - e_d)
    if r <= 0.0:
        return math.inf, 0.0
    e = min(e_d, _E_SAT)
    h = -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e) if e else 0.0
    ratio = h / -math.log2(1.0 - e * e - (1.0 - 6.0 * e) ** 2 / 2.0)
    return (math.log1p(2.0 * p_d * (1.0 - r) / r),
            0.5 * (1.0 - f * min(ratio, _H_SAT)))


def _key_window(grid: np.ndarray, eta: np.ndarray, params: SystemParams
                ) -> tuple[np.ndarray, np.ndarray]:
    """[lo, hi): the indices of the ascending mu grid outside which
    _rate_terms(grid, eta[:, None], params) rates exactly 0, per lane.

    E falls towards e_d as mu*eta grows (it is e_d where p_d = 0), and
    the key needs E <= E_top(f) (_error_top): so mu >= mu_lo =
    log1p(2 p_d (1 - r)/r)/eta, where E = E_top, with r = (E_top -
    e_d)/(1/2 - e_d), and a lane with e_d >= E_top has no key. The key
    also needs 1 - 2 mu > f h(E)/(-log2 P_co(E)) at an E in [e_d, 6/19];
    that ratio rises from 0 to one peak and falls to h(6/19) at 6/19,
    with no interior minimum, so mu < mu_hi = (1 - f min(h(e_d)/(-log2
    P_co(e_d)), h(6/19)))/2. The window is conservative: E_top is
    widened by _TOP_MARGIN, and the window by one grid cell each side.

    eta is a validated 1-D array; params' fields are floats or arrays
    with one value per lane. The bounds that depend on the channel alone
    are evaluated once per distinct (p_d, e_d, f) (_window_bounds), so
    float fields are the one-value case. Raises DegenerateChannelError
    where p_d = 0 and grid[0]*eta = 0, as rate_at_transmittance does at
    that point.
    """
    fields = params.dark_count_rate, params.misalignment, params.ec_efficiency
    _require_gain(grid[0], eta, fields[0])
    values, inverse = [fields], 0
    if any(isinstance(v, np.ndarray) for v in fields):
        # each lane's (p_d, e_d, f) as one 24-byte key
        rows = np.empty((eta.size, 3))
        rows[:, 0], rows[:, 1], rows[:, 2] = fields
        _, first, inverse = np.unique(rows.view("V24")[:, 0],
                                      return_index=True, return_inverse=True)
        values = rows[first].tolist()
    x_lo, mu_hi = np.reshape([_window_bounds(*v) for v in values],
                             (-1, 2)).T[:, inverse]
    with np.errstate(over="ignore"):
        mu_lo = np.divide(x_lo, eta, out=np.full(eta.shape, np.inf),
                          where=eta > 0.0)
    lo = np.maximum(np.searchsorted(grid, mu_lo) - 1, 0)
    hi = np.minimum(np.searchsorted(grid, mu_hi, "right") + 1, grid.size)
    return lo, np.maximum(lo, hi)


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
    _require_gain(mu, eta, params.dark_count_rate)
    terms, _ = _rate_terms(mu, eta, params)
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
    clamped to 0 or P_co is saturated. No argument is validated here,
    nor Q > 0: each of the optimizer's lanes has passed _key_window's
    check at the grid's first mu, or lies between two walk lanes of
    find_crossover that have, and it probes no smaller mu.
    """
    (q, e, p_co, _, _, rate), (decay, log_p, w, s, y, log_y, one_y) = (
        _rate_terms(mu, eta, params))
    p_d, e_d = params.dark_count_rate, params.misalignment
    f = params.ec_efficiency
    keyed = rate > 0.0  # so P_co >= 1/2 and E < 1/2
    dq = (1.0 - 2.0 * p_d) * eta * decay
    eta_q = eta / q
    de = -(0.5 - e_d) * (2.0 * p_d * decay / q) * eta_q
    p = np.where(keyed, p_co, 1.0)
    p_e = 6.0 - 38.0 * e
    r = p_e * de / p
    # h'(E) as a difference of logs: (1 - E)/E overflows for subnormal
    # E. E = 0 only where D/Q = 0, and then dE/dmu = 0 as well; there
    # y = 1/2, and h'(E) reads 0.
    f_h1 = f * (np.log2(one_y) - log_y)
    s = np.where(keyed, s, 0.0)
    d_s = 2.0 * log_p - w * r / _LN2 - f_h1 * de
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

"""Intensity optimization, distance scans, and crossover search."""

import functools
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

import tfqss.optimize
from tfqss.bounds import plob_bound, repeaterless_bound
from tfqss.channel import transmittance
from tfqss.core import ParameterError, SystemParams
import tfqss.keyrate
from tfqss.keyrate import (
    DegenerateChannelError,
    _rate_and_slope,
    binary_entropy,
    collision_probability,
    key_rate,
    rate_at_transmittance,
)
from tfqss.optimize import (
    MU_MAX,
    MU_MIN,
    dps_qss_baseline,
    find_crossover,
    maximize_rate_at_transmittance,
    optimize_mu,
    scan_distances,
)

DEFAULTS = SystemParams()

# brute-force oracle (1e-6-step grid, then Newton on the stationarity
# condition e^(-mu) (3 - 2 mu) = 2) for the lossless noiseless channel,
# where the rate reduces to (1 - e^(-mu)) (1 - 2 mu)
IDEAL_MU_STAR = 0.235040279874499
IDEAL_RATE = 0.110997452601919


def test_ideal_channel_optimum_matches_brute_force_oracle():
    params = SystemParams(detector_efficiency=1.0, dark_count_rate=0.0,
                          misalignment=0.0)
    mu_opt, bd = optimize_mu(0.0, params)
    assert mu_opt == pytest.approx(IDEAL_MU_STAR, abs=1e-6)
    assert bd.rate == pytest.approx(IDEAL_RATE, rel=1e-9)
    # the closed form at the returned point agrees with the breakdown
    assert bd.rate == -math.expm1(-mu_opt) * (1.0 - 2.0 * mu_opt)


def test_optimum_is_stable_across_grid_sizes():
    results = [
        optimize_mu(300.0, DEFAULTS, grid_size=g)[0]
        for g in (64, 96, 128, 200)
    ]
    for mu in results[1:]:
        assert abs(mu - results[0]) / results[0] <= 1e-4


def test_beyond_cutoff_returns_zero_rate_at_grid_minimum():
    mu_opt, bd = optimize_mu(1000.0, DEFAULTS)
    assert bd.rate == 0.0
    assert mu_opt == MU_MIN


def test_optimizer_rejects_bad_configuration():
    with pytest.raises(ParameterError, match="grid_size"):
        optimize_mu(100.0, DEFAULTS, grid_size=8)


@pytest.mark.parametrize("kwargs,name", [
    (dict(grid_size=64.5), "grid_size"),
    (dict(grid_size=True), "grid_size"),
    (dict(grid_size="64"), "grid_size"),
])
def test_optimizer_rejects_non_integer_sizes(kwargs, name):
    # a float must not reach range() and np.empty as a raw TypeError
    message = f"^{name}=.* must be an integer >= "
    with pytest.raises(ParameterError, match=message):
        maximize_rate_at_transmittance(0.1, DEFAULTS, **kwargs)
    with pytest.raises(ParameterError, match=message):
        scan_distances(0.0, 20.0, 10.0, DEFAULTS, [0.02], **kwargs)
    with pytest.raises(ParameterError, match=message):
        find_crossover(DEFAULTS, **kwargs)
    # numpy integers are integers
    assert optimize_mu(100.0, DEFAULTS, grid_size=np.int64(64)) == (
        optimize_mu(100.0, DEFAULTS))


def test_optimizer_beats_its_own_coarse_grid():
    # refinement may only improve on the best coarse point
    for distance in (0.0, 150.0, 300.0, 450.0):
        mu_opt, bd = optimize_mu(distance, DEFAULTS)
        ratio = (MU_MAX / MU_MIN) ** (1.0 / 63)
        coarse = [MU_MIN * ratio**i for i in range(63)] + [MU_MAX]
        best_coarse = max(
            key_rate(mu, distance, DEFAULTS).rate for mu in coarse)
        assert bd.rate >= best_coarse - 1e-15
        assert MU_MIN <= mu_opt <= MU_MAX


def test_optimizer_is_deterministic():
    one = optimize_mu(250.0, DEFAULTS)
    two = optimize_mu(250.0, DEFAULTS)
    assert one[0] == two[0]
    assert one[1].rate == two[1].rate


def test_scan_grid_and_row_counts():
    table = scan_distances(0.0, 700.0, 10.0, DEFAULTS, [0.02])
    points = table[0.02]
    assert len(points) == 71
    assert points[0].distance == 0.0
    assert points[-1].distance == 700.0
    single = scan_distances(100.0, 100.0, 10.0, DEFAULTS, [0.02, 0.04])
    assert {len(rows) for rows in single.values()} == {1}


@pytest.mark.parametrize("grid", [(0.0, 0.7, 0.1), (0.1, 2.3, 0.1),
                                  (0.3, 0.9, 0.1)])
def test_scan_last_point_never_passes_l_max(grid):
    # l_min + i * step rounds above l_max on these grids (0.7 becomes
    # 0.7000000000000001); the last point is l_max itself
    points = scan_distances(*grid, DEFAULTS, [0.02])[0.02]
    assert points[-1].distance == grid[1]
    assert all(p.distance <= grid[1] for p in points)
    assert len(points) == round((grid[1] - grid[0]) / grid[2]) + 1


def test_scan_rate_column_positive_then_zero():
    table = scan_distances(0.0, 700.0, 10.0, DEFAULTS, [0.02])
    rates = [p.rate for p in table[0.02]]
    assert rates[0] > 0.0
    assert rates[-1] == 0.0
    # non-increasing within tolerance, and no resurrection after cutoff
    assert all(b <= a + 1e-15 for a, b in zip(rates, rates[1:]))
    first_zero = rates.index(0.0)
    assert all(r == 0.0 for r in rates[first_zero:])


def test_scan_columns_match_reference_curves():
    # with step 37.5 the doubled distances 0, 75, 150, 225 and 300 are
    # rows of the scan and the other four are not
    for grid in ((0.0, 200.0, 100.0), (0.0, 300.0, 37.5)):
        table = scan_distances(*grid, DEFAULTS, [0.02, 0.052])
        for e_d, points in table.items():
            params = SystemParams(misalignment=e_d)
            for p in points:
                assert p.plob == plob_bound(p.distance, params)
                assert p.repeaterless == repeaterless_bound(
                    p.distance, params)
                assert p.dps_baseline == dps_qss_baseline(
                    p.distance, params)
                # a lane of the scan is a one-lane optimization
                assert p.mu_opt == optimize_mu(p.distance, params)[0]
                bd = key_rate(p.mu_opt, p.distance, params)
                assert p.rate == bd.rate
                assert p.gain == bd.gain
                assert p.qber == bd.qber


def test_scan_over_several_e_d_equals_one_scan_per_e_d():
    # one optimizer call takes every e_d's lanes: lanes of different e_d
    # share grid blocks and one root search, and each row must still be
    # the row of a scan of that e_d alone
    e_ds = [0.02, 0.04, 0.052]
    table = scan_distances(0.0, 700.0, 10.0, DEFAULTS, e_ds)
    assert list(table) == e_ds
    for e_d in e_ds:
        alone = scan_distances(0.0, 700.0, 10.0, DEFAULTS, [e_d])[e_d]
        assert len(table[e_d]) == len(alone) == 71
        assert table[e_d] == alone
    # an e_d listed twice gets two identical sweeps under one key; with
    # four sweeps the 568 lanes take nine grid tiles (of 64, the last of
    # 56), so tiles hold lanes of two e_d
    twice = scan_distances(0.0, 700.0, 10.0, DEFAULTS,
                           [0.04, 0.02, 0.04, 0.052])
    assert list(twice) == [0.04, 0.02, 0.052]
    assert twice[0.04] == table[0.04] + table[0.04]
    assert twice[0.02] == table[0.02]
    assert twice[0.052] == table[0.052]


@pytest.mark.parametrize("bad", [0.7, math.nan, -0.01])
def test_scan_rejects_a_bad_e_d_anywhere_in_the_list(bad):
    for e_ds in ([bad], [0.02, bad], [0.02, 0.04, bad]):
        with pytest.raises(ParameterError, match="^misalignment="):
            scan_distances(0.0, 100.0, 10.0, DEFAULTS, e_ds)


def test_scan_validates_arguments():
    with pytest.raises(ParameterError, match="l_min"):
        scan_distances(-1.0, 100.0, 10.0, DEFAULTS, [0.02])
    with pytest.raises(ParameterError, match="step"):
        scan_distances(0.0, 100.0, 0.0, DEFAULTS, [0.02])
    with pytest.raises(ParameterError, match="at least one e_d"):
        scan_distances(0.0, 100.0, 10.0, DEFAULTS, [])


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["l_min", "l_max", "step"])
def test_scan_rejects_non_finite_grid_bounds(name, bad):
    grid = dict(l_min=0.0, l_max=100.0, step=10.0)
    grid[name] = bad
    with pytest.raises(ParameterError, match=f"^{name}="):
        scan_distances(grid["l_min"], grid["l_max"], grid["step"],
                       DEFAULTS, [0.02])


def test_scan_rejects_a_step_whose_grid_size_overflows():
    with pytest.raises(ParameterError, match="^step="):
        scan_distances(0.0, 700.0, 5e-324, DEFAULTS, [0.02])
    # a one-point grid has a finite size at any step
    (point,) = scan_distances(0.0, 0.0, 5e-324, DEFAULTS, [0.02])[0.02]
    assert point.distance == 0.0


def test_find_crossover_exists_at_low_misalignment():
    crossing = find_crossover(DEFAULTS)
    assert crossing is not None
    assert 0.0 < crossing < 800.0
    # consistency with a direct scan around the reported distance
    params = DEFAULTS
    _, above = optimize_mu(crossing + 10.0, params)
    assert above.rate > plob_bound(crossing + 10.0, params)
    _, below = optimize_mu(max(0.0, crossing - 10.0), params)
    assert below.rate <= plob_bound(max(0.0, crossing - 10.0), params)
    # the returned endpoint itself clears the bound
    _, at = optimize_mu(crossing, params)
    assert at.rate > plob_bound(crossing, params)


def test_find_crossover_none_at_high_misalignment():
    assert find_crossover(SystemParams(misalignment=0.20)) is None


@pytest.mark.parametrize("e_d,crossing", [
    (0.02, 172.79296875),
    (0.04, 251.2109375),
    (0.05, 351.025390625),
    (0.0515625, 402.55859375),
    (0.051640625, None),
])
def test_default_crossovers_are_pinned(e_d, crossing):
    # the default parameters' crossovers, float for float; the last two
    # e_d straddle the largest misalignment with a crossover
    assert find_crossover(replace(DEFAULTS, misalignment=e_d)) == crossing


def test_find_crossover_is_deterministic():
    assert find_crossover(DEFAULTS) == find_crossover(DEFAULTS)


@pytest.mark.parametrize("kwargs,name", [
    (dict(tol=0.0), "tol"),  # bisected forever
    (dict(tol=-1.0), "tol"),
    (dict(tol=math.nan), "tol"),
    (dict(coarse_step=0.0), "coarse_step"),  # divided by zero
    (dict(coarse_step=-5.0), "coarse_step"),  # claimed no crossover
    (dict(coarse_step=math.nan), "coarse_step"),
    (dict(l_max=-1.0), "l_max"),
    (dict(l_max=math.inf), "l_max"),
    (dict(coarse_step=5e-324), "coarse_step"),  # walk length overflowed
])
def test_find_crossover_validates_arguments(kwargs, name):
    with pytest.raises(ParameterError, match=f"^{name}="):
        find_crossover(DEFAULTS, **kwargs)


def test_find_crossover_stops_at_float_resolution():
    # a tolerance below the float spacing near the crossing ends with
    # the bracket at two adjacent floats instead of looping
    crossing = find_crossover(DEFAULTS, tol=1e-300)

    def excess(distance):
        return optimize_mu(distance, DEFAULTS)[1].rate - plob_bound(
            distance, DEFAULTS)

    assert excess(crossing) > 0.0
    assert excess(math.nextafter(crossing, 0.0)) <= 0.0
    assert abs(crossing - find_crossover(DEFAULTS)) <= 1e-2


def test_maximize_rate_handles_raw_transmittance():
    mu_opt, bd = maximize_rate_at_transmittance(0.3, DEFAULTS)
    audit = np.linspace(MU_MIN, MU_MAX, 20_001)
    best = rate_at_transmittance(audit, 0.3, DEFAULTS).rate.max()
    assert bd.rate >= best - 1e-12
    # no lanes: empty fields, as the kernel gives
    mu_opt, bd = maximize_rate_at_transmittance(np.array([]), DEFAULTS)
    assert mu_opt.shape == bd.rate.shape == bd.gain.shape == (0,)


def test_find_crossover_walks_up_to_l_max():
    # 174.9 is no multiple of the 5 km step: the walk used to end at 170
    # and miss the crossing near 172.79 km
    crossing = find_crossover(DEFAULTS, l_max=174.9)
    assert crossing is not None
    assert 170.0 < crossing <= 174.9
    assert abs(crossing - find_crossover(DEFAULTS)) <= 1e-2
    assert find_crossover(DEFAULTS, l_max=170.0) is None


def _cached_excess(params):
    @functools.cache
    def excess(distance):
        return optimize_mu(distance, params)[1].rate - plob_bound(
            distance, params)

    return excess


def _sequential_crossover(excess, l_max=800.0, coarse_step=5.0, tol=1e-2):
    """Point-by-point walk, then one-midpoint-at-a-time bisection."""
    n_steps = int(l_max / coarse_step + 1e-9)
    walk = [min(i * coarse_step, l_max) for i in range(n_steps + 1)]
    if walk[-1] < l_max:
        walk.append(l_max)
    for i, distance in enumerate(walk):
        if excess(distance) > 0.0:
            break
    else:
        return None
    if i == 0:
        return 0.0
    lo, hi = walk[i - 1], walk[i]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if excess(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("e_d", [0.02, 0.04, 0.05])
def test_find_crossover_matches_a_sequential_search(e_d):
    # tol 0.3 stops with the first five-level round, 1.0 inside it, 1e-2
    # inside the second, and 1e-300 only at float resolution
    params = SystemParams(misalignment=e_d)
    excess = _cached_excess(params)
    for tol in (1e-2, 0.3, 1.0, 1e-300):
        expected = _sequential_crossover(excess, tol=tol)
        assert expected is not None
        assert find_crossover(params, tol=tol) == expected, tol


@pytest.mark.parametrize("kwargs", [
    dict(coarse_step=200.0),  # the crossing lies in the first cell
    dict(l_max=100.0),  # no crossing on the walk
    dict(l_max=174.9),  # the crossing lies in the clamped last cell
])
def test_find_crossover_matches_a_sequential_search_at_the_walk_ends(kwargs):
    assert find_crossover(DEFAULTS, **kwargs) == _sequential_crossover(
        _cached_excess(DEFAULTS), **kwargs)


def test_find_crossover_leaves_lanes_without_clicks_for_last():
    # without dark counts the gain underflows to 0 beyond about 636 km at
    # 10 dB/km, where the rate is undefined; the walk crosses at 2.9 km
    params = SystemParams(attenuation=10.0, dark_count_rate=0.0)
    assert find_crossover(params) == _sequential_crossover(
        _cached_excess(params))
    # with no crossing before them, those lanes raise as a sequential
    # walk does
    with pytest.raises(DegenerateChannelError):
        find_crossover(SystemParams(attenuation=10.0, dark_count_rate=0.0,
                                    misalignment=0.3))


def _mp_rate(mu, eta, params):
    """The rate's closed form in mpmath (no clamp: callers keep R > 0)."""
    p_d = mpmath.mpf(params.dark_count_rate)
    e_d = mpmath.mpf(params.misalignment)
    decay = mpmath.exp(-mu * eta)
    q = 1 - (1 - 2 * p_d) * decay
    e = (e_d * q + (mpmath.mpf(1) / 2 - e_d) * 2 * p_d * decay) / q
    p_co = 1 - e**2 - (1 - 6 * e) ** 2 / 2
    h = 0 if e == 0 else -e * mpmath.log(e, 2) - (1 - e) * mpmath.log(1 - e, 2)
    return q * (-(1 - 2 * mu) * mpmath.log(p_co, 2)
                - params.ec_efficiency * h)


def _mp_slope(mu, eta, params):
    """dR/dmu by 50-digit numerical differentiation."""
    with mpmath.workdps(50):
        return mpmath.diff(lambda m: _mp_rate(m, eta, params), mpmath.mpf(mu))


def _mp_optimum(distance, params, start):
    """Root of the 50-digit slope found from start, apart from the
    optimizer's own slope."""
    eta = transmittance(distance, params)
    with mpmath.workdps(50):
        return mpmath.findroot(lambda m: _mp_slope(m, eta, params),
                               mpmath.mpf(start))


@pytest.mark.parametrize("p_d", [0.0, 1e-8, 1e-4])
# a subnormal e_d makes E subnormal, where (1 - E)/E overflows
@pytest.mark.parametrize("e_d", [0.0, 2.2e-311, 0.02, 0.052])
def test_slope_matches_a_50_digit_derivative(e_d, p_d):
    params = SystemParams(dark_count_rate=p_d, misalignment=e_d)
    for distance in (0.0, 100.0, 300.0, 500.0):
        mu_opt, bd = optimize_mu(distance, params)
        if bd.rate == 0.0:
            continue
        eta = transmittance(distance, params)
        # away from the optimum, where the slope itself is not ~0
        mu = np.array([0.01, 0.3, 0.7, 1.4]) * mu_opt
        rate, slope, _ = _rate_and_slope(mu, np.asarray(eta), params)
        assert (rate == rate_at_transmittance(mu, eta, params).rate).all()
        for m, g in zip(mu, slope):
            with mpmath.workdps(50):
                if _mp_rate(mpmath.mpf(m), eta, params) <= 0:
                    continue
            expected = _mp_slope(m, eta, params)
            assert abs(g - expected) <= 1e-9 * abs(expected), (distance, m)


def _mp_curvature(mu, eta, params, dps=50):
    """d2R/dmu2 by numerical differentiation at dps digits."""
    with mpmath.workdps(dps):
        return mpmath.diff(lambda m: _mp_rate(m, eta, params),
                           mpmath.mpf(mu), 2)


@pytest.mark.parametrize("p_d", [0.0, 1e-8, 1e-4])
@pytest.mark.parametrize("e_d", [0.0, 2.2e-311, 0.02, 0.052])
def test_curvature_matches_a_50_digit_second_derivative(e_d, p_d):
    params = SystemParams(dark_count_rate=p_d, misalignment=e_d)
    lanes = [(transmittance(d, params), 50)
             for d in (0.0, 100.0, 300.0, 500.0)]
    if p_d == 0.0:
        # Q = 1e-171 and Q*Q underflows; 1 - e^(-mu*eta) needs about
        # 171 more digits before the 50 that are compared
        lanes.append((1e-170, 250))
    mu = np.array([0.01, 0.1, 0.2, 0.3])
    for eta, dps in lanes:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rate, _, curv = _rate_and_slope(mu, np.asarray(eta), params)
        for m, r, c in zip(mu, rate, curv):
            if r == 0.0:
                assert c == 0.0
                continue
            expected = _mp_curvature(m, eta, params, dps)
            assert abs(c - expected) <= 1e-12 * abs(expected), (eta, m)


def test_slope_is_zero_where_the_rate_is():
    # beyond the cutoff (rate clamped to 0) and at E > 6/19 (P_co
    # saturated) the rate is flat at 0
    params = SystemParams(misalignment=0.052)
    mu = np.array([0.05, 0.2])
    for eta in (transmittance(1000.0, params), 0.0):
        rate, slope, _ = _rate_and_slope(mu, np.asarray(eta), params)
        assert (rate == 0.0).all() and (slope == 0.0).all()


def test_slope_without_dark_counts_on_long_links():
    # Q = 1e-171: Q*Q underflows to 0, and D = 0, so a slope computed
    # with D / (Q*Q) is 0/0 (a RuntimeWarning, an error in this suite)
    params = SystemParams(dark_count_rate=0.0)
    mu, eta = np.array([0.05, 0.25]), np.asarray(1e-170)
    _, slope, _ = _rate_and_slope(mu, eta, params)
    # without dark counts E = e_d, so only Q and the (1 - 2 mu) factor
    # depend on mu
    e = params.misalignment
    log_p_co = math.log2(1.0 - e * e - (1.0 - 6.0 * e) ** 2 / 2.0)
    h = -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)
    for m, g in zip(mu, slope):
        q = -math.expm1(-m * 1e-170)
        expected = (1e-170 * math.exp(-m * 1e-170)
                    * (-(1.0 - 2.0 * m) * log_p_co - params.ec_efficiency * h)
                    + q * 2.0 * log_p_co)
        assert g == pytest.approx(expected, rel=1e-12)
    # the same links through the optimizer: 10 dB/km, 600 km
    mu_opt, bd = optimize_mu(600.0, SystemParams(attenuation=10.0,
                                                 dark_count_rate=0.0))
    assert bd.rate > 0.0 and MU_MIN < mu_opt < MU_MAX


def _written_out_rate_and_slope(mu, eta, p_d, e_d, f):
    """R, dR/dmu and d2R/dmu2 with every piece written out and formed
    here, none shared with the rate: the expressions _rate_and_slope
    evaluated before it read _rate_terms' pieces, in the same order."""
    ln2 = math.log(2.0)
    x = mu * eta
    q = -np.expm1(-x) * (1.0 - 2.0 * p_d) + 2.0 * p_d
    decay = np.exp(-x)
    e = np.minimum(0.5, (e_d * q + (0.5 - e_d) * (2.0 * p_d * decay)) / q)
    p_co = 1.0 - e * e - (1.0 - 6.0 * e) ** 2 / 2.0
    inside = (e > 0.0) & (e < 1.0)
    y = np.where(inside, e, 0.5)
    ec_term = f * np.where(
        inside, -y * np.log2(y) - (1.0 - y) * np.log1p(-y) / ln2, 0.0)
    saturated = p_co < 0.5
    privacy = np.where(
        saturated, -np.inf,
        -(1.0 - 2.0 * mu) * np.log2(np.where(saturated, 1.0, p_co)))
    rate = np.maximum(0.0, q * (privacy - ec_term))
    keyed = rate > 0.0
    dq = (1.0 - 2.0 * p_d) * eta * decay
    eta_q = eta / q
    de = -(0.5 - e_d) * (2.0 * p_d * decay / q) * eta_q
    p = np.where(keyed, p_co, 1.0)
    p_e = 6.0 - 38.0 * e
    r = p_e * de / p
    w = 1.0 - 2.0 * mu
    positive = e > 0.0
    y = np.where(positive, e, 0.5)
    one_y = 1.0 - y
    f_h1 = f * np.where(positive, np.log2(one_y) - np.log2(y), 0.0)
    s = np.where(keyed, privacy - ec_term, 0.0)
    d_s = 2.0 * np.log2(p) - w * r / ln2 - f_h1 * de
    slope = np.where(keyed, dq * s + q * d_s, 0.0)
    d2e = de * (eta - 2.0 * eta_q)
    d_r = (p_e * d2e - 38.0 * de * de) / p - r * r
    d2_s = (4.0 * r - w * d_r + f * de * (de / y) / one_y) / ln2 - f_h1 * d2e
    curv = dq * (2.0 * d_s - eta * s) + q * d2_s
    return rate, slope, np.where(keyed, curv, 0.0)


def test_rate_and_slope_match_the_written_out_formulas_bit_for_bit():
    # the 3,000 draws of the audit domain (row-major draw order), then
    # lanes without dark counts and lanes with a subnormal e_d, each at
    # its own distance, p_d, e_d and f, and at ten mu from 1e-6 to the
    # top of the range, in one call with per-lane _Channel arrays: rate,
    # slope and curvature must be the written-out formulas' to the bit
    rows = np.random.default_rng(0).uniform(size=(3000, 6))
    params = [_domain_params(row) for row in rows]
    distances = (800.0 * rows[:, 5]).tolist()
    for p_d, e_d in ((0.0, 0.02), (0.0, 0.0), (1e-8, 2.2e-311),
                     (1e-3, 2.2e-311)):
        for distance in (0.0, 100.0, 400.0, 800.0):
            params.append(SystemParams(dark_count_rate=p_d,
                                       misalignment=e_d))
            distances.append(distance)
    mu = np.array([1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.45,
                   MU_MAX])
    lanes = np.repeat([transmittance(d, p)
                       for d, p in zip(distances, params)], mu.size)
    channel = _per_lane_channel([p for p in params for _ in mu])
    mu = np.tile(mu, len(params))
    got = _rate_and_slope(mu, lanes, channel)
    expected = _written_out_rate_and_slope(mu, lanes, *channel)
    for name, a, b in zip(("rate", "slope", "curvature"), got, expected):
        assert a.tobytes() == b.tobytes(), name
    # keyed points (2,985), saturated ones (15,654) and others clamped
    # to rate 0 (11,521), and keyed points of the extra lanes (70 with a
    # subnormal e_d, 72 without dark counts)
    rate, _, curv = got
    saturated = collision_probability(rate_at_transmittance(
        mu, lanes, channel).qber) < 0.5
    assert np.count_nonzero(rate > 0.0) >= 2500
    assert np.count_nonzero(saturated) >= 10000
    assert np.count_nonzero((rate == 0.0) & ~saturated) >= 10000
    assert np.count_nonzero((rate > 0.0)
                            & (channel.misalignment < 1e-300)) >= 50
    assert np.count_nonzero((rate > 0.0)
                            & (channel.dark_count_rate == 0.0)) >= 50
    assert (curv[rate == 0.0] == 0.0).all()


@pytest.mark.parametrize("e_d", [0.0, 0.02, 0.04, 0.052])
def test_mu_opt_is_the_50_digit_optimum(e_d):
    params = SystemParams(misalignment=e_d)
    for distance in range(0, 601, 100):
        mu_opt, bd = optimize_mu(float(distance), params)
        if bd.rate == 0.0:  # no key, no interior optimum
            continue
        assert MU_MIN < mu_opt < MU_MAX
        expected = _mp_optimum(float(distance), params, mu_opt)
        assert abs(mu_opt - expected) <= 1e-12 * expected, distance


def test_mu_opt_is_the_50_digit_optimum_across_the_domain():
    # keyed lanes drawn over the whole parameter domain, away from the
    # defaults: the root search stops where the slope's sign is rounding
    # noise, which must leave mu_opt at the 50-digit root
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 64:
        params = SystemParams(
            detector_efficiency=rng.uniform(0.05, 1.0),
            dark_count_rate=10.0 ** rng.uniform(-12.0, -2.0),
            attenuation=rng.uniform(0.15, 0.35),
            ec_efficiency=rng.uniform(1.0, 1.5),
            misalignment=rng.uniform(0.0, 0.12))
        distance = rng.uniform(0.0, 800.0)
        mu_opt, bd = optimize_mu(distance, params)
        # no key, an optimum at the grid's ends, or one on the saturation
        # edge, where the slope has no root
        if (bd.rate == 0.0 or mu_opt in (MU_MIN, MU_MAX)
                or abs(bd.collision - 0.5) <= 1e-9):
            continue
        checked += 1
        expected = _mp_optimum(distance, params, mu_opt)
        assert abs(mu_opt - expected) <= 1e-12 * expected, (params, distance)


@pytest.fixture
def kernel_calls(monkeypatch):
    """List that grows by one per rate or slope kernel call of the
    optimizer; its tiled grid counts as one call."""
    calls = []
    for name in ("rate_at_transmittance", "_rate_and_slope", "_grid_best"):
        kernel = getattr(tfqss.optimize, name)

        def counted(*args, kernel=kernel):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(tfqss.optimize, name, counted)
    return calls


def test_zero_rate_bracket_end_keeps_the_optimum(kernel_calls):
    # at e_d = 0.04 and 570 km the rate is 0 at the grid bracket's upper
    # end; the search starts at the best grid point, whose slope points
    # down, and must close in on the root below it. Every probe here has
    # key, so the rule for probes without key (bisect toward the best
    # grid point) is not reached; the saturation-edge tests cover it
    params = SystemParams(misalignment=0.04)
    eta = transmittance(570.0, params)
    ratio = (MU_MAX / MU_MIN) ** (1.0 / 63)
    grid = np.array([MU_MIN * ratio**i for i in range(63)] + [MU_MAX])
    rates = rate_at_transmittance(grid, eta, params).rate
    best = int(rates.argmax())
    assert rates[best + 1] == 0.0 < rates[best - 1]
    kernel_calls.clear()
    mu_opt, bd = optimize_mu(570.0, params)
    assert len(kernel_calls) <= 6
    expected = _mp_optimum(570.0, params, mu_opt)
    assert abs(mu_opt - expected) <= 1e-12 * expected
    with mpmath.workdps(50):
        best_rate = _mp_rate(expected, eta, params)
    assert bd.rate == pytest.approx(float(best_rate), rel=1e-12)
    assert bd.rate > 1.01 * rates[best]


def test_root_next_to_a_grid_point_keeps_the_grid_rate():
    # Near e_d = 0.0130751275592 at 300 km the slope root lies within
    # rounding of the grid point mu = 0.2173...: the rate is flat to an
    # ulp there, and the root's rate can round below the grid point's.
    # The optimizer then keeps the grid point.
    ratio = (MU_MAX / MU_MIN) ** (1.0 / 63)
    grid = np.array([MU_MIN * ratio**i for i in range(63)] + [MU_MAX])
    e_0 = 0.013075127559210946
    for k in range(-32, 32):
        params = SystemParams(dark_count_rate=1e-6,
                              misalignment=e_0 + k * math.ulp(e_0))
        _, bd = optimize_mu(300.0, params)
        assert bd.rate >= key_rate(grid, 300.0, params).rate.max(), k


@pytest.mark.parametrize("distance", [140.0, 400.0])
def test_optimum_on_the_saturation_edge(distance):
    # with f = 1 and e_d = 0.08 the rate jumps from 0 to its maximum
    # where P_co reaches 1/2 and falls beyond: the slope has no root and
    # the search closes in on the edge from both sides
    params = SystemParams(misalignment=0.08, dark_count_rate=1e-6,
                          ec_efficiency=1.0)
    mu_opt, bd = optimize_mu(distance, params)
    assert bd.collision == pytest.approx(0.5, abs=1e-12)
    audit = np.linspace(0.5 * mu_opt, 2.0 * mu_opt, 20_001)
    eta = transmittance(distance, params)
    assert bd.rate >= rate_at_transmittance(audit, eta, params).rate.max()


def test_optimize_mu_makes_few_kernel_calls(kernel_calls):
    # grid, the best grid point, Newton steps on the slope and the final
    # breakdown; Illinois regula falsi on the same lanes needed up to 12
    # calls, 7.43 on average
    counts = []
    for e_d in (0.0, 0.02, 0.04, 0.052):
        for distance in range(0, 701, 10):
            kernel_calls.clear()
            optimize_mu(float(distance), SystemParams(misalignment=e_d))
            counts.append(len(kernel_calls))
    assert max(counts) <= 6
    assert sum(counts) / len(counts) <= 5.12


def test_saturation_edge_lane_closes_its_bracket(kernel_calls):
    # the rate jumps from 0 at the edge, so every Newton step that lands
    # beyond it rates 0 and the lane bisects instead: the bracket closes
    # to _STOP of mu after 45 steps, short of _REFINE_ITERS, plus one
    # grid call, one call for the best grid point and the final
    # breakdown (regula falsi crept up on the edge and stopped at the
    # cap, 63 calls)
    params = SystemParams(misalignment=0.08, dark_count_rate=1e-6,
                          ec_efficiency=1.0)
    optimize_mu(280.0, params)
    assert len(kernel_calls) == 48 < tfqss.optimize._REFINE_ITERS + 3


def test_find_crossover_makes_few_kernel_calls(kernel_calls):
    # the walk's 161 lanes take one grid call and four slope steps, and
    # each lane stops once its Newton step is at rounding level; the two
    # bisection rounds start warm from their ends' optima, with no grid
    # call, and take two slope steps each. No call makes a breakdown (15
    # with a grid call per round, 18 with a breakdown, 29 with regula
    # falsi, 43 with 16-lane grid calls and a 4-ulp stop)
    assert find_crossover(DEFAULTS) == 172.79296875
    assert len(kernel_calls) <= 9


def test_lanes_without_key_make_no_slope_call(kernel_calls):
    # at e_d = 0.2 no walk point has key on the grid: the grid call is
    # the walk's only kernel call (three with a slope call for the best
    # grid points and a breakdown)
    assert find_crossover(SystemParams(misalignment=0.2)) is None
    assert len(kernel_calls) == 1
    # beyond the cutoff one lane takes its grid and breakdown calls
    kernel_calls.clear()
    mu_opt, bd = optimize_mu(1000.0, DEFAULTS)
    assert (mu_opt, bd.rate) == (MU_MIN, 0.0)
    assert len(kernel_calls) == 2


def test_find_crossover_evaluates_plob_only_where_the_rate_keys(
        monkeypatch):
    # PLOB >= 0, so a point with rate 0 never beats it, and no point
    # past the first crossing of a call is read: 36 walk points up to
    # 175 km, then 18 and 14 midpoints in the two rounds (207 when every
    # point of every call was evaluated)
    distances = []

    def counted(distance, params):
        distances.append(distance)
        return plob_bound(distance, params)

    monkeypatch.setattr(tfqss.optimize, "plob_bound", counted)
    # without key anywhere, PLOB is never evaluated
    assert find_crossover(SystemParams(misalignment=0.2)) is None
    assert distances == []
    assert find_crossover(DEFAULTS) == 172.79296875
    assert len(distances) == 68
    assert all(optimize_mu(d, DEFAULTS)[1].rate > 0.0 for d in distances)


def test_scan_makes_few_kernel_calls(kernel_calls):
    # every e_d's 142 lanes in one optimizer call: one tiled grid call
    # for all 426 lanes, the best grid points and the lockstep steps,
    # and one final breakdown (8 calls with a grid call per block of
    # 142 lanes, 18 with one optimizer call per e_d, 33 with regula
    # falsi, 61 with 16-lane grid calls and a 4-ulp stop)
    scan_distances(0.0, 700.0, 10.0, DEFAULTS, [0.02, 0.04, 0.052])
    assert len(kernel_calls) <= 6


def test_scan_is_one_call_of_the_module_optimizer(monkeypatch):
    # the scan's lanes go through tfqss.optimize.maximize_rate_at_transmittance,
    # looked up as the module attribute that a tracer wraps, once a scan
    calls = []
    maximize = tfqss.optimize.maximize_rate_at_transmittance

    def counted(eta, params, **kwargs):
        calls.append((np.size(eta), kwargs))
        return maximize(eta, params, **kwargs)

    monkeypatch.setattr(tfqss.optimize, "maximize_rate_at_transmittance",
                        counted)
    scan_distances(0.0, 700.0, 10.0, DEFAULTS, [0.02, 0.04, 0.052])
    assert calls == [(426, {"grid_size": 64})]
    calls.clear()
    scan_distances(0.0, 0.0, 1.0, DEFAULTS, [0.02], grid_size=16)
    assert calls == [(2, {"grid_size": 16})]


def test_find_crossover_evaluates_only_the_points_it_reads(monkeypatch):
    # the walk's 161 distances, its root search on the ones with key,
    # then two bisection rounds: five levels (31 midpoints), and four
    # (15) once a cell is within tol. Each kernel call takes the lanes of
    # one of these, and each slope call probes one point per lane
    walk = np.array([transmittance(d, DEFAULTS) for d in range(0, 801, 5)])
    keyed = np.count_nonzero(
        maximize_rate_at_transmittance(walk, DEFAULTS)[1].rate > 0.0)
    lanes, slope_points = [], []
    grid = tfqss.optimize._grid_best
    slope = tfqss.optimize._rate_and_slope

    def counted_grid(mu, eta, channel):
        lanes.append(eta.size)
        return grid(mu, eta, channel)

    def counted_slope(mu, eta, params):
        lanes.append(np.size(eta))
        slope_points.append((np.size(mu), np.size(eta)))
        return slope(mu, eta, params)

    monkeypatch.setattr(tfqss.optimize, "_grid_best", counted_grid)
    monkeypatch.setattr(tfqss.optimize, "_rate_and_slope", counted_slope)
    assert find_crossover(DEFAULTS) == 172.79296875
    assert [n for n, _ in itertools.groupby(lanes)] == [161, keyed, 31, 15]
    assert all(points == n for points, n in slope_points)


def test_crossover_rounds_make_no_grid_call(kernel_calls, monkeypatch):
    # the walk is the crossing search's one grid call: each bisection
    # round starts from its ends' optima (three grid calls when every
    # round ran the grid)
    grid_calls = []
    grid = tfqss.optimize._grid_best

    def counted(*args):
        grid_calls.append(1)
        return grid(*args)

    monkeypatch.setattr(tfqss.optimize, "_grid_best", counted)
    assert find_crossover(DEFAULTS) == 172.79296875
    assert len(grid_calls) == 1
    assert len(kernel_calls) <= 10


def _crossover_rounds(monkeypatch, params):
    """find_crossover(params) and the (distances, lanes, channel, mu_opt,
    rate) of each warm round it ran."""
    rounds, distances = [], []
    search = tfqss.optimize._root_search
    start_between = tfqss.optimize._start_between

    def recorded_start(points, *ends):
        distances.append(points)
        return start_between(points, *ends)

    def recorded(x, lo, hi, lanes, channel, *steps):
        mu_opt, rate, converged = search(x, lo, hi, lanes, channel, *steps)
        # a warm round's search; the grid search's runs _REFINE_ITERS
        if steps == (tfqss.optimize._WARM_STEPS,):
            rounds.append((distances[-1], lanes, channel, mu_opt, rate))
        return mu_opt, rate, converged

    monkeypatch.setattr(tfqss.optimize, "_start_between", recorded_start)
    monkeypatch.setattr(tfqss.optimize, "_root_search", recorded)
    return find_crossover(params), rounds


@pytest.mark.parametrize("e_d", [0.02, 0.04, 0.05, 0.0515625, 0.051640625])
def test_warm_crossover_rounds_match_the_cold_search(monkeypatch, e_d):
    # each midpoint of a warm round gets the grid search's optimum to
    # rounding, and the same answer to "does the rate beat PLOB". The
    # two searches stop at the root from different probes, so they agree
    # to the last bit only on some lanes: here mu_opt within 48 ulps and
    # the rate within 2e-14 of it. Every round here is warm: no rate
    # lies within _TIE of PLOB
    params = replace(DEFAULTS, misalignment=e_d)
    crossing, rounds = _crossover_rounds(monkeypatch, params)
    assert len(rounds) == (0 if crossing is None else 2)
    for distances, lanes, channel, mu_opt, rate in rounds:
        cold_mu, cold_rate = tfqss.optimize._maximize_lanes(lanes, channel, 64)
        assert np.all(rate > 0.0)
        np.testing.assert_allclose(mu_opt, cold_mu, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(rate, cold_rate, rtol=1e-13, atol=0.0)
        assert lanes.tolist() == [transmittance(d, params) for d in distances]
        plob = np.array([plob_bound(d, params) for d in distances])
        assert np.array_equal(rate > plob, cold_rate > plob)


def _domain_params(row):
    """SystemParams of one row of the audit domain's uniforms."""
    low = np.array([0.05, -12.0, 0.15, 1.0, 0.0])
    high = np.array([1.0, -2.0, 0.35, 1.5, 0.12])
    eta_d, exponent, alpha, f, e_d = (low + (high - low) * row[:5]).tolist()
    return SystemParams(detector_efficiency=eta_d,
                        dark_count_rate=10.0**exponent, attenuation=alpha,
                        ec_efficiency=f, misalignment=e_d)


@pytest.mark.parametrize("case", ["other e_d", "non-monotone draw"])
def test_crossover_lanes_whose_bracket_misses_the_optimum_fall_back(case):
    # a warm lane whose bracket excludes its optimum closes the bracket
    # on an end instead of converging, so its round cannot stand and
    # runs again through the grid search: the bracket forced from e_d =
    # 0.02's optima on e_d = 0.04's lanes, and draw 19 of the audit
    # domain (f = 1.033, below 1/h(6/19)), whose mu_opt jumps within
    # 85-90 km
    if case == "other e_d":
        params = replace(DEFAULTS, misalignment=0.04)
        ends_from, l_a, l_b = replace(DEFAULTS, misalignment=0.02), 170., 175.
    else:
        params = _domain_params(
            np.random.default_rng(0).uniform(size=(3000, 6))[19])
        ends_from, l_a, l_b = params, 85.0, 90.0
    channel = tfqss.optimize._Channel(
        params.dark_count_rate, params.misalignment, params.ec_efficiency)
    (mu_a, mu_b), _ = maximize_rate_at_transmittance(
        np.array([transmittance(d, ends_from) for d in (l_a, l_b)]),
        ends_from)
    distances = [l_a + (l_b - l_a) * k / 32 for k in range(1, 32)]
    lanes = np.array([transmittance(d, params) for d in distances])
    start, lo, hi = tfqss.optimize._start_between(
        distances, (l_a, mu_a), (l_b, mu_b))
    cold_mu, _ = tfqss.optimize._maximize_lanes(lanes, channel, 64)
    outside = (cold_mu < lo) | (cold_mu > hi)
    assert np.count_nonzero(outside) >= 20
    _, _, converged = tfqss.optimize._root_search(
        start, lo, hi, lanes, channel, tfqss.optimize._WARM_STEPS)
    assert not converged[outside].any()


def test_crossover_lanes_at_the_saturation_edge_stop_warm_early(
        kernel_calls):
    # draw 0 of the audit domain (f = 1.008) has its optimum where P_co
    # reaches 1/2 on 615-616 km, its crossing cell at a 1 km walk: the
    # slope has no root there, so a warm lane bisects toward the edge
    # and stops after _WARM_STEPS steps unconverged, and its round runs
    # again through the grid search (42 warm probes, until the bracket
    # closed, without that cap)
    params = _domain_params(
        np.random.default_rng(0).uniform(size=(3000, 6))[0])
    channel = tfqss.optimize._Channel(
        params.dark_count_rate, params.misalignment, params.ec_efficiency)
    (mu_a, mu_b), _ = maximize_rate_at_transmittance(
        np.array([transmittance(d, params) for d in (615.0, 616.0)]), params)
    distances = [615.0 + k / 32 for k in range(1, 32)]
    lanes = np.array([transmittance(d, params) for d in distances])
    kernel_calls.clear()
    _, _, converged = tfqss.optimize._root_search(
        *tfqss.optimize._start_between(
            distances, (615.0, mu_a), (616.0, mu_b)),
        lanes, channel, tfqss.optimize._WARM_STEPS)
    assert len(kernel_calls) == tfqss.optimize._WARM_STEPS + 1
    assert not converged.any()


@pytest.mark.parametrize("start", ["warm", "grid"])
def test_root_search_leaves_its_arguments_unchanged(start):
    # the search updates its bracket and answers in place, on copies: a
    # warm round's _start_between arrays and the grid's gathers stay as
    # the caller made them (read-only here, so a write would raise)
    params = replace(DEFAULTS, misalignment=0.04)
    channel = tfqss.optimize._Channel(
        params.dark_count_rate, params.misalignment, params.ec_efficiency)
    distances = [170.0 + 5.0 * k / 32 for k in range(1, 32)]
    lanes = np.array([transmittance(d, params) for d in distances])
    if start == "warm":
        (mu_a, mu_b), _ = maximize_rate_at_transmittance(
            np.array([transmittance(d, params) for d in (170.0, 175.0)]),
            params)
        args = tfqss.optimize._start_between(
            distances, (170.0, mu_a), (175.0, mu_b))
    else:
        grid = _mu_grid(64)
        best, _ = tfqss.optimize._grid_best(grid, lanes, channel)
        args = grid[best], grid[best - 1], grid[best + 1]
    kept = [a.copy() for a in args]
    for a in args:
        a.flags.writeable = False
    mu_opt, _, converged = tfqss.optimize._root_search(
        *args, lanes, channel)
    assert converged.all() and (mu_opt != args[0]).any()
    for a, b in zip(args, kept):
        assert a.tobytes() == b.tobytes()


def _crossover_calls(monkeypatch):
    """List that grows by "grid" per grid call of the optimizer, and by
    "warm" or "unsettled" per warm round's root search, as every lane
    of it converged or not."""
    calls = []
    grid, search = tfqss.optimize._grid_best, tfqss.optimize._root_search

    def counted_grid(*args):
        calls.append("grid")
        return grid(*args)

    def counted_search(*args):
        mu_opt, rate, converged = search(*args)
        if args[5:] == (tfqss.optimize._WARM_STEPS,):
            calls.append("warm" if converged.all() else "unsettled")
        return mu_opt, rate, converged

    monkeypatch.setattr(tfqss.optimize, "_grid_best", counted_grid)
    monkeypatch.setattr(tfqss.optimize, "_root_search", counted_search)
    return calls


def test_crossover_rounds_at_the_saturation_edge_run_again_cold(
        monkeypatch):
    # draw 0 of the audit domain at a 1 km walk: both bisection rounds
    # of its crossing cell, 615-616 km, start warm, leave lanes at the
    # saturation edge unconverged, and run again through the grid
    # search, which gives the crossing that the grid alone gives
    params = _domain_params(
        np.random.default_rng(0).uniform(size=(3000, 6))[0])
    calls = _crossover_calls(monkeypatch)
    assert find_crossover(params, coarse_step=1.0) == 615.953125
    assert calls == ["grid", "unsettled", "grid", "unsettled", "grid"]


def test_crossover_rounds_within_the_tie_of_plob_run_again_cold(
        monkeypatch):
    # bisected to adjacent floats, the last rounds' rates lie within
    # _TIE of PLOB: the first such round runs again through the grid
    # search, and the crossing is the grid search's to the last bit
    # (kept warm, it was one float lower, where the rate is below PLOB)
    params = replace(DEFAULTS, misalignment=0.05)
    calls = _crossover_calls(monkeypatch)
    crossing = find_crossover(params, coarse_step=1.0, tol=1e-300)
    # a round started warm, then ran the grid search
    tie = calls.index("grid", 1)
    assert calls[tie - 1] == "warm"

    def excess(distance):
        return optimize_mu(distance, params)[1].rate - plob_bound(
            distance, params)

    assert excess(crossing) > 0.0
    assert excess(math.nextafter(crossing, 0.0)) <= 0.0


def test_crossover_rounds_after_a_tie_start_cold(monkeypatch):
    # the same bisection: once a round has met a rate within _TIE of
    # PLOB, the rounds after it, on narrower cells as close to the
    # crossing, run the grid search alone, with no warm search to throw
    # away, and the crossing is the float that rerunning each of them
    # warm then cold gave
    params = replace(DEFAULTS, misalignment=0.05)
    calls = _crossover_calls(monkeypatch)
    crossing = find_crossover(params, coarse_step=1.0, tol=1e-300)
    tie = calls.index("grid", 1)
    assert calls[tie - 1] == "warm"
    assert calls[tie:] == ["grid"] * 5
    assert crossing == 351.024202193069


def test_lanes_of_the_domain_match_one_lane_calls_bit_for_bit():
    # the first 300 draws of the audit domain, one row of uniforms for
    # eta_d, the exponent of p_d, alpha, f, e_d and L each, in one call:
    # each lane has its own p_d, e_d and f, and lanes with and without
    # key interleave. Each gets a one-lane call's mu and rate, and the
    # rate is the kernel's at that mu, which find_crossover reads
    # instead of a breakdown
    draws = np.random.default_rng(0).uniform(size=(3000, 6))[:300]
    low = np.array([0.05, -12.0, 0.15, 1.0, 0.0, 0.0])
    high = np.array([1.0, -2.0, 0.35, 1.5, 0.12, 800.0])
    rows = (low + (high - low) * draws).tolist()
    params = [SystemParams(detector_efficiency=eta_d,
                           dark_count_rate=10.0**exponent,
                           attenuation=alpha, ec_efficiency=f,
                           misalignment=e_d)
              for eta_d, exponent, alpha, f, e_d, _ in rows]
    lanes = np.array([transmittance(row[5], p)
                      for row, p in zip(rows, params)])
    channel = tfqss.optimize._Channel(*(
        np.array([getattr(p, name) for p in params])
        for name in ("dark_count_rate", "misalignment", "ec_efficiency")))
    mu_opt, rate = tfqss.optimize._maximize_lanes(lanes, channel, 64)
    keyed = rate > 0.0
    assert np.count_nonzero(keyed[1:] != keyed[:-1]) >= 20
    one_lane = [maximize_rate_at_transmittance(eta, p)
                for eta, p in zip(lanes.tolist(), params)]
    one_mu, one_rate = np.array([(m, bd.rate) for m, bd in one_lane]).T
    assert mu_opt.tobytes() == one_mu.tobytes()
    assert rate.tobytes() == one_rate.tobytes()
    assert rate.tobytes() == rate_at_transmittance(
        mu_opt, lanes, channel).rate.tobytes()


def test_no_rate_beats_plob_at_zero_distance():
    # find_crossover's walk never crosses at its first point, 0 km: key
    # needs E <= 6/19, so dark clicks are at most 12/19 of the gain Q,
    # and R(0) <= Q(1 - 2 mu) <= (19/7) mu eta_d (1 - 2 mu) < 0.34 eta_d,
    # below PLOB(0) >= eta_d / ln 2. The 3,000 draws of the audit domain
    # at L = 0, then the corners of p_d and eta_d at e_d = 0 and f = 1
    params = [_domain_params(row)
              for row in np.random.default_rng(0).uniform(size=(3000, 6))]
    params += [SystemParams(detector_efficiency=eta_d, dark_count_rate=p_d,
                            ec_efficiency=1.0, misalignment=0.0)
               for p_d in (0.0, 1e-3, 0.49)
               for eta_d in (1e-3, 0.5, 1.0 - 1e-6)]
    lanes = np.array([transmittance(0.0, p) for p in params])
    channel = tfqss.optimize._Channel(*(
        np.array([getattr(p, name) for p in params])
        for name in ("dark_count_rate", "misalignment", "ec_efficiency")))
    _, rate = tfqss.optimize._maximize_lanes(lanes, channel, 64)
    plob = np.array([plob_bound(0.0, p) for p in params])
    assert np.all(rate < plob)
    assert np.all(rate < 0.34 * lanes)


def _mu_grid(size):
    ratio = (MU_MAX / MU_MIN) ** (1.0 / (size - 1))
    return np.array([MU_MIN * ratio**i for i in range(size - 1)] + [MU_MAX])


@pytest.mark.parametrize("grid_size", [16, 64, 256])
@pytest.mark.parametrize("n_lanes", [0, 1, 63, 64, 65, 161, 426])
@pytest.mark.parametrize("per_lane", [False, True])
def test_grid_tiles_give_the_untiled_argmax_and_max(
        monkeypatch, grid_size, n_lanes, per_lane):
    # each tile holds at most _GRID_TILE (lane, mu) points, and its lanes
    # keep the best grid point one (lanes x grid) rate call gives them
    grid = _mu_grid(grid_size)
    lanes = np.array([transmittance(d, DEFAULTS)
                      for d in np.linspace(0.0, 800.0, n_lanes)])
    e_d = np.linspace(0.0, 0.1, n_lanes) if per_lane else 0.02
    channel = tfqss.optimize._Channel(1e-6, e_d, 1.1)
    points = []
    terms = tfqss.optimize._rate_terms

    def counted(mu, eta, params):
        points.append(np.broadcast(mu, eta).size)
        return terms(mu, eta, params)

    monkeypatch.setattr(tfqss.optimize, "_rate_terms", counted)
    best, best_rate = tfqss.optimize._grid_best(grid, lanes, channel)
    whole = rate_at_transmittance(grid, lanes[:, None], channel._make(
        v[:, None] if isinstance(v, np.ndarray) else v for v in channel))
    rates = np.reshape(whole.rate, (n_lanes, grid_size))
    assert np.array_equal(best, rates.argmax(axis=1))
    assert np.array_equal(best_rate, rates.max(axis=1))
    lo, hi = tfqss.keyrate._key_window(grid, lanes, channel)
    assert sum(points) == np.sum(hi - lo)
    assert max(points, default=0) <= tfqss.optimize._GRID_TILE


def test_grid_tiles_raise_the_untiled_errors():
    # the lanes are validated once, before any tile, and a lane without
    # gain raises from whichever tile holds it
    etas = np.linspace(0.9, 0.1, 161)
    etas[100] = 1.5
    with pytest.raises(ParameterError, match=r"^eta=1\.5 outside"):
        maximize_rate_at_transmittance(etas, DEFAULTS)
    etas[100] = 0.0
    with pytest.raises(DegenerateChannelError):
        maximize_rate_at_transmittance(
            etas, replace(DEFAULTS, dark_count_rate=0.0))


def _assert_grid_best_is_the_whole_grid(lanes, channel):
    """_grid_best's argmax and max against one (lanes x grid) rate call,
    bit for bit; returns the call's rates."""
    grid = _mu_grid(64)
    best, best_rate = tfqss.optimize._grid_best(grid, lanes, channel)
    rates = rate_at_transmittance(grid, lanes[:, None], channel._make(
        v[:, None] if isinstance(v, np.ndarray) else v for v in channel)).rate
    assert best.tobytes() == rates.argmax(axis=1).tobytes()
    assert best_rate.tobytes() == rates.max(axis=1).tobytes()
    return rates


def _per_lane_channel(params):
    return tfqss.optimize._Channel(*(
        np.array([getattr(p, name) for p in params])
        for name in ("dark_count_rate", "misalignment", "ec_efficiency")))


def test_grid_key_windows_keep_the_whole_grids_best_on_the_domain():
    # the first 300 draws of the audit domain, one row of uniforms each
    # (row-major draw order), at nine distances each, in one call: the
    # grid evaluates only each lane's key window, and outside it the
    # rate must be exactly 0
    draws = np.random.default_rng(0).uniform(size=(3000, 6))[:300]
    params = [_domain_params(row) for row in draws
              for _ in range(9)]
    distances = [0.0, 25.0, 50.0, 100.0, 200.0, 300.0, 400.0, 600.0,
                 800.0] * len(draws)
    lanes = np.array([transmittance(d, p)
                      for d, p in zip(distances, params)])
    rates = _assert_grid_best_is_the_whole_grid(
        lanes, _per_lane_channel(params))
    assert np.count_nonzero(rates.max(axis=1) > 0.0) >= 500  # 639 of 2,700


def test_grid_key_windows_keep_the_whole_grids_best_at_the_edges():
    # the closed form's edges: no dark counts (E = e_d exactly) and
    # subnormal-scale ones, f where f h(6/19) = 1 and one ulp either
    # side, where E_top jumps from 6/19 to the root below 3/19, e_d at
    # and one ulp below E_top and at 6/19, and links out to 3,000 km
    f_sat = 1.0 / binary_entropy(6.0 / 19.0)
    params = []
    for f in (1.0, np.nextafter(f_sat, 0.0), f_sat,
              np.nextafter(f_sat, 2.0), 1.16, 3.0):
        top = tfqss.keyrate._error_top(f)
        for e_d in (0.0, top, np.nextafter(top, 0.0), 6.0 / 19.0):
            for p_d in (0.0, 1e-300, 1e-8, 0.4):
                params.append(SystemParams(
                    dark_count_rate=p_d, ec_efficiency=f, misalignment=e_d))
    distances = [0.0, 1.0, 10.0, 100.0, 300.0, 600.0, 1000.0, 2000.0,
                 3000.0]
    lanes = np.array([transmittance(d, p)
                      for p in params for d in distances])
    params = [p for p in params for _ in distances]
    rates = _assert_grid_best_is_the_whole_grid(
        lanes, _per_lane_channel(params))
    keyed = rates.max(axis=1) > 0.0
    # the lanes without dark counts at e_d = 6/19 and f = 1 key at E = e_d
    assert keyed[[i for i, p in enumerate(params)
                  if p.dark_count_rate == 0.0 and p.misalignment == 6 / 19
                  and p.ec_efficiency == 1.0]].all()
    assert np.count_nonzero(keyed) >= 150  # 198 of 864


@pytest.mark.parametrize("f", [
    (1.0 + 1e-6) / binary_entropy(6.0 / 19.0), 1.16, 1.5, 3.0, 10.0])
def test_key_window_shapes_hold_on_a_dense_error_grid(f):
    # the two facts _key_window rests on. Where f h(6/19) > 1,
    # -log2 P_co(E) - f h(E) changes sign once on [0, 6/19], at
    # _error_top(f); and h(E)/(-log2 P_co(E)) has no interior minimum,
    # so its minimum over [e_d, 6/19] is at an end
    e = np.linspace(0.0, 6.0 / 19.0, 200_001)
    privacy = -np.log2(collision_probability(e))
    entropy = binary_entropy(e)
    sign = np.sign(privacy - f * entropy)
    assert np.count_nonzero(sign[1:] != sign[:-1]) == 1
    top = tfqss.keyrate._error_top(f)
    assert (sign[e < top * (1.0 - 1e-9)] > 0).all()
    assert (sign[e > top * (1.0 + 1e-9)] < 0).all()
    falls = np.diff(entropy[1:] / privacy[1:]) < 0.0
    assert falls.any() and falls[np.argmax(falls):].all()


def test_key_window_of_float_fields_matches_per_lane_arrays():
    # the 3,000 draws of the audit domain (row-major draw order) at nine
    # distances each: one call per draw with float fields against one
    # call over every lane with per-lane arrays of the same values. The
    # bounds are evaluated once per distinct channel value either way
    grid = _mu_grid(64)
    params = [_domain_params(row)
              for row in np.random.default_rng(0).uniform(size=(3000, 6))]
    distances = [0.0, 25.0, 50.0, 100.0, 200.0, 300.0, 400.0, 600.0, 800.0]
    lanes = np.array([[transmittance(d, p) for d in distances]
                      for p in params])
    window = tfqss.keyrate._key_window
    per_draw = np.array([
        window(grid, eta, tfqss.optimize._Channel(
            p.dark_count_rate, p.misalignment, p.ec_efficiency))
        for eta, p in zip(lanes, params)])
    lo, hi = window(grid, lanes.reshape(-1), _per_lane_channel(
        [p for p in params for _ in distances]))
    assert lo.tobytes() == per_draw[:, 0].reshape(-1).tobytes()
    assert hi.tobytes() == per_draw[:, 1].reshape(-1).tobytes()
    assert np.count_nonzero(hi > lo) >= 1000
    assert np.count_nonzero(hi == lo) >= 1000


def test_grid_raises_for_a_zero_gain_lane_whose_window_is_empty():
    # without dark counts, e_d = 0.3 leaves no key window on any lane,
    # so the grid evaluates no rate; the lane with eta = 0 still raises,
    # as the whole grid would
    channel = tfqss.optimize._Channel(0.0, 0.3, DEFAULTS.ec_efficiency)
    etas = np.linspace(0.9, 0.1, 161)
    lo, hi = tfqss.keyrate._key_window(_mu_grid(64), etas, channel)
    assert np.array_equal(lo, hi)
    etas[100] = 0.0
    with pytest.raises(DegenerateChannelError):
        tfqss.optimize._grid_best(_mu_grid(64), etas, channel)


def test_find_crossover_temporaries_stay_small():
    # the grid's flat tiles of key windows hold 16 KB per temporary (266
    # KB peak; 378 KB with 32 KB tiles of whole lanes); one (161 x 64)
    # block held 80 KB, and its peak was 832 KB
    tracemalloc.start()
    try:
        find_crossover(DEFAULTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * 1024

"""Intensity optimization, distance scans, and crossover search."""

import functools
import math
import warnings

import mpmath
import numpy as np
import pytest

import tfqss.optimize
from tfqss.bounds import dps_qss_baseline, plob_bound, repeaterless_bound
from tfqss.channel import transmittance
from tfqss.core import ParameterError, SystemParams
from tfqss.keyrate import (
    DegenerateChannelError,
    _rate_and_slope,
    key_rate,
    rate_at_transmittance,
)
from tfqss.optimize import (
    MU_MAX,
    MU_MIN,
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
    optimizer."""
    calls = []
    for name in ("rate_at_transmittance", "_rate_and_slope"):
        kernel = getattr(tfqss.optimize, name)

        def counted(*args, kernel=kernel):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(tfqss.optimize, name, counted)
    return calls


def test_zero_rate_bracket_end_keeps_the_optimum(kernel_calls):
    # at e_d = 0.04 and 570 km the rate is 0 at the grid bracket's upper
    # end; the search starts at the best grid point, whose slope points
    # down, and must close in on the root below it (a search that also
    # probed the bracket ends needed the secant to the best grid point
    # there: a unit slope dragged it out, 31 kernel calls instead of 11)
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
    # the walk's 161 lanes take one grid call, and each lane stops once
    # its Newton step is at rounding level: six calls per optimizer call
    # for the walk and two bisection rounds (29 with regula falsi, 43
    # with 16-lane grid calls and a 4-ulp stop)
    assert find_crossover(DEFAULTS) == 172.79296875
    assert len(kernel_calls) <= 18


def test_scan_makes_few_kernel_calls(kernel_calls):
    # one grid call, the best grid points, the lockstep steps and the
    # final breakdown per e_d (33 calls with regula falsi, 61 with 16-lane
    # grid calls and a 4-ulp stop)
    scan_distances(0.0, 700.0, 10.0, DEFAULTS, [0.02, 0.04, 0.052])
    assert len(kernel_calls) <= 18


def test_find_crossover_evaluates_only_the_points_it_reads(monkeypatch):
    # the walk's 161 distances, then two bisection rounds: five levels
    # (31 midpoints), and four (15) once a cell is within tol; each
    # slope call probes one point per lane, the best grid point first
    distances, slope_points = [], []
    maximize = tfqss.optimize.maximize_rate_at_transmittance
    slope = tfqss.optimize._rate_and_slope

    def counted_maximize(eta, params, **kwargs):
        distances.append(len(eta))
        return maximize(eta, params, **kwargs)

    def counted_slope(mu, eta, params):
        slope_points.append((np.size(mu), np.size(eta)))
        return slope(mu, eta, params)

    monkeypatch.setattr(tfqss.optimize, "maximize_rate_at_transmittance",
                        counted_maximize)
    monkeypatch.setattr(tfqss.optimize, "_rate_and_slope", counted_slope)
    assert find_crossover(DEFAULTS) == 172.79296875
    assert distances == [161, 31, 15]
    assert all(points == lanes for points, lanes in slope_points)

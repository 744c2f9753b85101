"""Deterministic intensity optimization, distance scans and crossovers.

The rate is maximized over mu with a coarse logarithmic grid, then the
root of the analytic slope dR/dmu between the best grid point's
neighbors, found by safeguarded Newton steps on the slope
(keyrate._rate_and_slope gives R, dR/dmu and d2R/dmu2 in one pass). No
stage is stochastic, so repeated runs give bit-identical optima; tests
audit the result against dense brute-force grids and a 50-digit
optimum.

The optimizer works on lanes: a 1-D array of arm transmittances, one
independent maximization each. The grid takes one (lanes x grid) call
of the rate kernel keyrate.rate_at_transmittance per block of 256
lanes, and the root search then runs all lanes in lockstep, one slope
call per step, with np.where choosing each lane's branch. A lane's
first probe is its best grid point; each probe moves the bracket to
the side its slope points to, and the lane takes Newton's step where
the slope is concave and the step stays inside its bracket, and
bisects otherwise.
It stops at a zero slope, at a Newton step of at most 1e-14 of mu, one
probe after a step of at most 1e-7 of mu (convergence is quadratic),
once its bracket is 1e-14 of its upper end wide, or after
_REFINE_ITERS steps. A one-lane optimization makes 5-6 kernel calls
on the default parameters. A lane does exactly the arithmetic of a
one-lane run, so results match one-lane calls bit for bit.
scan_distances puts every distance of one e_d into one call, and
find_crossover its whole coarse walk, then at most five bisection
levels (31 midpoints) per call. grid_size is the one setting a caller
may change.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

# dps_qss_baseline is not called here; it stays bound as
# tfqss.optimize.dps_qss_baseline, which bench/tracing.py wraps (the
# benchmark's traced run fails without it)
from .bounds import dps_qss_baseline, plob_bound  # noqa: F401
from .channel import transmittance
from .core import (
    MAX_INTENSITY,
    ParameterError,
    RateBreakdown,
    RatePoint,
    SystemParams,
    _as_int,
)
from .keyrate import _rate_and_slope, rate_at_transmittance

MU_MIN = 1e-6
MU_MAX = MAX_INTENSITY - 1e-6
# a lane stops once its slope bracket is this fraction of its upper end
# wide, or its Newton step this fraction of mu: closer to the root the
# slope's sign is rounding noise
_STOP = 1e-14
# root-search steps per lane at most. No lane reaches it: lanes whose
# rate peaks at the saturation edge bisect there, and of 4,800 lanes
# drawn over the admitted domain the slowest make 45 steps (48 calls)
_REFINE_ITERS = 60
# lanes per kernel call on the grid: one call for every walk and scan
# the package makes (find_crossover's walk has 161 lanes, the default
# scan 142 per e_d), while each (lanes x grid) temporary stays bounded
_GRID_BLOCK = 256
# bisection levels find_crossover evaluates per optimizer call, at most:
# a round stops at the level whose cells are within tol
_BISECT_LEVELS = 5


def maximize_rate_at_transmittance(
    eta,
    params: SystemParams,
    *,
    grid_size: int = 64,
) -> tuple[float | np.ndarray, RateBreakdown]:
    """Best (mu, rate breakdown) at fixed arm transmittances.

    Coarse logarithmic grid over (1e-6, 0.5 - 1e-6), then the root of
    dR/dmu between the best grid point's neighbors: Newton steps on the
    slope from the best grid point, each probe moving the bracket to
    the side its slope points to, bisecting where the slope is not
    concave, the step leaves the bracket or the probe rates 0, at most
    _REFINE_ITERS steps. The answer is the last probe with key; a lane
    keeps the best grid point where that probe rates below it. If every
    grid point yields rate 0 the channel supports no key and (1e-6,
    zero-rate breakdown) is returned.

    eta is a scalar or an array of lanes, each maximized independently;
    for an array, mu and the breakdown's fields are arrays of its shape.
    """
    size = _as_int(grid_size)
    if size is None or size < 16:
        raise ParameterError(
            f"grid_size={grid_size!r} must be an integer >= 16")
    grid_size = size
    shape = np.shape(eta)
    lanes = np.asarray(eta).reshape(-1)
    ratio = (MU_MAX / MU_MIN) ** (1.0 / (grid_size - 1))
    grid = np.array([MU_MIN * ratio**i for i in range(grid_size - 1)]
                    + [MU_MAX])
    # the grid validates eta (and raises where the gain is 0) for the
    # slope calls below, which validate nothing
    rates = np.empty((lanes.size, grid_size))
    for i in range(0, lanes.size, _GRID_BLOCK):
        rates[i:i + _GRID_BLOCK] = rate_at_transmittance(
            grid, lanes[i:i + _GRID_BLOCK, None], params).rate
    best = rates.argmax(axis=1)
    grid_best = rates.max(axis=1)
    mu_best = grid[best]
    keyed = grid_best > 0.0

    def slope(mu):
        rate, d_rate, d2_rate = _rate_and_slope(mu, lanes, params)
        # Where the rate is clamped to 0 its slope is 0, yet the maximum
        # lies toward the best grid point: take the secant to it
        np.divide(grid_best, mu_best - mu, out=d_rate,
                  where=keyed & (rate == 0.0))
        return rate, d_rate, d2_rate

    lo = grid[np.maximum(best - 1, 0)]
    hi = grid[np.minimum(best + 1, grid_size - 1)]
    # the first probe is the best grid point, whose rate is grid_best
    x = mu_best
    _, g, curv = slope(x)
    running = keyed
    mu_opt, mu_rate = mu_best, grid_best
    last = np.zeros(lanes.size, dtype=bool)
    for _ in range(_REFINE_ITERS):
        up = running & (g > 0.0)  # the root lies above x
        down = running & (g < 0.0)
        lo, hi = np.where(up, x, lo), np.where(down, x, hi)
        # Newton's step on the slope where it is concave and stays
        # inside the bracket, else bisection; a zero-rate probe has a
        # secant slope and no curvature, so it bisects
        concave = curv < 0.0
        step = np.divide(g, curv, out=np.zeros_like(g), where=concave)
        target = x - step
        newton = concave & (lo < target) & (target < hi)
        size = np.abs(step)
        # a step below _STOP of x leaves x at the root to rounding
        running = ((up | down) & ~last & ~(concave & (size <= _STOP * x))
                   & (hi - lo > _STOP * hi))
        if not running.any():
            break
        # convergence is quadratic: a step below sqrt(_STOP) of x leaves
        # the next probe at the root to rounding
        last = newton & (size <= _STOP**0.5 * x)
        x = np.where(newton, target, 0.5 * (lo + hi))
        rate, g, curv = slope(x)
        # the answer is the last probe with key: where the rate jumps
        # from 0 at the saturation edge, the root is that edge
        keyed_x = running & (rate > 0.0)
        mu_opt = np.where(keyed_x, x, mu_opt)
        mu_rate = np.where(keyed_x, rate, mu_rate)
    # rounding can leave the root a hair below a grid point's rate
    mu_opt = np.where(mu_rate >= grid_best, mu_opt, mu_best).reshape(shape)
    breakdown = rate_at_transmittance(mu_opt, lanes.reshape(shape), params)
    return (float(mu_opt) if shape == () else mu_opt), breakdown


def optimize_mu(
    distance: float,
    params: SystemParams,
    *,
    grid_size: int = 64,
) -> tuple[float, RateBreakdown]:
    """Best (mu, rate breakdown) at a total distance in km."""
    return maximize_rate_at_transmittance(
        transmittance(distance, params), params, grid_size=grid_size)


def scan_distances(
    l_min: float,
    l_max: float,
    step: float,
    params: SystemParams,
    e_d_list: list[float],
    *,
    grid_size: int = 64,
) -> dict[float, list[RatePoint]]:
    """Optimized rate and reference bounds on a distance grid.

    Returns {e_d: [RatePoint at l_min, l_min+step, ..., <= l_max]}; an
    e_d listed twice gets its sweep twice under one key. Per e_d, one
    optimizer call takes the lanes transmittance(L) for every grid
    distance, which is also the repeaterless column, and
    transmittance(2L), whose rate is dps_baseline (see
    bounds.dps_qss_baseline). The lanes and the plob column depend on
    no e_d, so each is computed once per scan.
    """
    for name, value in (("l_min", l_min), ("l_max", l_max), ("step", step)):
        if not math.isfinite(value):
            raise ParameterError(f"{name}={value!r} must be finite")
    if l_min < 0.0 or l_max < l_min:
        raise ParameterError("need 0 <= l_min <= l_max")
    if step <= 0.0:
        raise ParameterError(f"step={step!r} must be > 0")
    span = (l_max - l_min) / step
    if span == math.inf:
        raise ParameterError(
            f"step={step!r} is too small: (l_max - l_min) / step overflows")
    if not e_d_list:
        raise ParameterError("at least one e_d required")
    n_pts = int(span + 1e-9) + 1
    distances = [min(l_min + i * step, l_max) for i in range(n_pts)]
    etas = [transmittance(scale * distance, params)
            for scale in (1.0, 2.0) for distance in distances]
    plob = [plob_bound(distance, params) for distance in distances]
    result: dict[float, list[RatePoint]] = {e_d: [] for e_d in e_d_list}
    for e_d in e_d_list:
        mu_opt, bd = maximize_rate_at_transmittance(
            etas, replace(params, misalignment=e_d), grid_size=grid_size)
        for i, distance in enumerate(distances):
            result[e_d].append(RatePoint(
                distance, float(mu_opt[i]), float(bd.gain[i]),
                float(bd.qber[i]), float(bd.rate[i]), plob[i], etas[i],
                float(bd.rate[n_pts + i])))
    return result


def find_crossover(
    params: SystemParams,
    *,
    l_max: float = 800.0,
    coarse_step: float = 5.0,
    tol: float = 1e-2,
    grid_size: int = 64,
) -> float | None:
    """Smallest distance where the optimized rate exceeds the PLOB bound.

    Walks [0, l_max] in coarse steps, ending exactly at l_max, to
    bracket the first sign change of optimized_rate - plob, then bisects
    the bracket down to tol km (or to two adjacent floats). Returns
    None when the rate never beats the bound on the walk.

    The whole walk is one optimizer call. Each bisection round takes
    the midpoints of its next levels, at most _BISECT_LEVELS and none
    past a level whose cells are within tol, in ascending order in one
    call, and keeps the first cell where the excess turns positive.
    Each midpoint is 0.5 * (a + b) of its own cell, so this is the
    float a one-point-at-a-time bisection returns wherever the excess
    changes sign once in the bracket; elsewhere it is the first
    crossing among the points evaluated.
    """
    if not 0.0 <= l_max < math.inf:
        raise ParameterError(f"l_max={l_max!r} must be >= 0 and finite")
    for name, value in (("coarse_step", coarse_step), ("tol", tol)):
        if not value > 0.0:
            raise ParameterError(f"{name}={value!r} must be > 0")
    if l_max / coarse_step == math.inf:
        raise ParameterError(f"coarse_step={coarse_step!r} is too small: "
                             "l_max / coarse_step overflows")

    def excess(distances: list[float]) -> np.ndarray:
        etas = [transmittance(distance, params) for distance in distances]
        _, bd = maximize_rate_at_transmittance(
            etas, params, grid_size=grid_size)
        return bd.rate - [plob_bound(d, params) for d in distances]

    n_steps = int(l_max / coarse_step + 1e-9)
    walk = [min(i * coarse_step, l_max) for i in range(n_steps + 1)]
    if walk[-1] < l_max:
        walk.append(l_max)
    # Without dark counts the rate is undefined (DegenerateChannelError)
    # once mu*eta underflows to 0. Those lanes form a tail of the walk,
    # evaluated only if the walk crosses nowhere before it, which is
    # where a point-by-point walk would first meet one.
    live = len(walk)
    if params.dark_count_rate == 0.0:
        live = sum(MU_MIN * transmittance(d, params) > 0.0 for d in walk)
    crossed = np.flatnonzero(excess(walk[:live]) > 0.0)
    if crossed.size == 0:
        if live < len(walk):
            excess(walk[live:])  # raises DegenerateChannelError
        return None
    i = int(crossed[0])
    if i == 0:
        return 0.0
    lo, hi = walk[i - 1], walk[i]
    while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
        # the next levels' cells in ascending order, each midpoint
        # 0.5 * (a + b) of its own cell, as a sequential bisection has it.
        # Any cell within tol ends the round: ending early costs a round,
        # never a different float
        edges = [lo, hi]
        for _ in range(_BISECT_LEVELS):
            edges[1:] = [x for a, b in zip(edges, edges[1:])
                         for x in (0.5 * (a + b), b)]
            if min(b - a for a, b in zip(edges, edges[1:])) <= tol:
                break
        # the first cell where the excess turns positive; at hi it is
        j = int(np.argmax(np.append(excess(edges[1:-1]) > 0.0, True)))
        lo, hi = edges[j], edges[j + 1]
    return hi

"""Deterministic intensity optimization, distance scans and crossovers.

The rate is maximized over mu with a coarse logarithmic grid, then the
root of the analytic slope dR/dmu between the best grid point's
neighbors, found by Illinois regula falsi (keyrate._rate_and_slope
gives R and dR/dmu in one pass). No stage is stochastic, so repeated
runs give bit-identical optima; tests audit the result against dense
brute-force grids and a 50-digit optimum.

The optimizer works on lanes: a 1-D array of arm transmittances, one
independent maximization each. The grid takes one (lanes x grid) call
of the rate kernel keyrate.rate_at_transmittance per block of 16
lanes, and the root search then runs all lanes in lockstep, one slope
call per step, with np.where choosing each lane's branch; a lane stops
at a zero slope or once its bracket is a few ulps wide. A lane does
exactly the arithmetic of a one-lane run, so results match one-lane
calls bit for bit. scan_distances puts every distance of one e_d into
one call, and find_crossover its whole coarse walk, then five
bisection levels (31 midpoints) per call.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

# dps_qss_baseline is not called here; it stays bound as
# tfqss.optimize.dps_qss_baseline, which bench/tracing.py wraps (the
# benchmark's traced run fails without it)
from .bounds import (  # noqa: F401
    dps_qss_baseline,
    plob_bound,
    repeaterless_bound,
)
from .channel import transmittance
from .core import (
    MAX_INTENSITY,
    ParameterError,
    RateBreakdown,
    RatePoint,
    SystemParams,
)
from .keyrate import _rate_and_slope, rate_at_transmittance

MU_MIN = 1e-6
MU_MAX = MAX_INTENSITY - 1e-6
# a lane stops once its slope bracket is this many ulps wide
_ULPS = 4
# lanes per kernel call on the grid: bounds each (lanes x grid) temporary
# to a few kB, which keeps the peak memory of long walks flat
_GRID_BLOCK = 16
# bisection levels find_crossover evaluates per optimizer call
_BISECT_LEVELS = 5


def maximize_rate_at_transmittance(
    eta,
    params: SystemParams,
    *,
    grid_size: int = 64,
    refine_iters: int = 60,
) -> tuple[float | np.ndarray, RateBreakdown]:
    """Best (mu, rate breakdown) at fixed arm transmittances.

    Coarse logarithmic grid over (1e-6, 0.5 - 1e-6), then the root of
    dR/dmu between the best grid point's neighbors, found by Illinois
    regula falsi; refine_iters caps its steps. A lane whose slope has
    no sign change there, or whose root rates below the grid, keeps the
    best grid point. If every grid point yields rate 0 the channel
    supports no key and (1e-6, zero-rate breakdown) is returned.

    eta is a scalar or an array of lanes, each maximized independently;
    for an array, mu and the breakdown's fields are arrays of its shape.
    """
    if grid_size < 16:
        raise ParameterError(f"grid_size={grid_size!r} must be >= 16")
    if refine_iters < 1:
        raise ParameterError(f"refine_iters={refine_iters!r} must be >= 1")
    shape = np.shape(eta)
    lanes = np.asarray(eta).reshape(-1)
    ratio = (MU_MAX / MU_MIN) ** (1.0 / (grid_size - 1))
    grid = np.array([MU_MIN * ratio**i for i in range(grid_size - 1)]
                    + [MU_MAX])
    # the grid validates eta (and raises where the gain is 0) for the
    # slope calls below, which check nothing
    blocks = range(0, lanes.size, _GRID_BLOCK)
    rates = np.concatenate([rate_at_transmittance(
        grid, lanes[i:i + _GRID_BLOCK, None], params).rate for i in blocks])
    best = rates.argmax(axis=1)
    grid_best = rates.max(axis=1)
    mu_best = grid[best]
    keyed = grid_best > 0.0

    def slope(mu):
        rate, d_rate = _rate_and_slope(mu, lanes, params)
        # Where the rate is clamped to 0 its slope is 0, yet the maximum
        # lies toward the best grid point: take the secant to it
        np.divide(grid_best, mu_best - mu, out=d_rate,
                  where=keyed & (rate == 0.0))
        return rate, d_rate

    lo = grid[np.maximum(best - 1, 0)]
    hi = grid[np.minimum(best + 1, grid_size - 1)]
    _, ends = slope(np.stack([lo, hi]))
    running = keyed & (ends[0] > 0.0) & (ends[1] < 0.0)
    # lanes without a sign change keep (lo, hi) and slopes (1, -1), so
    # their frozen arithmetic stays finite
    g_lo = np.where(running, ends[0], 1.0)
    g_hi = np.where(running, ends[1], -1.0)
    mu_opt, mu_rate = mu_best, grid_best
    moved_lo = moved_hi = np.zeros(lanes.size, dtype=bool)
    for _ in range(refine_iters):
        if not running.any():
            break
        x = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        # at least one ulp inside the bracket, so every probe shrinks it
        ulp = np.spacing(hi)
        x = np.clip(x, lo + ulp, hi - ulp)
        rate, g = slope(x)
        # the answer is the last probe with key: where the rate jumps
        # from 0 at the saturation edge, the root is that edge
        keyed_x = running & (rate > 0.0)
        mu_opt = np.where(keyed_x, x, mu_opt)
        mu_rate = np.where(keyed_x, rate, mu_rate)
        up = running & (g > 0.0)  # the root lies above x
        down = running & (g < 0.0)
        # Illinois: an end kept twice in a row has its slope halved
        g_lo = np.where(up, g, np.where(down & moved_hi, 0.5 * g_lo, g_lo))
        g_hi = np.where(down, g, np.where(up & moved_lo, 0.5 * g_hi, g_hi))
        lo, hi = np.where(up, x, lo), np.where(down, x, hi)
        moved_lo, moved_hi = up, down
        running = (up | down) & (hi - lo > _ULPS * np.spacing(hi))
    # rounding can leave the root a hair below a grid point's rate
    mu_opt = np.where(mu_rate >= grid_best, mu_opt, mu_best).reshape(shape)
    breakdown = rate_at_transmittance(mu_opt, lanes.reshape(shape), params)
    return (float(mu_opt) if shape == () else mu_opt), breakdown


def optimize_mu(
    distance: float,
    params: SystemParams,
    *,
    grid_size: int = 64,
    refine_iters: int = 60,
) -> tuple[float, RateBreakdown]:
    """Best (mu, rate breakdown) at a total distance in km."""
    return maximize_rate_at_transmittance(
        transmittance(distance, params), params,
        grid_size=grid_size, refine_iters=refine_iters)


def scan_distances(
    l_min: float,
    l_max: float,
    step: float,
    params: SystemParams,
    e_d_list: list[float],
    *,
    grid_size: int = 64,
    refine_iters: int = 60,
    threads: int = 1,
) -> dict[float, list[RatePoint]]:
    """Optimized rate and reference bounds on a distance grid.

    Returns {e_d: [RatePoint at l_min, l_min+step, ..., <= l_max]}; an
    e_d listed twice gets its sweep twice under one key. Per e_d, one
    optimizer call takes the lanes transmittance(L) for every grid
    distance and transmittance(2L), whose rate is dps_baseline (see
    bounds.dps_qss_baseline). threads is validated (>= 1) but has no
    effect: the lanes run in lockstep in this thread.
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
    if threads < 1:
        raise ParameterError(f"threads={threads!r} must be >= 1")
    n_pts = int(span + 1e-9) + 1
    distances = [min(l_min + i * step, l_max) for i in range(n_pts)]
    result: dict[float, list[RatePoint]] = {e_d: [] for e_d in e_d_list}
    for e_d in e_d_list:
        p = replace(params, misalignment=e_d)
        etas = [transmittance(scale * distance, p)
                for scale in (1.0, 2.0) for distance in distances]
        mu_opt, bd = maximize_rate_at_transmittance(
            etas, p, grid_size=grid_size, refine_iters=refine_iters)
        for i, distance in enumerate(distances):
            result[e_d].append(RatePoint(
                distance, float(mu_opt[i]), float(bd.gain[i]),
                float(bd.qber[i]), float(bd.rate[i]),
                plob_bound(distance, p), repeaterless_bound(distance, p),
                float(bd.rate[n_pts + i])))
    return result


def _midpoints(lo: float, hi: float, levels: int) -> list[float]:
    """Midpoints of the next `levels` bisection steps of [lo, hi].

    Heap order: node k bisects its bracket, its lower half continues at
    node 2k + 1 and its upper half at node 2k + 2. Each midpoint is
    0.5 * (a + b) of its own bracket, as a sequential bisection has it.
    """
    brackets = [(lo, hi)]
    mids = []
    for _ in range(levels):
        halves = []
        for a, b in brackets:
            mid = 0.5 * (a + b)
            mids.append(mid)
            halves += [(a, mid), (mid, b)]
        brackets = halves
    return mids


def find_crossover(
    params: SystemParams,
    *,
    l_max: float = 800.0,
    coarse_step: float = 5.0,
    tol: float = 1e-2,
    grid_size: int = 64,
    refine_iters: int = 60,
) -> float | None:
    """Smallest distance where the optimized rate exceeds the PLOB bound.

    Walks [0, l_max] in coarse steps, ending exactly at l_max, to
    bracket the first sign change of optimized_rate - plob, then bisects
    the bracket down to tol km (or to two adjacent floats). Returns
    None when the rate never beats the bound on the walk.

    The whole walk is one optimizer call; the bisection takes the 31
    midpoints of its next five levels per call and walks them in order,
    so it returns the float a one-point-at-a-time bisection returns.
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
            etas, params, grid_size=grid_size, refine_iters=refine_iters)
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
    while hi - lo > tol:
        mids = _midpoints(lo, hi, _BISECT_LEVELS)
        above = excess(mids) > 0.0
        node = 0
        for _ in range(_BISECT_LEVELS):
            mid = mids[node]
            if not lo < mid < hi:  # bracket at float resolution
                return hi
            if above[node]:
                hi, node = mid, 2 * node + 1
            else:
                lo, node = mid, 2 * node + 2
            if not hi - lo > tol:
                break
    return hi

"""Deterministic intensity optimization, distance scans and crossovers.

The rate is maximized over mu on lanes: a 1-D array of arm
transmittances, one independent maximization each, with the channel's
p_d, e_d and f shared or given per lane (_Channel). A coarse
logarithmic grid (_grid_best), evaluated only inside each lane's key
window (keyrate._key_window), outside which the rate is exactly 0,
gives each lane its start and bracket, and a lockstep root search of
the analytic slope dR/dmu (_root_search) refines it. find_crossover's
bisection rounds start that root search from their ends' optima
instead, with no grid call; a round stands only if every lane
converges and no rate lies within _TIE of PLOB, and otherwise runs
again through the grid search. No stage is stochastic, so repeated
runs give bit-identical optima, and a lane does exactly the arithmetic
of a one-lane run, so results match one-lane calls bit for bit.
grid_size is the one setting a caller may change.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .bounds import _full_path_transmittance, plob_bound
from .channel import transmittance
from .core import (
    MAX_INTENSITY,
    ParameterError,
    RateBreakdown,
    RatePoint,
    SystemParams,
    _as_int,
)
from .keyrate import (
    _check_eta,
    _key_window,
    _rate_and_slope,
    _rate_terms,
    rate_at_transmittance,
)

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
# root-search steps of a warm crossover round (find_crossover), at most:
# Newton from a start 1e-3 off the root stops after four probes, and a
# lane still bisecting after eight has no root in its bracket, such as
# one whose rate peaks at the saturation edge (about 40 steps). Such a
# lane does not converge, so its round runs again cold
_WARM_STEPS = 8
# (lane, mu) points per tile of the grid, at most: _grid_best gathers
# whole key windows into flat tiles of up to this many points, so each
# float64 temporary holds 16 KB. Those stay in cache and on the heap;
# 80 KB ones (161 lanes of 64 points) were page-faulted in again on
# every call
_GRID_TILE = 2048
# a warm-started rate within this fraction of PLOB runs find_crossover's
# round again cold, as a round with an unconverged lane does, so the
# grid search decides the test: warm and grid-started optima agree to
# rounding, and their rates by up to 2.4e-12 of the rate over 1,000
# draws of the parameter domain
_TIE = 1e-9
# bisection levels find_crossover evaluates per optimizer call, at most:
# a round stops at the level whose cells are within tol
_BISECT_LEVELS = 5


class _Channel(NamedTuple):
    """The channel parameters the rate kernels read, as floats or as
    1-D arrays with one value per lane."""

    dark_count_rate: float | np.ndarray
    misalignment: float | np.ndarray
    ec_efficiency: float | np.ndarray

    def take(self, index) -> _Channel:
        """The channel of the lanes index selects: each array field
        indexed, each float kept."""
        return self._make(v[index] if isinstance(v, np.ndarray) else v
                          for v in self)


def _grid_best(grid: np.ndarray, lanes: np.ndarray,
               channel: _Channel) -> tuple[np.ndarray, np.ndarray]:
    """Index and rate of each lane's best point of the mu grid.

    The argmax and max over the grid of
    rate_at_transmittance(grid, lanes[:, None], channel).rate, bit for
    bit, and with its errors: eta is validated once for all lanes, then
    the rate runs only at the (lane, mu) points of each lane's key
    window (_key_window), outside which it is exactly 0. Whole windows
    are gathered into flat tiles of at most _GRID_TILE points (one
    window at least), so its temporaries stay small however many lanes
    there are. A lane without a keyed point keeps index 0 and rate 0.
    """
    _check_eta(lanes)
    lo, hi = _key_window(grid, lanes, channel)
    held = np.flatnonzero(hi > lo)
    lo, counts = lo[held], (hi - lo)[held]
    ends = np.cumsum(counts)
    best = np.zeros(lanes.size, dtype=np.intp)
    grid_best = np.zeros(lanes.size)
    i = 0
    while i < held.size:
        # the next windows that fill a tile, one at least, whole
        base = ends[i] - counts[i]
        j = max(i + 1, int(np.searchsorted(ends, base + _GRID_TILE, "right")))
        n, tile = counts[i:j], held[i:j]
        first = ends[i:j] - n - base
        lane = np.repeat(tile, n)
        index = np.arange(lane.size) + np.repeat(lo[i:j] - first, n)
        rates = _rate_terms(grid[index], lanes[lane],
                            channel.take(lane))[0][-1]
        top = np.maximum.reduceat(rates, first)
        # each lane's first point at its max, as argmax picks it
        best[tile] = np.minimum.reduceat(np.where(
            rates == np.repeat(top, n), index, grid.size), first)
        grid_best[tile] = top
        i = j
    best[grid_best == 0.0] = 0
    return best, grid_best


def _maximize_lanes(lanes: np.ndarray, channel: _Channel,
                    grid_size) -> tuple[np.ndarray, np.ndarray]:
    """(mu_opt, rate) of each lane of the 1-D transmittance array lanes.

    maximize_rate_at_transmittance's search, each lane with its own
    channel values where a field of channel is an array. The grid stage
    picks each lane's start, its best grid point, and its bracket, that
    point's neighbors; _root_search then runs on the lanes with key on
    the grid alone. The others keep MU_MIN and rate 0, and a call
    without such a lane makes no slope call. The rate is
    rate_at_transmittance(mu_opt, lanes, channel).rate bit for bit: the
    last keyed probe's, or the best grid point's where the lane keeps
    that point.
    """
    size = _as_int(grid_size)
    if size is None or size < 16:
        raise ParameterError(
            f"grid_size={grid_size!r} must be an integer >= 16")
    grid_size = size
    ratio = (MU_MAX / MU_MIN) ** (1.0 / (grid_size - 1))
    grid = np.array([MU_MIN * ratio**i for i in range(grid_size - 1)]
                    + [MU_MAX])
    # the grid validates eta (and raises where the gain is 0) for the
    # slope calls below, which validate nothing
    best, grid_best = _grid_best(grid, lanes, channel)
    # a lane without key on the grid keeps its first point, MU_MIN, and
    # rate 0; the root search runs on the others alone
    mu_all, rate_all = grid[best], grid_best
    keyed = np.flatnonzero(grid_best > 0.0)
    if keyed.size == 0:
        return mu_all, rate_all
    best, grid_best = best[keyed], grid_best[keyed]
    mu_best = grid[best]
    mu_opt, mu_rate, _ = _root_search(
        mu_best, grid[np.maximum(best - 1, 0)],
        grid[np.minimum(best + 1, grid_size - 1)], lanes[keyed],
        channel.take(keyed))
    # rounding can leave the root a hair below a grid point's rate
    kept = mu_rate >= grid_best
    mu_all[keyed] = np.where(kept, mu_opt, mu_best)
    rate_all[keyed] = np.where(kept, mu_rate, grid_best)
    return mu_all, rate_all


def _root_search(x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 lanes: np.ndarray, channel: _Channel,
                 steps: int = _REFINE_ITERS
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lockstep root search of dR/dmu from the start x inside the
    bracket [lo, hi] of each lane, at most steps steps.

    Returns each lane's (mu_opt, rate), the last probe with key, or x and
    rate 0 where none has key, and whether the lane stopped by Newton's
    criteria (a step at rounding level) at a probe with key: a lane that
    stopped otherwise closed its bracket, ended on a probe without key
    or where the slope is not concave, or ran out of steps. A warm
    crossover round stands only where every lane converged, and runs
    again through the grid search otherwise. One slope call per step;
    lanes and channel are validated by the caller, and x, lo and hi are
    left as they are.
    """
    start = x
    running = np.ones(lanes.size, dtype=bool)
    # updated in place, on copies of the caller's arrays; the step is
    # read only where the slope is concave
    mu_opt, lo, hi = x.copy(), lo.copy(), hi.copy()
    mu_rate, step = np.zeros(lanes.size), np.zeros(lanes.size)
    converged = np.zeros(lanes.size, dtype=bool)
    last = False
    for _ in range(steps + 1):
        rate, g, curv = _rate_and_slope(x, lanes, channel)
        # the answer is the last probe with key: where the rate jumps
        # from 0 at the saturation edge, the root is that edge
        keyed = rate > 0.0
        keyed_x = running & keyed
        np.copyto(mu_opt, x, where=keyed_x)
        np.copyto(mu_rate, rate, where=keyed_x)
        # where the rate is clamped to 0 its slope and curvature are 0,
        # yet the maximum lies toward the start
        g = np.where(keyed, g, start - x)
        up = running & (g > 0.0)  # the root lies above x
        down = running & (g < 0.0)
        np.copyto(lo, x, where=up)
        np.copyto(hi, x, where=down)
        # Newton's step on the slope where it is concave and stays
        # inside the bracket, else bisection, as at a probe without key
        concave = curv < 0.0
        np.divide(g, curv, out=step, where=concave)
        target = x - step
        newton = concave & (lo < target) & (target < hi)
        size = np.abs(step)
        # a step below _STOP of x leaves x at the root to rounding
        at_root = last | (concave & (size <= _STOP * x))
        converged |= keyed_x & at_root
        running = (up | down) & ~at_root & (hi - lo > _STOP * hi)
        if not running.any():
            break
        # convergence is quadratic: a step below sqrt(_STOP) of x leaves
        # the next probe at the root to rounding
        last = newton & (size <= _STOP**0.5 * x)
        x = np.where(newton, target, 0.5 * (lo + hi))
    return mu_opt, mu_rate, converged


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
    keeps the best grid point where that probe rates below it. Where no
    grid point has key, (1e-6, a zero-rate breakdown) is returned. The
    grid can miss a key window narrower than one grid cell (README's
    grid_size note), so rate 0 does not prove the channel has no key.

    eta is a scalar or an array of lanes, each maximized independently;
    for an array, mu and the breakdown's fields are arrays of its shape.
    params is read by field name, so a _Channel may give each lane its
    own p_d, e_d or f.
    """
    shape = np.shape(eta)
    lanes = np.asarray(eta).reshape(-1)
    mu_opt = _maximize_lanes(lanes, _Channel(
        params.dark_count_rate, params.misalignment, params.ec_efficiency),
        grid_size)[0].reshape(shape)
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


def dps_qss_baseline(
    distance: float,
    params: SystemParams,
    *,
    grid_size: int = 64,
) -> float:
    """Rate with the full path on one arm, intensity re-optimized.

    Identical formula and optimizer as the protocol rate, but the
    transmittance carries the whole distance (exponent alpha*L/10), so
    dps_qss_baseline(L) equals the optimized protocol rate at 2L: the
    "no twin-field advantage" yardstick.
    """
    eta = _full_path_transmittance(distance, params)
    _, breakdown = maximize_rate_at_transmittance(
        eta, params, grid_size=grid_size)
    return breakdown.rate


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
    e_d listed twice gets its sweep twice under one key. One optimizer
    call takes, for every e_d, the lanes transmittance(L) for every grid
    distance, which is also the repeaterless column, and
    transmittance(2L), whose rate is dps_baseline (see
    dps_qss_baseline); each lane carries its own e_d in the
    _Channel given as maximize_rate_at_transmittance's params. The
    transmittances and the plob column depend on no e_d, so each is
    computed once per scan.
    """
    for name, value in (("l_min", l_min), ("l_max", l_max), ("step", step)):
        if not math.isfinite(value):
            raise ParameterError(f"{name}={value!r} must be finite")
    if l_min < 0.0:
        raise ParameterError(f"l_min={l_min!r} must be >= 0")
    if l_max < l_min:
        raise ParameterError(f"l_max={l_max!r} must be >= l_min={l_min!r}")
    if step <= 0.0:
        raise ParameterError(f"step={step!r} must be > 0")
    span = (l_max - l_min) / step
    if span == math.inf:
        raise ParameterError(
            f"step={step!r} is too small: (l_max - l_min) / step overflows")
    if not e_d_list:
        raise ParameterError("at least one e_d required")
    for e_d in e_d_list:
        replace(params, misalignment=e_d)  # raises for a bad e_d
    n_pts = int(span + 1e-9) + 1
    distances = [min(l_min + i * step, l_max) for i in range(n_pts)]
    etas = [transmittance(scale * distance, params)
            for scale in (1.0, 2.0) for distance in distances]
    plob = [plob_bound(distance, params) for distance in distances]
    lanes = np.tile(etas, len(e_d_list))
    channel = _Channel(params.dark_count_rate,
                       np.repeat(e_d_list, len(etas)),
                       params.ec_efficiency)
    mu_opt, bd = maximize_rate_at_transmittance(lanes, channel,
                                                grid_size=grid_size)
    # per e_d, the rows at L, then the rows at 2L
    shape = (len(e_d_list), 2, n_pts)
    columns = (np.reshape(v, shape).tolist()
               for v in (mu_opt, bd.gain, bd.qber, bd.rate))
    result: dict[float, list[RatePoint]] = {e_d: [] for e_d in e_d_list}
    for e_d, (mu, _), (gain, _), (qber, _), (rate, dps) in zip(
            e_d_list, *columns):
        result[e_d].extend(map(RatePoint, distances, mu, gain, qber, rate,
                               plob, etas[:n_pts], dps))
    return result


def _start_between(distances: list[float], end_a: tuple[float, float],
                   end_b: tuple[float, float]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, lo, hi) of _root_search for lanes at distances between two
    points whose (distance, mu_opt) are end_a and end_b.

    mu_opt is monotone in L wherever the optimum is an interior root of
    the slope, rather than the saturation edge (which takes f <
    1/h(6/19)), so each lane starts at the two optima's linear
    interpolation in L, inside their bracket widened by sqrt(_STOP) of
    its upper end: the ends' optima are roots only to rounding.
    """
    (l_a, mu_a), (l_b, mu_b) = end_a, end_b
    pad = _STOP**0.5 * max(mu_a, mu_b)
    lo = np.full(len(distances), max(MU_MIN, min(mu_a, mu_b) - pad))
    hi = np.full(len(distances), min(MU_MAX, max(mu_a, mu_b) + pad))
    t = (np.array(distances) - l_a) / (l_b - l_a)
    return np.clip(mu_a + (mu_b - mu_a) * t, lo, hi), lo, hi


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
    None when the rate never beats the bound on the walk: a window where
    it does, narrower than coarse_step, can lie between two walk points
    and be missed (at e_d = 0.051602 the rate beats PLOB on
    410.155-414.32 km, and the 5 km walk returns None).

    The whole walk is one optimizer call. Each bisection round takes
    the midpoints of its next levels, at most _BISECT_LEVELS and none
    past a level whose cells are within tol, in ascending order in one
    call, and keeps the first cell where the excess turns positive.
    Each midpoint is 0.5 * (a + b) of its own cell, so this is the
    float a one-point-at-a-time bisection returns wherever the excess
    changes sign once in the bracket; elsewhere it is the first
    crossing among the points evaluated. Each call reads the rates the
    search returns, and PLOB only at keyed points up to its first
    crossing: PLOB >= 0, so rate > plob is the test rate - plob > 0.
    A round whose two ends have key starts warm, with no grid call:
    each midpoint's root search starts from the ends' mu_opt
    interpolated in L, inside their bracket (_start_between), for at
    most _WARM_STEPS steps. It stands only if every lane converges and
    no rate read lies within _TIE of PLOB; otherwise the round runs
    again whole through the grid search, as does a round with an end
    without key and every round after one that met such a tie. Warm
    and grid starts give the same optimum only to rounding, so a
    converged warm lane answers rate > plob as the grid search does
    except within _TIE, where rounding decides the test.
    """
    if not 0.0 <= l_max < math.inf:
        raise ParameterError(f"l_max={l_max!r} must be >= 0 and finite")
    for name, value in (("coarse_step", coarse_step), ("tol", tol)):
        if not value > 0.0:
            raise ParameterError(f"{name}={value!r} must be > 0")
    if l_max / coarse_step == math.inf:
        raise ParameterError(f"coarse_step={coarse_step!r} is too small: "
                             "l_max / coarse_step overflows")

    channel = _Channel(params.dark_count_rate, params.misalignment,
                       params.ec_efficiency)
    tied = False  # a round has met a rate within _TIE of PLOB

    def first_crossing(distances: list[float], ends=None
                       ) -> tuple[int, list[tuple[float, float | None]]]:
        # the first distance whose optimized rate beats PLOB, else
        # len(distances), and each distance's (distance, mu_opt), mu_opt
        # None where it has no key. ends, the (distance, mu_opt) of a
        # round's two ends, warm-starts the lanes where both have key,
        # until a round meets a tie. A warm round stands only if every
        # lane converged and no rate read lies within _TIE of PLOB; else
        # it runs again cold, and so do the rounds after a tie, whose
        # narrower cells lie as close to the crossing. PLOB >= 0, so a
        # point with rate 0 never beats it and PLOB is read at keyed
        # points only
        nonlocal tied
        lanes = np.array([transmittance(d, params) for d in distances])
        warm = (ends is not None and not tied
                and None not in (ends[0][1], ends[1][1]))
        if warm:
            mu, rates, converged = _root_search(
                *_start_between(distances, *ends), lanes, channel,
                _WARM_STEPS)
            if not converged.all():
                return first_crossing(distances)
        else:
            mu, rates = _maximize_lanes(lanes, channel, grid_size)
        rates = rates.tolist()
        for i, (d, rate) in enumerate(zip(distances, rates)):
            if rate > 0.0:
                plob = plob_bound(d, params)
                if warm and abs(rate - plob) <= _TIE * rate:
                    tied = True
                    return first_crossing(distances)
                if rate > plob:
                    break
        else:
            i = len(distances)
        return i, [(d, m if rate > 0.0 else None)
                   for d, m, rate in zip(distances, mu.tolist(), rates)]

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
    i, points = first_crossing(walk[:live])
    if i == live:
        if live < len(walk):
            first_crossing(walk[live:])  # raises DegenerateChannelError
        return None
    # i > 0: key needs E <= 6/19, so dark clicks are at most 12/19 of
    # the gain Q and R(0) <= Q(1 - 2mu) < 0.34 eta_d < PLOB(0)
    ends = points[i - 1:i + 1]
    (lo, _), (hi, _) = ends
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
        j, inner = first_crossing(edges[1:-1], ends)
        ends = [ends[0], *inner, ends[1]][j:j + 2]
        (lo, _), (hi, _) = ends
    return hi

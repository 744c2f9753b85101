"""Deterministic intensity optimization and distance scans.

The rate is maximized over mu with a coarse logarithmic grid followed
by golden-section refinement inside the best grid cell. Both stages
are derivative-free and deterministic (no stochastic search), so
repeated runs give bit-identical optima; tests audit the result
against dense brute-force grids.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .bounds import dps_qss_baseline, plob_bound, repeaterless_bound
from .channel import transmittance
from .core import (
    MAX_INTENSITY,
    ParameterError,
    RateBreakdown,
    RatePoint,
    SystemParams,
)
from .keyrate import rate_at_transmittance

MU_MIN = 1e-6
MU_MAX = MAX_INTENSITY - 1e-6
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(f, lo: float, hi: float, iters: int):
    """Maximize a unimodal f on [lo, hi]; returns the best point seen."""
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    best_x, best_v = (c, fc) if fc >= fd else (d, fd)
    for _ in range(iters):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
            if fc > best_v:
                best_x, best_v = c, fc
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
            if fd > best_v:
                best_x, best_v = d, fd
    return best_x, best_v


def maximize_rate_at_transmittance(
    eta: float,
    params: SystemParams,
    *,
    grid_size: int = 64,
    refine_iters: int = 60,
) -> tuple[float, RateBreakdown]:
    """Best (mu, rate breakdown) at a fixed arm transmittance.

    Coarse logarithmic grid over (1e-6, 0.5 - 1e-6), then golden-section
    refinement between the best grid point's neighbors. If every grid
    point yields rate 0 the channel supports no key and (1e-6, zero-rate
    breakdown) is returned.
    """
    if grid_size < 16:
        raise ParameterError(f"grid_size={grid_size!r} must be >= 16")
    if refine_iters < 1:
        raise ParameterError(f"refine_iters={refine_iters!r} must be >= 1")
    ratio = (MU_MAX / MU_MIN) ** (1.0 / (grid_size - 1))
    grid = [MU_MIN * ratio**i for i in range(grid_size - 1)] + [MU_MAX]
    rates = [rate_at_transmittance(mu, eta, params).rate for mu in grid]
    best = max(range(grid_size), key=rates.__getitem__)
    if rates[best] <= 0.0:
        return MU_MIN, rate_at_transmittance(MU_MIN, eta, params)
    lo = grid[best - 1] if best > 0 else grid[0]
    hi = grid[best + 1] if best < grid_size - 1 else grid[-1]
    mu_ref, rate_ref = _golden_section_max(
        lambda mu: rate_at_transmittance(mu, eta, params).rate,
        lo, hi, refine_iters)
    mu_opt = mu_ref if rate_ref >= rates[best] else grid[best]
    return mu_opt, rate_at_transmittance(mu_opt, eta, params)


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
    e_d listed twice gets its sweep twice under one key. Each distance
    is optimized once per e_d; dps_baseline is read from the row at 2L
    where the grid has one. threads is validated (>= 1) but has no
    effect: points are evaluated in order in this thread, since the GIL
    leaves a thread pool no faster.
    """
    for name, value in (("l_min", l_min), ("l_max", l_max), ("step", step)):
        if not math.isfinite(value):
            raise ParameterError(f"{name}={value!r} must be finite")
    if l_min < 0.0 or l_max < l_min:
        raise ParameterError("need 0 <= l_min <= l_max")
    if step <= 0.0:
        raise ParameterError(f"step={step!r} must be > 0")
    if not e_d_list:
        raise ParameterError("at least one e_d required")
    if threads < 1:
        raise ParameterError(f"threads={threads!r} must be >= 1")
    n_pts = int((l_max - l_min) / step + 1e-9) + 1
    distances = [l_min + i * step for i in range(n_pts)]
    result: dict[float, list[RatePoint]] = {e_d: [] for e_d in e_d_list}
    for e_d in e_d_list:
        p = replace(params, misalignment=e_d)
        rows = {distance: optimize_mu(distance, p, grid_size=grid_size,
                                      refine_iters=refine_iters)
                for distance in distances}
        for distance in distances:
            mu_opt, bd = rows[distance]
            doubled = rows.get(2.0 * distance)
            baseline = doubled[1].rate if doubled else dps_qss_baseline(
                distance, p, grid_size=grid_size, refine_iters=refine_iters)
            result[e_d].append(RatePoint(
                distance, mu_opt, bd.gain, bd.qber, bd.rate,
                plob_bound(distance, p), repeaterless_bound(distance, p),
                baseline))
    return result


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

    Walks [0, l_max] in coarse steps to bracket the first sign change of
    optimized_rate - plob, then bisects the bracket down to tol km.
    Returns None when the rate never beats the bound on [0, l_max].
    """
    if not 0.0 <= l_max < math.inf:
        raise ParameterError(f"l_max={l_max!r} must be >= 0 and finite")
    for name, value in (("coarse_step", coarse_step), ("tol", tol)):
        if not value > 0.0:
            raise ParameterError(f"{name}={value!r} must be > 0")

    def excess(distance: float) -> float:
        _, bd = optimize_mu(distance, params, grid_size=grid_size,
                            refine_iters=refine_iters)
        return bd.rate - plob_bound(distance, params)

    n_steps = int(l_max / coarse_step + 1e-9)
    bracket = None
    prev = 0.0
    for i in range(n_steps + 1):
        distance = min(i * coarse_step, l_max)
        if excess(distance) > 0.0:
            if i == 0:
                return 0.0
            bracket = (prev, distance)
            break
        prev = distance
    if bracket is None:
        return None
    lo, hi = bracket
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # bracket at float resolution
            break
        if excess(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi

"""Reference curves the protocol's rate is compared against.

All three are expressed in bits per channel use over the same distance
axis as the protocol rate (total sender-sender distance L in km), and
all three derive from channel.transmittance:

* plob_bound: secret-key capacity of the direct end-to-end channel,
  -log2(1 - transmittance(2L)).
* repeaterless_bound: the single-arm transmittance transmittance(L),
  the linear scaling a measuring middle node buys.
* dps_qss_baseline: the same rate formula evaluated as if one sender
  had to cover the full distance alone (transmittance(2L)), with the
  intensity re-optimized independently: the "no twin-field advantage"
  yardstick, equal to the optimized protocol rate at 2L.

Note the first two cross near 19 km at default parameters: they take
different exponents, so neither dominates the other for all L. The
capacity statement -log2(1-x) > x holds at equal arguments, i.e.
plob_bound(L) > repeaterless_bound(2L) for every L >= 0.
"""

from __future__ import annotations

import math

from .channel import transmittance
from .core import ParameterError, SystemParams


def _full_path_transmittance(distance: float, params: SystemParams) -> float:
    # checked here so that errors name the caller's distance, not 2L
    if not distance >= 0.0:
        raise ParameterError(f"distance={distance!r} must be >= 0 km")
    return transmittance(2.0 * distance, params)


def plob_bound(distance: float, params: SystemParams) -> float:
    """End-to-end secret-key capacity -log2(1 - eta_d 10^(-alpha*L/10)).

    Returns math.inf in the lone degenerate case eta_d = 1, L = 0
    (a perfect channel has unbounded capacity).
    """
    x = _full_path_transmittance(distance, params)
    if x >= 1.0:
        return math.inf
    # log1p keeps the tail positive once x drops below 2^-53, where
    # 1 - x would round to 1 and the capacity would collapse to -0.0
    return -math.log1p(-x) / math.log(2.0)


def repeaterless_bound(distance: float, params: SystemParams) -> float:
    """Single-arm linear transmittance eta_d * 10^(-alpha*L/20)."""
    return transmittance(distance, params)


def dps_qss_baseline(
    distance: float,
    params: SystemParams,
    *,
    grid_size: int = 64,
    refine_iters: int = 60,
) -> float:
    """Rate with the full path on one arm, intensity re-optimized.

    Identical formula and optimizer as the protocol rate, but the
    transmittance carries the whole distance (exponent alpha*L/10), so
    dps_qss_baseline(L) equals the optimized protocol rate at 2L.
    """
    # imported here: optimize imports this module for its scan columns
    from .optimize import maximize_rate_at_transmittance

    eta = _full_path_transmittance(distance, params)
    _, breakdown = maximize_rate_at_transmittance(
        eta, params, grid_size=grid_size, refine_iters=refine_iters)
    return breakdown.rate

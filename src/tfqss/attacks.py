"""Photon-number leakage bounds for intercept attacks on the pulse trains.

Every pulse pair a sender emits carries mean photon number 2*mu, and any
photon an attacker captures reveals that pair's phase difference, so:

* an outside attacker tapping the fiber sees the light the dealer does
  not receive: external leakage 2*mu*(1 - eta);
* a malicious participant splitting off a fraction beta of each pulse
  before sending and reading the rest from the fiber loss gets
  2*mu*beta + 2*mu*(1 - beta)*(1 - eta);
* the strongest internal attack simply measures everything it relays:
  2*mu, which therefore dominates both of the above for beta <= 1.

beta_bound inverts the observed error rate into the largest splitting
fraction consistent with it: an intercepted pair forces a random bit
half the time, and only (1 - 2*mu)/2 of pairs are single-photon-safe,
so beta * ((1 - 2*mu)/2) * (1/2) = E gives beta = 4E / (1 - 2*mu).

The complement of the general internal leakage, 1 - 2*mu, is exactly
the privacy factor in the key-rate formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import transmittance
from .core import MAX_INTENSITY, ParameterError, SystemParams
from .keyrate import qber


@dataclass(frozen=True)
class LeakageReport:
    """Leakage fractions (bits per emitted pulse pair) at one setting."""

    beta: float
    internal_split_leakage: float
    internal_general_leakage: float
    external_leakage: float


def _check_mu(mu: float) -> None:
    if not 0.0 <= mu < MAX_INTENSITY:
        raise ParameterError(
            f"mu={mu!r} outside [0, {MAX_INTENSITY}); the privacy factor "
            "1 - 2*mu must stay positive")


def beta_bound(mu: float, e: float) -> float:
    """Largest beam-splitting fraction consistent with error rate e.

    beta = 4e / (1 - 2*mu), clamped to [0, 1].
    """
    _check_mu(mu)
    if not 0.0 <= e <= 0.5:
        raise ParameterError(f"error rate {e!r} outside [0, 0.5]")
    return min(1.0, 4.0 * e / (1.0 - 2.0 * mu))


def external_leakage(mu: float, eta: float) -> float:
    """Photon fraction an outside tap collects: 2*mu*(1 - eta)."""
    _check_mu(mu)
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"eta={eta!r} outside [0, 1]")
    return min(1.0, max(0.0, 2.0 * mu * (1.0 - eta)))


def internal_leakage(mu: float, eta: float, beta: float) -> float:
    """Beam-splitting participant leakage 2*mu*beta + 2*mu*(1-beta)*(1-eta)."""
    _check_mu(mu)
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"eta={eta!r} outside [0, 1]")
    if not 0.0 <= beta <= 1.0:
        raise ParameterError(f"beta={beta!r} outside [0, 1]")
    leak = 2.0 * mu * beta + 2.0 * mu * (1.0 - beta) * (1.0 - eta)
    return min(1.0, max(0.0, leak))


def leakage_report(
    mu: float, distance: float, params: SystemParams
) -> LeakageReport:
    """All leakage channels at one (intensity, distance) setting.

    The splitting fraction is inferred from the analytic error rate at
    the setting, so the report is a worst-case reading of what the
    observed QBER already permits.
    """
    eta = transmittance(distance, params)
    e = qber(mu, eta, params.dark_count_rate, params.misalignment)
    beta = beta_bound(mu, e)
    split = internal_leakage(mu, eta, beta)
    general = min(1.0, 2.0 * mu)
    external = external_leakage(mu, eta)
    # measuring everything dominates any split for beta <= 1
    assert general >= split - 1e-15
    assert general >= external - 1e-15
    return LeakageReport(
        beta=beta,
        internal_split_leakage=split,
        internal_general_leakage=general,
        external_leakage=external,
    )

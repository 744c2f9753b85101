"""Leakage bounds for outside taps and malicious participants."""

import numpy as np
import pytest

from tfqss import attacks
from tfqss.attacks import (
    beta_bound,
    external_leakage,
    internal_leakage,
    leakage_report,
)
from tfqss.core import ParameterError, SystemParams

DEFAULTS = SystemParams()

# 50-digit evaluation of the report at defaults, mu=0.05, L=300
QBER_005_300 = 2.01096465515118e-2
BETA_005_300 = 8.9376206895608e-2
SPLIT_005_300 = 9.98405857939532e-2
EXTERNAL_005_300 = 9.98249395554411e-2


def test_beta_bound_landmarks():
    assert beta_bound(0.3, 0.0) == 0.0
    assert beta_bound(0.25, 1.0 / 16.0) == pytest.approx(0.5, rel=1e-15)
    assert beta_bound(0.4, 0.3) == 1.0  # 4*0.3/0.2 = 6, clamped


def test_beta_bound_round_trips_the_error_rate():
    # pre-clamp, beta * ((1 - 2 mu)/2) * (1/2) recovers the error rate
    rng = np.random.default_rng(13)
    for _ in range(50):
        mu = rng.uniform(0.0, 0.45)
        e = rng.uniform(0.0, (1.0 - 2.0 * mu) / 4.0)  # stays below clamp
        beta = beta_bound(mu, e)
        assert beta < 1.0
        assert beta * (1.0 - 2.0 * mu) / 4.0 == pytest.approx(e, rel=1e-12)


def test_beta_bound_domain():
    with pytest.raises(ParameterError, match="mu"):
        beta_bound(0.5, 0.1)
    with pytest.raises(ParameterError, match="error rate"):
        beta_bound(0.1, 0.6)


def test_external_leakage_values():
    assert external_leakage(0.1, 1.0) == 0.0
    assert external_leakage(0.1, 0.0) == pytest.approx(0.2, rel=1e-15)
    assert external_leakage(0.25, 0.5) == pytest.approx(0.25, rel=1e-15)
    with pytest.raises(ParameterError, match="eta"):
        external_leakage(0.1, 1.2)


def test_internal_leakage_values():
    assert internal_leakage(0.1, 1.0, 0.0) == 0.0
    assert internal_leakage(0.3, 0.7, 1.0) == pytest.approx(0.6, rel=1e-15)
    assert internal_leakage(0.1, 0.5, 0.2) == pytest.approx(0.12, rel=1e-15)
    with pytest.raises(ParameterError, match="beta"):
        internal_leakage(0.1, 0.5, 1.2)
    with pytest.raises(ParameterError, match="eta"):
        internal_leakage(0.1, 1.2, 0.5)


def test_general_internal_attack_dominates():
    rng = np.random.default_rng(14)
    for _ in range(50):
        mu = rng.uniform(1e-3, 0.499)
        eta = rng.uniform(1e-3, 1.0)
        beta = rng.uniform(0.0, 1.0)
        general = 2.0 * mu
        assert general >= internal_leakage(mu, eta, beta) - 1e-15
        assert general >= external_leakage(mu, eta) - 1e-15
    # equality with the external tap only on a fully opaque channel
    assert external_leakage(0.2, 0.0) == 0.4


def test_leakage_report_frozen_row():
    rep = leakage_report(0.05, 300.0, DEFAULTS)
    assert rep.beta == pytest.approx(BETA_005_300, rel=1e-12)
    assert rep.internal_split_leakage == pytest.approx(
        SPLIT_005_300, rel=1e-12)
    assert rep.internal_general_leakage == pytest.approx(0.1, rel=1e-15)
    assert rep.external_leakage == pytest.approx(EXTERNAL_005_300, rel=1e-12)


@pytest.mark.parametrize("name, field", [
    ("internal_leakage", "internal_split_leakage"),
    ("external_leakage", "external_leakage"),
])
def test_leakage_report_raises_when_an_ordering_breaks(monkeypatch, name,
                                                       field):
    # the ordering holds for every admitted input, so break one leakage
    # term to show the check is a real raise (python -O keeps it)
    monkeypatch.setattr(attacks, name, lambda *args: 1.0)
    with pytest.raises(ArithmeticError,
                       match=f"internal_general_leakage=0.1 < {field}=1.0"):
        leakage_report(0.05, 300.0, DEFAULTS)


def test_general_leakage_is_distance_independent():
    values = {
        leakage_report(0.07, distance, DEFAULTS).internal_general_leakage
        for distance in (0.0, 50.0, 300.0, 600.0)
    }
    assert values == {0.14}


def test_leakage_complement_is_the_privacy_factor():
    # the key-rate privacy weight (1 - 2 mu) is exactly what the general
    # internal attack leaves behind
    for mu in (0.05, 0.2, 0.45):
        rep = leakage_report(mu, 100.0, DEFAULTS)
        assert 1.0 - rep.internal_general_leakage == 1.0 - 2.0 * mu

"""Closed-form rate engine against independently derived constants.

Frozen reference numbers were computed once with 50-digit arithmetic
(mpmath) from the closed forms before this module was written.
"""

import math

import mpmath
import numpy as np
import pytest

from tfqss.attacks import beta_bound, external_leakage, internal_leakage
from tfqss.bounds import plob_bound
from tfqss.channel import transmittance
from tfqss.core import ParameterError, SystemParams
from tfqss.keyrate import (
    DegenerateChannelError,
    binary_entropy,
    collision_probability,
    gain,
    key_rate,
    qber,
    rate_at_transmittance,
)

DEFAULTS = SystemParams()

# 50-digit evaluations of the closed forms, rounded to double precision
GAIN_01_05 = 4.87705945238745e-2        # gain(0.1, 0.5, 1e-8)
QBER_01_300 = 2.00548271387735e-2       # qber at mu=0.1, L=300, defaults
H_011 = 0.499915958164528               # binary_entropy(0.11)
PCO_MAX = 703.0 / 722.0                 # collision_probability(3/19)
RATE_015_300 = 8.68058192682386e-5      # key_rate(0.15, 300).rate
RATE_019_300 = 9.11738948916323e-5
RATE_023_300 = 8.76170436558208e-5


def test_gain_at_zero_intensity_is_twice_dark_rate():
    for p_d in (0.0, 1e-8, 1e-3, 0.2):
        assert abs(gain(0.0, 0.7, p_d) - 2.0 * p_d) <= 1e-12


def test_gain_saturates_without_dark_counts():
    assert gain(30.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_gain_frozen_value():
    assert gain(0.1, 0.5, 1e-8) == pytest.approx(GAIN_01_05, rel=1e-12)


def test_gain_domain_errors():
    with pytest.raises(ParameterError, match="mu"):
        gain(-0.1, 0.5, 1e-8)
    with pytest.raises(ParameterError, match="mu=nan"):
        gain(float("nan"), 0.5, 1e-8)
    with pytest.raises(ParameterError, match="eta"):
        gain(0.1, 1.5, 1e-8)
    with pytest.raises(ParameterError, match="p_d"):
        gain(0.1, 0.5, 0.5)


def test_qber_reduces_to_misalignment_without_dark_counts():
    for e_d in (0.0, 0.02, 0.3):
        assert abs(qber(0.2, 0.4, 0.0, e_d) - e_d) <= 1e-12


def test_qber_is_half_at_zero_intensity():
    # only dark counts contribute, and they are wrong half the time
    assert qber(0.0, 0.5, 1e-8, 0.02) == pytest.approx(0.5, abs=1e-12)


def test_qber_frozen_value():
    eta = transmittance(300.0, DEFAULTS)
    assert qber(0.1, eta, 1e-8, 0.02) == pytest.approx(
        QBER_01_300, rel=1e-12)


def test_qber_raises_on_zero_gain():
    with pytest.raises(DegenerateChannelError):
        qber(0.0, 0.5, 0.0, 0.02)


def test_binary_entropy_endpoints_and_peak():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.11) == pytest.approx(H_011, abs=1e-12)
    with pytest.raises(ParameterError):
        binary_entropy(1.1)


def test_binary_entropy_symmetry():
    rng = np.random.default_rng(10)
    for x in rng.uniform(0.0, 1.0, 50):
        assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) <= 1e-12


def _mp_entropy(x):
    x = mpmath.mpf(x)
    return -x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2)


def test_binary_entropy_keeps_full_precision_at_small_arguments():
    # (1-x) log2(1-x) taken as log2 of the rounded 1 - x loses most of
    # its digits below x ~ 1e-8, and h(x) is then x log2(1/x) + x/ln 2
    # to leading order, so the second term is not negligible
    with mpmath.workdps(50):
        for x in (1e-17, 1e-16, 1e-12, 1e-8):
            want = _mp_entropy(x)
            assert float(abs(binary_entropy(x) - want) / want) <= 1e-15, x


def test_error_correction_term_keeps_full_precision_without_misalignment():
    # e_d = 0 leaves only dark counts, E = p_d e^(-mu eta) / Q ~ 6e-12
    params = SystemParams(misalignment=0.0, dark_count_rate=1e-12)
    bd = rate_at_transmittance(0.3, 0.5, params)
    with mpmath.workdps(50):
        p_d = mpmath.mpf(params.dark_count_rate)
        decay = mpmath.exp(-mpmath.mpf(0.3) * mpmath.mpf(0.5))
        e = p_d * decay / (1 - (1 - 2 * p_d) * decay)
        want = params.ec_efficiency * _mp_entropy(e)
        assert float(abs(bd.ec_term - want) / want) <= 1e-15


def test_collision_probability_landmarks():
    assert collision_probability(0.0) == 0.5
    assert collision_probability(1.0 / 6.0) == pytest.approx(
        35.0 / 36.0, rel=1e-15)
    assert collision_probability(3.0 / 19.0) == pytest.approx(
        PCO_MAX, rel=1e-15)
    # 3/19 is the maximizer
    for e in (0.1, 0.15, 0.17, 0.3):
        assert collision_probability(e) < PCO_MAX
    # saturates for noisy channels: negative beyond ~0.3843
    assert collision_probability(0.5) == -1.25
    with pytest.raises(ParameterError):
        collision_probability(0.6)


def test_rate_noiseless_composition_is_exact():
    # e_d=0, p_d=0 at L=0: E=0, P_co=1/2, so R = Q * (1 - 2 mu) exactly
    params = SystemParams(detector_efficiency=1.0, dark_count_rate=0.0,
                          misalignment=0.0)
    for mu in (0.05, 0.2, 0.4):
        bd = key_rate(mu, 0.0, params)
        assert bd.qber == 0.0
        assert bd.collision == 0.5
        assert bd.rate == -math.expm1(-mu) * (1.0 - 2.0 * mu)


def test_rate_clamps_to_zero_in_hostile_regimes():
    # nearly no privacy factor left and heavy misalignment
    bd = key_rate(0.49, 100.0, SystemParams(misalignment=0.3))
    assert bd.rate == 0.0
    # collision bound saturated: P_co <= 0 short-circuits the log
    bd2 = rate_at_transmittance(0.05, 1e-9, SystemParams(misalignment=0.45))
    assert bd2.collision <= 0.0
    assert bd2.privacy_term == float("-inf")
    assert bd2.rate == 0.0


def test_rate_refuses_privacy_credit_below_half_collision():
    # For E in (6/19, ~0.3843) the quadratic is positive but < 1/2, where
    # -log2 would award more than one secret bit per raw bit. No key there.
    bd = rate_at_transmittance(0.05, 0.5, SystemParams(dark_count_rate=0.0,
                                                       misalignment=0.35))
    assert bd.qber == pytest.approx(0.35, rel=1e-14)
    assert 0.0 < bd.collision < 0.5
    assert bd.privacy_term == float("-inf")
    assert bd.rate == 0.0
    # E = 6/19 is the last point still inside the bound's range
    boundary = collision_probability(6.0 / 19.0)
    assert abs(boundary - 0.5) < 1e-15


def test_rate_frozen_values_bracketing_the_300km_optimum():
    for mu, expected in [(0.15, RATE_015_300), (0.19, RATE_019_300),
                         (0.23, RATE_023_300)]:
        assert key_rate(mu, 300.0, DEFAULTS).rate == pytest.approx(
            expected, rel=1e-12)


def test_rate_domain_requires_open_intensity_interval():
    with pytest.raises(ParameterError, match="mu"):
        key_rate(0.0, 100.0, DEFAULTS)
    with pytest.raises(ParameterError, match="mu"):
        key_rate(0.5, 100.0, DEFAULTS)


def test_gain_monotone_in_mu_and_eta():
    assert gain(0.2, 0.5, 1e-8) > gain(0.1, 0.5, 1e-8)
    assert gain(0.1, 0.6, 1e-8) > gain(0.1, 0.5, 1e-8)


def test_qber_decreases_as_signal_grows():
    # more signal dilutes the dark-count background
    values = [qber(mu, 0.01, 1e-6, 0.02) for mu in (0.05, 0.1, 0.2, 0.4)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 0.02 for v in values)  # never below the floor e_d


def test_rate_breakdown_internal_consistency():
    rng = np.random.default_rng(11)
    for _ in range(50):
        mu = rng.uniform(1e-3, 0.499)
        distance = rng.uniform(0.0, 500.0)
        bd = key_rate(mu, distance, DEFAULTS)
        assert bd.rate >= 0.0
        if bd.collision >= 0.5:
            # rate never exceeds the privacy budget alone
            assert bd.rate <= bd.gain * bd.privacy_term + 1e-15
            assert bd.rate == pytest.approx(
                max(0.0, bd.gain * (bd.privacy_term - bd.ec_term)), abs=0.0)
        else:
            assert bd.privacy_term == float("-inf")
            assert bd.rate == 0.0


def test_array_kernel_matches_scalar_calls_bit_for_bit():
    # a (mu x eta) broadcast over signal-dominated, dark-dominated,
    # zero-rate and saturated (E > 6/19, privacy -inf) cells
    params = SystemParams(misalignment=0.05)
    mus = np.array([1e-6, 0.003, 0.05, 0.2, 0.35, 0.499])
    etas = np.array([[1.0], [0.56], [0.03], [1e-4], [1e-7], [1e-9], [0.0]])
    grid = rate_at_transmittance(mus, etas, params)
    fields = ("gain", "qber", "collision", "privacy_term", "ec_term", "rate")
    for field in fields:
        assert getattr(grid, field).shape == (7, 6)
    for i, eta in enumerate(etas[:, 0]):
        for j, mu in enumerate(mus):
            one = rate_at_transmittance(float(mu), float(eta), params)
            for field in fields:
                value = getattr(one, field)
                assert type(value) is float
                assert value == getattr(grid, field)[i, j], (field, mu, eta)
    assert np.any(grid.privacy_term == -np.inf)
    assert np.any((grid.rate == 0.0) & np.isfinite(grid.privacy_term))
    assert np.any(grid.rate > 0.0)


def test_array_kernel_raises_the_scalar_errors():
    with pytest.raises(ParameterError, match=r"^mu=0\.5 outside"):
        rate_at_transmittance([0.1, 0.5, 0.7], 0.5, DEFAULTS)
    with pytest.raises(ParameterError, match=r"^mu=nan outside"):
        rate_at_transmittance(np.array([[0.1], [np.nan]]), 0.5, DEFAULTS)
    with pytest.raises(ParameterError, match=r"^eta=1\.5 outside \[0, 1\]"):
        rate_at_transmittance(0.1, [0.5, 1.5, -1.0], DEFAULTS)
    # one lane with p_d = 0 and eta = 0 has no clicks at all
    with pytest.raises(DegenerateChannelError):
        rate_at_transmittance([0.1, 0.2], [[0.5], [0.0]],
                              SystemParams(dark_count_rate=0.0))


def test_closed_forms_hold_to_50_digits_over_the_admitted_domain():
    # seeded draws over the whole domain the validators admit; each
    # reference takes the float inputs exactly, with expm1 and log1p,
    # since mu*eta reaches 1e-309, where 50 digits cannot resolve
    # 1 - e^(-mu*eta) any other way
    rng = np.random.default_rng(0)
    n, eps = 256, 2.0**-52
    mus = 10.0 ** rng.uniform(-9.0, math.log10(0.4999), n)
    etas = 10.0 ** rng.uniform(-300.0, 0.0, n)
    p_ds = np.where(rng.random(n) < 0.1, 0.0,
                    10.0 ** rng.uniform(-15.0, math.log10(0.49), n))
    e_ds = rng.uniform(0.0, 0.5, n)
    fs = rng.uniform(1.0, 1.5, n)
    distances = rng.uniform(1000.0, 5000.0, n)

    def h(x):
        return 0 if x == 0 else -(x * mpmath.log(x) + (1 - x)
                                  * mpmath.log1p(-x)) / ln2

    def close(got, want, bound, scale=None):
        scale = abs(want) if scale is None else scale
        return abs(mpmath.mpf(got) - want) <= bound * scale

    with mpmath.workdps(50):
        ln2 = mpmath.log(2)
        for mu, eta, p_d, e_d, f, length in zip(
                *(v.tolist() for v in (mus, etas, p_ds, e_ds, fs,
                                       distances))):
            m, t, pd, ed = (mpmath.mpf(v) for v in (mu, eta, p_d, e_d))
            q = -mpmath.expm1(-m * t) * (1 - 2 * pd) + 2 * pd
            dark = 2 * pd * mpmath.exp(-m * t)
            e = min(mpmath.mpf(0.5), (ed * q + (0.5 - ed) * dark) / q)
            p_co = 1 - e**2 - (1 - 6 * e) ** 2 / 2
            ec = f * h(e)
            assert close(gain(mu, eta, p_d), q, 1e-15)
            e_f = qber(mu, eta, p_d, e_d)
            assert close(e_f, e, 1e-15)
            ef = mpmath.mpf(e_f)
            assert close(binary_entropy(e_f), h(ef), 1e-15)
            # P_co reaches 0 near E = 0.384, so its errors are absolute:
            # its terms stay below 3, and the breakdown's E brings its
            # own error times |dP_co/dE| < 13
            assert close(collision_probability(e_f),
                         1 - ef**2 - (1 - 6 * ef) ** 2 / 2, 4e-15, 1)
            params = SystemParams(dark_count_rate=p_d, misalignment=e_d,
                                  ec_efficiency=f)
            bd = rate_at_transmittance(mu, eta, params)
            assert close(bd.gain, q, 1e-15)
            assert close(bd.qber, e, 1e-15)
            assert close(bd.collision, p_co, 4e-15, 1)
            assert close(bd.ec_term, ec, 1e-15)
            if p_co < 0.5:
                assert bd.privacy_term == -math.inf and bd.rate == 0.0
            else:
                privacy = -(1 - 2 * m) * mpmath.log(p_co) / ln2
                assert close(bd.privacy_term, privacy, 2e-15)
                # at the edge of a key window the rate cancels to 0, so
                # its error is bounded by the terms it is taken from
                assert close(bd.rate, max(0, q * (privacy - ec)), 1e-15,
                             q * (privacy + ec))
            beta = beta_bound(mu, e_f)
            assert close(beta, min(1, 4 * ef / (1 - 2 * m)), 1e-15)
            b = mpmath.mpf(beta)
            assert close(external_leakage(mu, eta), 2 * m * (1 - t), 1e-15)
            assert close(internal_leakage(mu, eta, beta),
                         2 * m * b + 2 * m * (1 - b) * (1 - t), 1e-15)
            # the exponent alpha L / 20 rounds to half an ulp, and 10^x
            # scales that by ln(10) x
            d = mpmath.mpf(length)
            alpha = mpmath.mpf(DEFAULTS.attenuation)
            eta_d = mpmath.mpf(DEFAULTS.detector_efficiency)
            x = alpha * d / 20
            assert close(transmittance(length, DEFAULTS),
                         eta_d * mpmath.power(10, -x),
                         2 * eps * (1 + mpmath.log(10) * x))
            assert close(plob_bound(length, DEFAULTS),
                         -mpmath.log1p(-eta_d * mpmath.power(10, -2 * x))
                         / ln2, 2 * eps * (1 + 2 * mpmath.log(10) * x))

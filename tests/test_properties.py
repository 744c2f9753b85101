"""Invariants of the closed forms over the whole admitted domain.

Hypothesis draws the inputs; derandomize=True makes every run draw the
same examples, so the suite stays reproducible.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tfqss.attacks import leakage_report
from tfqss.bounds import plob_bound, repeaterless_bound
from tfqss.channel import click_probability, transmittance
from tfqss.core import MAX_INTENSITY, SystemParams
from tfqss.keyrate import gain, key_rate, qber
from tfqss.optimize import MU_MAX, MU_MIN, optimize_mu

PROPERTY = settings(derandomize=True, deadline=None)

mus = st.floats(0.0, MAX_INTENSITY, exclude_max=True)
etas = st.floats(0.0, 1.0)
dark_rates = st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_max=True))
misalignments = st.floats(0.0, 0.5, exclude_max=True)
# links of thousands of km: at 0.167 dB/km the arm transmittance at
# 8000 km is about 1e-67, far below the dark-count floor
distances = st.floats(0.0, 8000.0)
system_params = st.builds(
    SystemParams,
    detector_efficiency=st.floats(1e-3, 1.0),
    dark_count_rate=dark_rates,
    attenuation=st.floats(1e-3, 1.0),
    misalignment=misalignments,
)


@PROPERTY
@given(mu=mus, eta=etas, p_d=dark_rates)
def test_gain_lies_between_the_dark_floor_and_one(mu, eta, p_d):
    assert 2.0 * p_d <= gain(mu, eta, p_d) <= 1.0


@PROPERTY
@given(mu=mus, eta=etas, p_d=dark_rates)
def test_gain_exceeds_the_sampled_click_probability_by_the_double_dark(
        mu, eta, p_d):
    # the linearized gain and the detector model's exact P_click differ
    # by exactly p_d^2 e^(-mu eta), both double-dark terms
    q = gain(mu, eta, p_d)
    gap = q - click_probability(mu, eta, SystemParams(dark_count_rate=p_d))
    assert abs(gap - p_d**2 * math.exp(-mu * eta)) <= 4.0 * math.ulp(q)


@PROPERTY
@given(mu=st.floats(1e-9, MAX_INTENSITY, exclude_max=True),
       distance=distances, p_d=dark_rates, e_d=misalignments)
# dark counts dominate: the unclamped quotient rounds to 1/2 + 1 ulp
@example(mu=0.05, distance=3000.0, p_d=1e-9, e_d=0.1)
def test_qber_is_at_most_one_half_on_long_links(mu, distance, p_d, e_d):
    eta = transmittance(distance, SystemParams())
    assert 0.0 <= qber(mu, eta, p_d, e_d) <= 0.5


@PROPERTY
@given(params=system_params, near=st.floats(0.0, 400.0),
       farther=st.floats(0.0, 400.0))
def test_optimized_rate_is_non_negative_and_non_increasing(
        params, near, farther):
    near, far = sorted((near, farther))
    rate_near = optimize_mu(near, params)[1].rate
    rate_far = optimize_mu(far, params)[1].rate
    assert rate_far >= 0.0
    assert rate_far <= rate_near


@PROPERTY
@given(params=system_params, distance=st.floats(0.0, 1e6))
def test_bounds_are_the_channel_transmittance_exactly(params, distance):
    assert repeaterless_bound(distance, params) == transmittance(
        distance, params)
    full_path = transmittance(2.0 * distance, params)
    expected = (math.inf if full_path >= 1.0
                else -math.log1p(-full_path) / math.log(2.0))
    assert plob_bound(distance, params) == expected


@PROPERTY
@given(distance=st.floats(0.0, 1000.0), e_d=misalignments, p_d=dark_rates)
def test_optimize_mu_beats_its_own_grid(distance, e_d, p_d):
    params = SystemParams(dark_count_rate=p_d, misalignment=e_d)
    mu_opt, bd = optimize_mu(distance, params)
    ratio = (MU_MAX / MU_MIN) ** (1.0 / 63)
    grid = [MU_MIN * ratio**i for i in range(63)] + [MU_MAX]
    assert MU_MIN <= mu_opt <= MU_MAX
    assert bd.rate >= key_rate(np.array(grid), distance, params).rate.max()


@PROPERTY
@given(mu=mus, distance=distances, params=system_params)
def test_leakage_report_ordering_holds(mu, distance, params):
    eta = transmittance(distance, params)
    assume(gain(mu, eta, params.dark_count_rate) > 0.0)  # QBER defined
    report = leakage_report(mu, distance, params)
    general = report.internal_general_leakage
    assert general == min(1.0, 2.0 * mu)
    assert 0.0 <= report.internal_split_leakage <= general + 1e-15
    assert 0.0 <= report.external_leakage <= general + 1e-15

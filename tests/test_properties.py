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
from tfqss.core import MAX_INTENSITY, ProtocolConfig, SystemParams
from tfqss.keyrate import DegenerateChannelError, gain, key_rate, qber
from tfqss.mcsim import run_protocol
from tfqss.optimize import MU_MAX, MU_MIN, optimize_mu, scan_distances

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


# every admitted value, out to the ends of each range; half the draws
# keep a fiber's loss, so that links of a few hundred km still click
extreme_params = st.builds(
    SystemParams,
    detector_efficiency=st.floats(0.0, 1.0, exclude_min=True),
    dark_count_rate=dark_rates,
    attenuation=st.one_of(st.floats(1e-3, 1.0),
                          st.floats(0.0, 1e300, exclude_min=True)),
    ec_efficiency=st.floats(1.0, 1e300),
    misalignment=misalignments,
)


@PROPERTY
@given(params=extreme_params,
       l_min=st.one_of(st.floats(0.0, 500.0), st.floats(0.0, 5000.0)),
       span=st.floats(0.0, 5000.0), cells=st.integers(1, 3),
       e_ds=st.lists(misalignments, min_size=1, max_size=3))
def test_scan_rows_keep_their_bounds_or_the_gain_is_zero(
        params, l_min, span, cells, e_ds):
    # one row per distance for each e_d, each a RatePoint within its
    # bounds; without dark counts a lane whose mu*eta underflows to 0
    # has no QBER, and the scan raises
    step = span / cells if span / cells > 0.0 else 1.0
    try:
        table = scan_distances(l_min, l_min + span, step, params, e_ds)
    except DegenerateChannelError:
        assert params.dark_count_rate == 0.0
        return
    n = len(table[e_ds[0]]) // e_ds.count(e_ds[0])
    distances = [pt.distance for pt in table[e_ds[0]][:n]]
    assert distances[0] == l_min and distances[-1] <= l_min + span
    assert distances == sorted(distances) and len(distances) <= cells + 2
    for e_d in e_ds:
        rows = table[e_d]
        assert len(rows) == e_ds.count(e_d) * len(distances)
        assert [pt.distance for pt in rows] == distances * e_ds.count(e_d)
        for pt in rows:
            assert MU_MIN <= pt.mu_opt <= MU_MAX
            assert 0.0 <= pt.gain <= 1.0 and 0.0 <= pt.qber <= 0.5
            assert 0.0 <= pt.rate < math.inf
            assert min(pt.plob, pt.repeaterless, pt.dps_baseline) >= 0.0


@PROPERTY
@given(params=extreme_params,
       mu=st.floats(0.0, MAX_INTENSITY, exclude_min=True, exclude_max=True),
       n_pairs=st.integers(2, 20_000),
       distance=st.one_of(st.floats(0.0, 300.0), st.floats(0.0, 1e6)),
       seed=st.integers(0, 2**64 - 1),
       test_fraction=st.floats(0.0, 1.0, exclude_min=True,
                               exclude_max=True))
def test_run_protocol_accounts_for_every_detection(
        params, mu, n_pairs, distance, seed, test_fraction):
    # each detection is either a test slot or a sifted one, and the
    # sifted slots are interior and in train order; a run without a
    # click, or whose arm transmittance underflows, raises instead
    config = ProtocolConfig(intensity=mu, n_pairs=n_pairs,
                            distance=distance, rng_seed=seed,
                            test_fraction=test_fraction)
    try:
        report = run_protocol(params, config)
    except ValueError as exc:
        assert str(exc).startswith("no detections") or (
            "link too long" in str(exc))
        return
    assert report.detected_slots == (
        report.test_slots_consumed + len(report.sifted))
    slots = report.sifted.slots
    assert slots.size == len(report.sifted)
    assert np.all((2 <= slots) & (slots <= 2 * n_pairs - 1))
    assert np.all(np.diff(slots) > 0)

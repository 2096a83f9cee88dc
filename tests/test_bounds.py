"""Bound evaluator tests against brute-force and closed-form oracles."""
import itertools
import math

import numpy as np
import pytest

from boundaryvote.geometry import build_comb, build_thin_rectangle, region_xs
from boundaryvote.bounds import (bad_segment_length_upper, beta_fraction,
                                 beta_inverse, bound_report, combined_upper,
                                 lemma_good0_prob, lemma_good1_prob,
                                 majority_tail_bounds, majority_tail_exact,
                                 thm1_bounds, thm2_upper, thm3_upper)

XS_PERI = 0.2 * math.pi + 0.8
XL_PERI = 0.2 * math.pi + 1.2


def tail_bruteforce(n: int, p: float) -> float:
    """Enumerate all 2^n outcomes; only usable for small n."""
    need = (n + 1) // 2
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        if sum(bits) >= need:
            prob = 1.0
            for b in bits:
                prob *= p if b else (1.0 - p)
            total += prob
    return total


class TestMajorityTail:
    def test_single_trial(self):
        assert majority_tail_exact(1, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_three_trials(self):
        # 3*p^2*(1-p) + p^3 at p = 0.15
        assert majority_tail_exact(3, 0.15) == pytest.approx(0.06075, abs=1e-14)

    def test_symmetry_at_half(self):
        assert majority_tail_exact(3, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_empty_case(self):
        assert majority_tail_exact(0, 0.3) == 1.0

    def test_degenerate_p(self):
        assert majority_tail_exact(5, 0.0) == 0.0
        assert majority_tail_exact(5, 1.0) == 1.0

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_bruteforce(self, n):
        for p in (0.05, 0.15, 0.3, 0.5, 0.73):
            assert majority_tail_exact(n, p) == pytest.approx(
                tail_bruteforce(n, p), abs=1e-12)

    def test_log_space_branch_consistency(self):
        from scipy.stats import binom
        for n in (61, 150, 400):
            for p in (0.05, 0.2, 0.45):
                want = float(binom.sf((n + 1) // 2 - 1, n, p))
                assert majority_tail_exact(n, p) == pytest.approx(want, rel=1e-10)

    def test_monotone_in_p(self):
        for n in (1, 4, 9, 30):
            values = [majority_tail_exact(n, p) for p in np.linspace(0, 1, 41)]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


class TestMajorityTailBounds:
    def test_example_values(self):
        lower, upper = majority_tail_bounds(3, 0.15)
        s = math.sqrt(0.15 * 0.85)
        assert upper == pytest.approx((2 * s) ** 3, abs=1e-15)
        assert upper == pytest.approx(0.3642128, abs=1e-6)
        assert lower == pytest.approx(s / 6 * (2 * s) ** 3, abs=1e-15)
        assert lower == pytest.approx(0.0216754, abs=1e-6)

    def test_half_gives_unit_upper(self):
        for n in (1, 5, 20):
            assert majority_tail_bounds(n, 0.5)[1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_p(self):
        assert majority_tail_bounds(4, 0.0) == (0.0, 0.0)

    def test_bracketing_property(self):
        ps = [0.01] + [round(0.05 * k, 2) for k in range(1, 11)]
        for n in range(1, 51):
            for p in ps:
                lower, upper = majority_tail_bounds(n, p)
                exact = majority_tail_exact(n, p)
                assert lower <= exact * (1 + 1e-12) + 1e-300
                assert exact <= upper * (1 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            majority_tail_bounds(0, 0.1)
        with pytest.raises(ValueError):
            majority_tail_bounds(3, 0.7)


class TestThm1:
    def test_reference_point(self):
        lower, upper = thm1_bounds(10000, 0.15, 0.05, 1.0)
        s = math.sqrt(0.15 * 0.85)
        nu = 10000 * math.pi * 0.0025
        assert upper == pytest.approx(2 * 10000 * s * math.exp(-(1 - 2 * s) * nu), rel=1e-12)
        assert upper == pytest.approx(1.27e-6, rel=5e-3)
        assert lower == pytest.approx(2.0e-9, rel=2e-2)

    def test_p_zero(self):
        assert thm1_bounds(1000, 0.0, 0.05, 1.0) == (0.0, 0.0)

    @pytest.mark.parametrize("r", [1e-9, 1e-8])
    def test_lower_where_the_neighbor_count_is_small(self, r):
        # as nu = lam*pi*r^2 goes to 0 the lower bound tends to lam * p(1-p) / 2 per unit area
        lower, _ = thm1_bounds(100, 0.1, r, 1.0)
        assert lower == pytest.approx(4.5, rel=1e-9)

    def test_lower_below_upper_on_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            lam = rng.uniform(100, 30000)
            p = rng.uniform(0.0, 0.5)
            r = rng.uniform(0.005, 0.12)
            lower, upper = thm1_bounds(lam, p, r, 0.9)
            assert lower <= upper + 1e-300

    def test_decreasing_in_neighbor_count(self):
        # both bounds decay as lam*pi*r^2 grows at fixed p < 1/2
        uppers, lowers = [], []
        for r in np.linspace(0.02, 0.1, 15):
            lo, up = thm1_bounds(10000, 0.2, r, 1.0)
            uppers.append(up)
            lowers.append(lo)
        assert all(b < a for a, b in zip(uppers, uppers[1:]))
        assert all(b < a for a, b in zip(lowers, lowers[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            thm1_bounds(1000, 0.6, 0.05, 1.0)
        with pytest.raises(ValueError):
            thm1_bounds(1000, 0.1, 0.05, 0.0)


class TestThm2Thm3:
    def test_thm2_reference(self):
        value = thm2_upper(10000, 0.05, XS_PERI, 1)
        assert value == pytest.approx(1506.86, abs=0.01)

    def test_thm2_thin_rect(self):
        lam, r = 20000, 0.05
        assert thm2_upper(lam, r, 9 * r, 1) == pytest.approx(
            2 * lam * r * 9 * r + lam * math.pi * r * r, rel=1e-12)

    def test_thm2_small_r_limit(self):
        assert thm2_upper(10000, 1e-9, XS_PERI, 1) < 1e-4

    def test_thm3_reference(self):
        value = thm3_upper(10000, 0.15, 0.05, XS_PERI)
        want = (math.pi * 100 / (math.sqrt(2) * 0.7) * XS_PERI
                + 3 * 10000 * math.pi * 0.0025 * math.log(XS_PERI / 0.05))
        assert value == pytest.approx(want, rel=1e-14)
        assert value == pytest.approx(1243.2, abs=0.5)

    def test_thm3_small_lambda(self):
        assert thm3_upper(1e-9, 0.15, 0.05, XS_PERI) < 1e-3

    def test_thm3_monotone_in_perimeter(self):
        a = thm3_upper(10000, 0.15, 0.05, XS_PERI)
        b = thm3_upper(10000, 0.15, 0.05, XL_PERI)
        assert b > a

    def test_thm3_validation(self):
        with pytest.raises(ValueError):
            thm3_upper(10000, 0.5, 0.05, XS_PERI)
        with pytest.raises(ValueError):
            thm3_upper(10000, 0.15, 0.05, 0.04)


class TestCombined:
    def test_composition(self):
        zr = 2 * 0.05 * XS_PERI
        report = combined_upper(10000, 0.15, 0.05, XS_PERI, 1, zr)
        assert report.area_outside == pytest.approx(1 - zr, abs=1e-15)
        assert report.thm1_lower <= report.thm1_upper
        assert report.combined_upper == pytest.approx(
            report.thm1_upper + report.thm3_upper, rel=1e-15)
        assert report.combined_upper == pytest.approx(1243.2, abs=0.5)

    def test_p_zero_leaves_good_term_only(self):
        report = combined_upper(10000, 0.0, 0.05, XS_PERI, 1, 0.14)
        assert report.thm1_upper == 0.0
        assert report.combined_upper == report.thm3_upper


class TestBoundReport:
    def test_convex_region_matches_combined_upper(self):
        xs = region_xs()
        for lam, p, r in itertools.product((2500.0, 20000.0), (0.05, 0.35), (0.01, 0.1)):
            zr = 2 * r * xs.perimeter
            want = combined_upper(lam, p, r, xs.perimeter, xs.components, zr)
            assert bound_report(xs, lam, p, r, zr) == want

    @pytest.mark.parametrize("region,p", [
        (build_comb(0.05, 0.4), 0.15), (build_thin_rectangle(0.05), 0.15), (region_xs(), 0.5),
    ], ids=["comb", "thin_rect", "xs_p_half"])
    def test_theorem3_nan_outside_its_conditions(self, region, p):
        report = bound_report(region, 10000.0, p, 0.05, 0.2)
        assert math.isnan(report.thm3_upper) and math.isnan(report.combined_upper)
        lower, upper = thm1_bounds(10000.0, p, 0.05, 0.8)
        assert (report.thm1_lower, report.thm1_upper) == (lower, upper)
        assert report.thm2_upper == thm2_upper(10000.0, 0.05, region.perimeter,
                                               region.components)


class TestLemmas:
    def test_good0_edge_cases(self):
        assert lemma_good0_prob(10000, 0.00785398, 0.15, 0.5) == 1.0
        assert lemma_good0_prob(10000, 0.00785398, 0.5, 0.9) == 1.0

    def test_good0_reference(self):
        # lam * area(A) = 78.54
        value = lemma_good0_prob(10000, 78.54 / 10000, 0.15, 0.75)
        assert value == pytest.approx(math.exp(-0.5 * 78.54 * 0.49 * 0.25), rel=1e-12)
        assert value == pytest.approx(0.00813, abs=2e-5)

    def test_good0_monotone(self):
        vals = [lemma_good0_prob(10000, 0.00785, 0.15, a) for a in np.linspace(0.5, 1, 11)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        vals = [lemma_good0_prob(lam, 0.00785, 0.15, 0.8) for lam in (1e3, 1e4, 1e5)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_good0_rejects_small_alpha(self):
        with pytest.raises(ValueError):
            lemma_good0_prob(10000, 0.00785, 0.15, 0.4)

    def test_good1_reference(self):
        assert lemma_good1_prob(10000, 78.54 / 10000, 0.15, 0.0) == 1.0
        value = lemma_good1_prob(10000, 78.54 / 10000, 0.15, 1.0)
        assert value == pytest.approx(math.exp(-(2 / math.pi**2) * 78.54 * 0.49), rel=1e-12)
        assert value == pytest.approx(4.1e-4, abs=2e-5)

    def test_good1_is_good0_at_shifted_alpha(self):
        for delta in (0.1, 0.4, 0.8, 1.0):
            a = lemma_good1_prob(10000, 0.00785, 0.2, delta)
            b = lemma_good0_prob(10000, 0.00785, 0.2, 0.5 + delta / math.pi)
            assert a == pytest.approx(b, rel=1e-12)


class TestBeta:
    def test_beta_at_one_is_pi(self):
        assert beta_fraction(1.0) == pytest.approx(math.pi, abs=1e-15)

    def test_beta_at_zero_is_lens_area(self):
        assert beta_fraction(0.0) == pytest.approx(2 * math.pi / 3 - math.sqrt(3) / 2, abs=1e-12)
        assert beta_fraction(0.0) == pytest.approx(1.22837, abs=5e-6)

    def test_beta_equals_two_disk_lens(self):
        # independent closed form: lens area of unit disks at center distance 1-delta
        for delta in np.linspace(0, 1, 21):
            d = 1.0 - delta
            lens = 2 * math.acos(d / 2) - (d / 2) * math.sqrt(4 - d * d)
            assert beta_fraction(float(delta)) == pytest.approx(lens, abs=1e-12)

    def test_beta_monotone(self):
        vals = [beta_fraction(d) for d in np.linspace(0, 1, 101)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_inverse_roundtrip(self):
        for delta in (0.0, 0.2, 0.5, 0.9, 1.0):
            assert beta_inverse(beta_fraction(delta)) == pytest.approx(delta, abs=1e-9)

    def test_inverse_at_half_pi(self):
        # the numeric inverse sits slightly below 0.2 (and near, but not equal
        # to, the 1 - 2*arcsin(pi/8) expression)
        delta = beta_inverse(math.pi / 2)
        assert 0.18 < delta < 0.2
        assert abs(delta - (1 - 2 * math.asin(math.pi / 8))) < 0.01

    def test_inverse_range_check(self):
        with pytest.raises(ValueError):
            beta_inverse(1.0)
        with pytest.raises(ValueError):
            beta_inverse(3.5)


class TestBadSegmentLength:
    def test_reference_values(self):
        assert bad_segment_length_upper(0.05, 0.5, XS_PERI) == pytest.approx(0.9425, abs=1e-4)
        assert bad_segment_length_upper(0.05, 1.0, XS_PERI) == pytest.approx(0.4712, abs=1e-4)

    def test_branch_switch_for_small_delta(self):
        delta = 0.05
        value = bad_segment_length_upper(0.05, delta, XS_PERI)
        assert value == pytest.approx(XS_PERI - 2 * math.pi * delta * 0.05, rel=1e-12)
        assert 3 * math.pi * 0.05 / delta > XS_PERI

    def test_validation(self):
        with pytest.raises(ValueError):
            bad_segment_length_upper(0.05, 0.0, XS_PERI)
        with pytest.raises(ValueError):
            bad_segment_length_upper(0.5, 1.0, 3.0)

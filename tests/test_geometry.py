"""Geometry tests: membership, signed distance, offset bands, worst cases."""
import math

import numpy as np
import pytest

from boundaryvote.geometry import (COMB_MAX_STRIPS, Arc, Comb, RoundedRect, SensorClass,
                                   ZoneLabel, _zone_area_mc, build_comb, build_thin_rectangle,
                                   classify_good_bad, contains,
                                   distance_to_boundary, dubious_zone_area,
                                   region_xl, region_xs, zone_of)


def rect_membership_oracle(region, x, y):
    """Independent rounded-rect membership: edge slabs plus corner disks."""
    hw, hh, rho = region.width / 2, region.height / 2, region.corner_radius
    dx = np.abs(np.asarray(x) - region.cx)
    dy = np.abs(np.asarray(y) - region.cy)
    in_slab = ((dx <= hw - rho) & (dy <= hh)) | ((dx <= hw) & (dy <= hh - rho))
    in_corner = np.hypot(dx - (hw - rho), dy - (hh - rho)) <= rho
    return in_slab | in_corner


def unit_tangent(piece, s):
    """Direction of travel at offset s along a segment or arc."""
    if isinstance(piece, Arc):
        angle = piece.a0 + (piece.a1 - piece.a0) * s / piece.length
        turn = math.copysign(1.0, piece.a1 - piece.a0)
        return -turn * math.sin(angle), turn * math.cos(angle)
    return ((piece.x1 - piece.x0) / piece.length, (piece.y1 - piece.y0) / piece.length)


class TestRoundedRect:
    def test_contains_center_and_far_corner(self):
        xs = region_xs()
        assert contains(xs, (0.5, 0.5))
        assert not contains(xs, (0.95, 0.95))

    def test_corner_disk_membership(self):
        # ||(0.32,0.32)-(0.4,0.4)|| ~ 0.1131 > 0.1, so the point is outside
        xs = region_xs()
        assert math.hypot(0.32 - 0.4, 0.32 - 0.4) > 0.1
        assert not contains(xs, (0.32, 0.32))

    def test_contains_matches_rasterization_oracle(self):
        xs = region_xs()
        g = np.linspace(0.0, 1.0, 401)
        gx, gy = np.meshgrid(g, g)
        got = xs.contains(gx.ravel(), gy.ravel())
        want = rect_membership_oracle(xs, gx.ravel(), gy.ravel())
        # boundary-grazing grid nodes may differ by float noise only
        disagree = got != want
        d = np.abs(xs.signed_distance(gx.ravel()[disagree], gy.ravel()[disagree]))
        assert np.all(d < 1e-9)

    def test_signed_distance_center(self):
        assert distance_to_boundary(region_xs(), (0.5, 0.5)) == pytest.approx(0.2, abs=1e-12)

    def test_signed_distance_outside_top(self):
        assert distance_to_boundary(region_xs(), (0.5, 0.75)) == pytest.approx(-0.05, abs=1e-12)

    def test_signed_distance_on_boundary(self):
        assert distance_to_boundary(region_xs(), (0.5, 0.7)) == pytest.approx(0.0, abs=1e-12)

    def test_boundary_point_counts_as_inside(self):
        assert contains(region_xs(), (0.5, 0.7))

    def test_signed_distance_matches_boundary_sampling(self):
        xs = region_xs()
        s = np.linspace(0.0, xs.boundary.length, 100_000, endpoint=False)
        bx, by = xs.boundary.points_at(s)
        rng = np.random.default_rng(7)
        pts = rng.random((200, 2))
        for px, py in pts:
            want = np.hypot(bx - px, by - py).min()
            assert abs(distance_to_boundary(xs, (px, py))) == pytest.approx(want, abs=1e-6)

    def test_area_perimeter_formulas(self):
        xs, xl = region_xs(), region_xl()
        assert xs.perimeter == pytest.approx(0.2 * math.pi + 0.8, abs=1e-15)
        assert xl.perimeter == pytest.approx(0.2 * math.pi + 1.2, abs=1e-15)
        assert xs.area == pytest.approx(xl.area, abs=1e-15)  # same area, different perimeter
        assert xs.area == pytest.approx(0.16 - (4 - math.pi) * 0.01, abs=1e-15)

    def test_boundary_path_consistency(self):
        for region in (region_xs(), region_xl(), build_thin_rectangle(0.05)):
            assert region.boundary.length == pytest.approx(region.perimeter, abs=1e-12)
            assert region.boundary.enclosed_area() == pytest.approx(region.area, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            RoundedRect(0.5, 0.5, 0.4, 0.4, 0.3)
        with pytest.raises(ValueError):
            RoundedRect(0.5, 0.5, -0.1, 0.4, 0.0)
        with pytest.raises(ValueError, match="does not fit in the unit square"):
            RoundedRect(0.9, 0.5, 0.4, 0.4, 0.1)


class TestZone:
    def test_zone_labels(self):
        xs = region_xs()
        assert zone_of(xs, (0.5, 0.5), 0.05) is ZoneLabel.OUTSIDE_ZR_IN_X
        assert zone_of(xs, (0.5, 0.75), 0.1) is ZoneLabel.IN_ZR_OUT_X
        assert zone_of(xs, (0.05, 0.05), 0.05) is ZoneLabel.OUTSIDE_ZR_OUT_X
        assert zone_of(xs, (0.5, 0.68), 0.05) is ZoneLabel.IN_ZR_IN_X

    def test_zone_tie_counts_as_inside(self):
        # (0.5, 0.75) sits exactly at distance 0.05 from the top edge
        assert zone_of(region_xs(), (0.5, 0.75), 0.05) is ZoneLabel.IN_ZR_OUT_X

    def test_zone_requires_positive_radius(self):
        with pytest.raises(ValueError):
            zone_of(region_xs(), (0.5, 0.5), 0.0)

    @pytest.mark.parametrize("region_fn", [region_xs, region_xl,
                                           lambda: build_thin_rectangle(0.05),
                                           lambda: build_comb(0.05, 0.4)])
    def test_zone_consistent_with_contains_and_distance(self, region_fn):
        region = region_fn()
        rng = np.random.default_rng(11)
        x, y = rng.random(100_000), rng.random(100_000)
        sd = np.asarray(region.signed_distance(x, y))
        inside = np.asarray(region.contains(x, y))
        assert np.array_equal(sd >= 0, inside)
        r = 0.05
        for i in rng.integers(0, x.size, 100):
            label = zone_of(region, (x[i], y[i]), r)
            want_in_zr = abs(sd[i]) <= r
            assert (label in (ZoneLabel.IN_ZR_IN_X, ZoneLabel.IN_ZR_OUT_X)) == want_in_zr
            want_in_x = sd[i] >= 0
            assert (label in (ZoneLabel.IN_ZR_IN_X, ZoneLabel.OUTSIDE_ZR_IN_X)) == want_in_x


class TestZoneArea:
    def test_analytic_value_xs(self):
        xs = region_xs()
        za = dubious_zone_area(xs, 0.05)
        assert za.analytic and not za.clipped
        assert za.value == pytest.approx(2 * 0.05 * xs.perimeter, abs=1e-12)
        assert za.value == pytest.approx(0.142832, abs=5e-7)

    def test_small_radius_limit(self):
        assert dubious_zone_area(region_xs(), 1e-6).value == pytest.approx(0.0, abs=1e-5)

    @pytest.mark.parametrize("region_fn,rs", [
        (region_xs, (0.02, 0.05, 0.1)),
        (region_xl, (0.02, 0.05)),
        (lambda: build_thin_rectangle(0.05), (0.05,)),
        (lambda: build_comb(0.05, 0.4), (0.05,)),
    ])
    def test_geometric_upper_bound(self, region_fn, rs):
        region = region_fn()
        for r in rs:
            za = dubious_zone_area(region, r, mc_samples=250_000)
            bound = 2 * r * region.perimeter + math.pi * r * r * region.components
            assert za.value <= bound + 3e-3

    def test_analytic_matches_monte_carlo(self):
        region = region_xs()
        r = 0.05
        analytic = dubious_zone_area(region, r).value
        n = 1_000_000
        est = _zone_area_mc(region, r, n, seed=3)
        sigma = math.sqrt(analytic * (1 - analytic) / n)  # conservative: ignores stratification
        assert abs(est - analytic) <= 3 * sigma

    def test_thin_rect_band_includes_whole_region(self):
        # X subset Z_r: every interior point is within r of the boundary
        r = 0.05
        region = build_thin_rectangle(r)
        g = np.linspace(-0.49, 0.49, 201)
        gx, gy = np.meshgrid(0.5 + g * region.width, 0.5 + g * region.height)
        sd = region.signed_distance(gx.ravel(), gy.ravel())
        inside = sd >= 0
        assert np.all(np.abs(sd[inside]) < r)

    def test_thin_rect_analytic_band(self):
        # outer Steiner band + full interior: 9r*r + pi r^2 + 2r^2
        r = 0.05
        za = dubious_zone_area(build_thin_rectangle(r), r)
        assert za.analytic
        assert za.value == pytest.approx(9 * r * r + math.pi * r * r + 2 * r * r, abs=1e-12)

    def test_xl_band_touching_unit_square_is_analytic(self):
        # XL's band at r = 0.1 reaches bd(Y) exactly; rounding in its bbox
        # must not send it to the Monte Carlo fallback
        xl, r = region_xl(), 0.1
        za = dubious_zone_area(xl, r)
        assert za.analytic and not za.clipped
        assert za.value == xl.perimeter * r + math.pi * r * r + xl.area - xl.eroded_area(r)
        assert za.value == pytest.approx(0.3656637061435918, abs=1e-15)

    def test_clipped_band_falls_back_to_estimate(self):
        region = RoundedRect(0.5, 0.5, 0.9, 0.9, 0.1)
        za = dubious_zone_area(region, 0.08, mc_samples=250_000)
        assert za.clipped and not za.analytic
        assert 0.0 < za.value < 1.0


class TestThinRectangle:
    def test_dimensions_and_perimeter(self):
        region = build_thin_rectangle(0.05)
        assert region.width == pytest.approx(0.2)
        assert region.height == pytest.approx(0.025)
        assert region.perimeter == pytest.approx(0.45, abs=1e-15)
        assert build_thin_rectangle(0.1).perimeter == pytest.approx(0.9, abs=1e-15)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            build_thin_rectangle(0.3)
        with pytest.raises(ValueError):
            build_thin_rectangle(0.25)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build, args", [
    (build_thin_rectangle, (NAN,)),
    (build_thin_rectangle, (INF,)),
    (RoundedRect, (0.5, 0.5, NAN, 0.2)),
    (RoundedRect, (0.5, 0.5, 0.2, INF)),
    (RoundedRect, (NAN, 0.5, 0.2, 0.2)),
    (RoundedRect, (0.5, -INF, 0.2, 0.2)),
    (RoundedRect, (0.5, 0.5, 0.2, 0.2, NAN)),
    (build_comb, (0.05, INF)),
    (build_comb, (0.05, NAN)),
    (build_comb, (NAN, 0.4)),
    (build_comb, (INF, 0.4)),
    (build_comb, (1e-308, 1e300)),  # finite sizes whose ell/(4r) overflows
], ids=lambda v: getattr(v, "__name__", None))
def test_non_finite_sizes_rejected(build, args):
    with pytest.raises(ValueError):
        build(*args)


class TestComb:
    def test_strip_count_and_area(self):
        comb = build_comb(0.05, 0.4)
        assert comb.strip_count == 2
        assert comb.strip_area() >= 0.4**2 / 16 - 1e-12
        # exact strip area: ell^2/16 + ell*r/4
        assert comb.strip_area() == pytest.approx(0.4**2 / 16 + 0.4 * 0.05 / 4, abs=1e-12)

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            build_comb(0.05, 0.45)

    def test_strip_count_is_bounded(self):
        ell = 0.4
        assert build_comb(ell / (4 * COMB_MAX_STRIPS), ell).strip_count == COMB_MAX_STRIPS
        # 10^8 strips: the count is checked before any strip is laid out
        for r in (ell / (4 * (COMB_MAX_STRIPS + 1)), 1e-9):
            with pytest.raises(ValueError, match="exceeds the limit of 1000"):
                build_comb(r, ell)

    def test_perimeter_bound(self):
        for r, ell in [(0.05, 0.4), (0.02, 0.24), (0.03, 0.36)]:
            comb = build_comb(r, ell)
            assert r / ell <= 0.25
            assert comb.perimeter <= 1.68 * ell * ell / r

    def test_curvature_radius_at_least_r(self):
        comb = build_comb(0.05, 0.4)
        radii = [p.radius for p in comb.boundary.pieces if isinstance(p, Arc)]
        assert min(radii) >= comb.r - 1e-12
        assert comb.min_curvature_radius == comb.cap_radius == comb.r

    @pytest.mark.parametrize("r,ell,strips", [(0.05, 0.2, 1), (0.05, 0.4, 2), (0.03, 0.36, 3),
                                              (0.02, 0.32, 4), (0.01, 0.2, 5)])
    def test_boundary_is_closed_and_ccw(self, r, ell, strips):
        # signed_distance's nearest-piece sign rule is exact only on a
        # tangent-continuous path
        comb = build_comb(r, ell)
        assert comb.strip_count == strips
        pieces = comb.boundary.pieces
        for a, b in zip(pieces, pieces[1:] + pieces[:1]):
            ax, ay = a.point_at(a.length)
            bx, by = b.point_at(0.0)
            assert math.hypot(float(ax) - float(bx), float(ay) - float(by)) < 1e-9
            (tx, ty), (ux, uy) = unit_tangent(a, a.length), unit_tangent(b, 0.0)
            assert math.hypot(tx - ux, ty - uy) < 1e-12
        assert comb.area > 0

    def test_area_consistent_with_membership(self):
        comb = build_comb(0.05, 0.4)
        n = 400_000
        rng = np.random.default_rng(5)
        x, y = rng.random(n), rng.random(n)
        est = comb.contains(x, y).mean()
        sigma = math.sqrt(comb.area * (1 - comb.area) / n)
        assert abs(est - comb.area) <= 4 * sigma

    @pytest.mark.parametrize("r,ell", [(0.05, 0.4), (0.05, 0.2), (0.03, 0.36)])
    def test_contains_matches_ray_parity(self, r, ell):
        # even-odd crossing count over a fine polygon through the boundary;
        # points closer to bd(X) than the polygon's chord error are skipped
        comb = build_comb(r, ell)
        vx, vy = comb.boundary.points_at(np.linspace(0.0, comb.boundary.length, 4000,
                                                     endpoint=False))
        wx, wy = np.roll(vx, -1), np.roll(vy, -1)
        x0, y0, x1, y1 = comb.bbox()
        rng = np.random.default_rng(19)
        x, y = rng.uniform(x0, x1, 20_000), rng.uniform(y0, y1, 20_000)
        keep = np.abs(comb.signed_distance(x, y)) > 1e-5
        x, y = x[keep], y[keep]
        parity = np.zeros(x.size, dtype=bool)
        for ax, ay, bx, by in zip(vx, vy, wx, wy):
            spans = (ay > y) != (by > y)
            if spans.any():
                parity[spans] ^= x[spans] < ax + (bx - ax) * (y[spans] - ay) / (by - ay)
        assert np.array_equal(comb.contains(x, y), parity)

    def test_single_strip_comb(self):
        comb = build_comb(0.05, 0.2)
        assert comb.strip_count == 1
        assert comb.area > 0

    def test_fits_in_unit_square(self):
        x0, y0, x1, y1 = build_comb(0.05, 0.4).bbox()
        assert 0 < x0 < x1 < 1 and 0 < y0 < y1 < 1
        with pytest.raises(ValueError):
            build_comb(0.05, 1.0)


class TestClassifyGoodBad:
    def test_outside_band_is_not_in_zr(self):
        assert classify_good_bad(region_xs(), (0.5, 0.5), 0.05) is SensorClass.NOT_IN_ZR
        assert classify_good_bad(region_xs(), (0.05, 0.05), 0.05) is SensorClass.NOT_IN_ZR

    @pytest.mark.parametrize("pt, r", [((0.5, 0.2375), 0.0625), ((0.5, 0.3625), 0.0625),
                                       ((0.5, 0.75), 0.05)])
    def test_band_edge_counts_as_inside(self, pt, r):
        # |d| == r at the first two; at the third |d| rounds to 0.04999999999999999 and the
        # disk only touches bd(X), so no entry is found; zone_of puts all three in Z_r
        xs = region_xs()
        assert zone_of(xs, pt, r) in (ZoneLabel.IN_ZR_IN_X, ZoneLabel.IN_ZR_OUT_X)
        assert classify_good_bad(xs, pt, r) is SensorClass.GOOD

    def test_outer_band_points_are_good(self):
        xs = region_xs()
        rng = np.random.default_rng(13)
        found = 0
        while found < 60:
            px, py = rng.random(2)
            d = distance_to_boundary(xs, (px, py))
            if -0.049 < d < -0.001:
                assert classify_good_bad(xs, (px, py), 0.05) is SensorClass.GOOD
                found += 1

    def test_flat_edge_interior_points_are_good(self):
        xs = region_xs()
        # straight-edge inner band: the antipode of the entry point stays inside
        for delta in (0.1, 0.5, 0.9):
            pt = (0.5, 0.7 - delta * 0.05)
            assert classify_good_bad(xs, pt, 0.05) is SensorClass.GOOD

    def test_bad_points_exist_near_corner_at_max_radius(self):
        # with r equal to the corner curvature radius, shallow inner points near
        # a corner see the boundary curl around the disk: antipode falls outside
        region = region_xs()
        r = 0.1
        classes = set()
        for t in np.linspace(0, 1, 40):
            angle = math.pi + t * math.pi / 2  # around the lower-left corner arc
            cx, cy = 0.4, 0.4
            px = cx + 0.085 * math.cos(angle)
            py = cy + 0.085 * math.sin(angle)
            d = distance_to_boundary(region, (px, py))
            assert 0 < d < r
            classes.add(classify_good_bad(region, (px, py), r))
        assert SensorClass.BAD in classes

    @pytest.mark.parametrize("region_fn,r", [(region_xs, 0.1), (region_xl, 0.05),
                                             (lambda: RoundedRect(0.5, 0.5, 0.6, 0.3, 0.12), 0.12)])
    def test_boundary_enters_disk_once_on_its_rim(self, region_fn, r):
        region = region_fn()
        path = region.boundary
        rng = np.random.default_rng(23)
        checked, h = 0, 1e-6
        while checked < 100:
            px, py = rng.random(2)
            if abs(distance_to_boundary(region, (px, py))) >= 0.95 * r:
                continue
            entries = path.entries(px, py, r)
            assert entries.size == 1
            bx, by = path.points_at(entries + np.array([-h, 0.0, h]))
            dist = np.hypot(bx - px, by - py)
            assert dist[1] == pytest.approx(r, abs=1e-12)
            assert dist[0] > r > dist[2]
            checked += 1

    def test_rejects_nonconvex_or_sharp(self):
        with pytest.raises(ValueError):
            classify_good_bad(build_comb(0.05, 0.4), (0.5, 0.5), 0.05)
        with pytest.raises(ValueError):
            classify_good_bad(build_thin_rectangle(0.05), (0.5, 0.5), 0.05)

    def test_agreement_with_dense_sampling_oracle(self):
        region = region_xs()
        r = 0.08
        path = region.boundary
        s = np.linspace(0.0, path.length, 200_000, endpoint=False)
        bx, by = path.points_at(s)
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 40:
            px, py = rng.uniform(0.2, 0.8, 2)
            d = distance_to_boundary(region, (px, py))
            if abs(d) >= r * 0.98:
                continue
            f = np.hypot(bx - px, by - py) - r
            start = int(np.argmax(f))  # farthest sample is safely outside the disk
            fr = np.roll(f, -start)
            crossings = np.nonzero((fr[:-1] > 0) & (fr[1:] <= 0))[0]
            if crossings.size == 0:
                continue
            k = (start + crossings[0] + 1) % s.size
            ex, ey = float(bx[k]), float(by[k])
            qx, qy = 2 * px - ex, 2 * py - ey
            want = SensorClass.GOOD if bool(region.contains(qx, qy)) == (d >= 0) \
                else SensorClass.BAD
            got = classify_good_bad(region, (px, py), r)
            assert got is want
            checked += 1


class TestBadArcLengthBound:
    def test_lemma4_fraction_on_inner_curves(self):
        # sample the inner parallel curve C_delta and check the bad-length bound
        from boundaryvote.bounds import bad_segment_length_upper

        region = region_xs()
        r = 0.1
        n_samples = 240
        for delta in np.arange(0.1, 1.01, 0.1):
            inner = RoundedRect(region.cx, region.cy,
                                region.width - 2 * delta * r,
                                region.height - 2 * delta * r,
                                region.corner_radius - delta * r)
            length = inner.perimeter
            assert length == pytest.approx(region.perimeter - 2 * math.pi * delta * r, abs=1e-12)
            s = np.linspace(0.0, length, n_samples, endpoint=False)
            px, py = inner.boundary.points_at(s)
            bad = 0
            for x, y in zip(px, py):
                if classify_good_bad(region, (x, y), r) is SensorClass.BAD:
                    bad += 1
            frac = bad / n_samples
            bound = bad_segment_length_upper(r, float(delta), region.perimeter)
            slack = 3 * math.sqrt(max(frac * (1 - frac), 1e-4) / n_samples)
            assert frac * length <= bound + slack * length

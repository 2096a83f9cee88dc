"""Neighbor index tests against the brute-force pairwise oracle."""
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from boundaryvote import neighborhood
from boundaryvote.cli import PAPER_R_GRID
from boundaryvote.geometry import build_comb, region_xl, region_xs
from boundaryvote.harness import _cells, _field_unit, trial_seed
from boundaryvote.neighborhood import (NeighborIndex, _check_int32, _key_type, _lanes, _Listing,
                                       _reach, _row_starts, _sorted_pairs, build_index,
                                       build_indexes, neighbors_within)
from boundaryvote.sampling import SensorField, assign_measurements, sample_field
from boundaryvote.vote import SINGLE_ROUND, multi_round_mode


def lone_trial(lam, p, r, region, seed, mode=SINGLE_ROUND):
    """(field, outcome, metrics) of trial 0 of one cell, as the one-cell commands run it."""
    return next(_cells(seed, lam, 0, (region,), (p,), (r,), mode))


def brute_force_neighbors(field, r):
    """Each sensor's neighbor ids by the closed-ball test dx*dx + dy*dy <= r*r."""
    pos = np.column_stack((field.x, field.y))
    dx, dy = pos[:, None, 0] - pos[None, :, 0], pos[:, None, 1] - pos[None, :, 1]
    d2 = dx * dx + dy * dy
    out = []
    for i in range(field.n):
        ids = np.nonzero(d2[i] <= r * r)[0]
        out.append(ids[ids != i])
    return out


def make_field(x, y):
    x = np.asarray(x, dtype=float)
    return SensorField(x=x, y=np.asarray(y, dtype=float), lam=float(len(x)), seed=0)


class TestExactness:
    def test_matches_bruteforce_on_random_fields(self):
        rng = np.random.default_rng(31)
        for trial in range(100):
            n = int(rng.integers(1, 501))
            field = make_field(rng.random(n), rng.random(n))
            r = float(rng.uniform(0.02, 0.2))
            cut = build_indexes(field, (2 * r, r / 2, r))[2]  # a cut among three radius bins
            want = brute_force_neighbors(field, r)
            for index in (build_index(field, r), cut):  # fresh, and a cut
                for i in range(n):
                    got = neighbors_within(index, i)
                    assert np.array_equal(got, want[i]), (trial, i, index.r)

    def test_symmetry(self):
        rng = np.random.default_rng(37)
        field = make_field(rng.random(300), rng.random(300))
        index = build_index(field, 0.07)
        neigh = [set(neighbors_within(index, i).tolist()) for i in range(300)]
        for i in range(300):
            for j in neigh[i]:
                assert i in neigh[j]

    def test_closed_ball_includes_exact_distance(self):
        field = make_field([0.25, 0.5], [0.5, 0.5])
        index = build_index(field, 0.25)
        assert neighbors_within(index, 0).tolist() == [1]
        assert neighbors_within(index, 1).tolist() == [0]

    def test_results_sorted_ascending_and_self_free(self):
        rng = np.random.default_rng(41)
        field = make_field(rng.random(400), rng.random(400))
        index = build_index(field, 0.1)
        for i in (0, 100, 399):
            ids = neighbors_within(index, i)
            assert i not in ids
            assert np.all(np.diff(ids) > 0)


class TestWithin:
    @staticmethod
    def boundary_field(r, n=3000, seed=43):
        """Random pairs at distance r, nudged one ulp either way, among random sensors."""
        rng = np.random.default_rng(seed)
        x0, y0 = rng.uniform(0.2, 0.8, n), rng.uniform(0.2, 0.8, n)
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        x1 = x0 + r * np.cos(theta)
        x1 = np.where(rng.random(n) < 0.5, np.nextafter(x1, 0.0), np.nextafter(x1, 1.0))
        y1 = y0 + r * np.sin(theta)
        return make_field(np.concatenate((x0, x1)), np.concatenate((y0, y1)))

    def test_cut_lists_the_pairs_of_a_fresh_index(self):
        r = 0.01
        field = self.boundary_field(r)
        d2 = (field.x[:3000] - field.x[3000:]) ** 2 + (field.y[:3000] - field.y[3000:]) ** 2
        assert np.any(d2 <= r * r) and np.any(d2 > r * r)  # pairs on both sides
        for index in build_indexes(field, (r, 2 * r, 4 * r)):
            got, want = index.pairs, build_index(field, index.r).pairs
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert got[0].dtype == np.int32

    def test_cuts_answer_neighbors_within_exactly(self):
        r = 0.01
        field = self.boundary_field(r, n=300)
        d2 = (field.x[:300] - field.x[300:]) ** 2 + (field.y[:300] - field.y[300:]) ** 2
        assert np.any(d2 <= r * r) and np.any(d2 > r * r)  # pairs on both sides
        for index in build_indexes(field, (r, 2 * r, 4 * r)):
            want = brute_force_neighbors(field, index.r)
            for s in range(field.n):
                assert np.array_equal(index.neighbors_within(s), want[s]), (index.r, s)


class TestBuildIndexes:
    """One listing per field for a fixed set of radii, and one view per radius."""

    def test_views_in_the_order_given(self):
        rng = np.random.default_rng(67)
        field = make_field(rng.random(400), rng.random(400))
        radii = [0.06, 0.02, 0.1, 0.02, 0.06, 0.04]  # unsorted, with duplicates
        indexes = build_indexes(field, radii)
        assert [index.r for index in indexes] == radii
        for index in indexes:
            got, want = index.pairs, build_index(field, index.r).pairs
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert indexes[1] is indexes[3] and indexes[0] is indexes[4]  # equal radii: one view
        assert len({id(index) for index in indexes}) == 4
        assert len({id(index._listing) for index in indexes}) == 1

    @pytest.mark.parametrize("radii", [[], [0.0], [0.1, 0.0], [0.05, -0.1, 0.2], [0.1, math.nan]])
    def test_nonpositive_radius_anywhere_rejected(self, radii):
        with pytest.raises(ValueError):
            build_indexes(make_field([0.5, 0.6], [0.5, 0.5]), radii)

    def test_one_listing_and_one_row_pointer_pass(self, monkeypatch):
        calls = {"listings": 0, "row_starts": 0}
        listing = _Listing._list

        def list_pairs(self):
            calls["listings"] += 1
            return listing(self)

        def row_starts(rows, n):
            calls["row_starts"] += 1
            return _row_starts(rows, n)

        monkeypatch.setattr(_Listing, "_list", list_pairs)
        monkeypatch.setattr(neighborhood, "_row_starts", row_starts)
        rng = np.random.default_rng(71)
        field = make_field(rng.random(500), rng.random(500))
        values = rng.random(500) < 0.5
        for radii in ([0.05], [0.08, 0.03, 0.05, 0.03]):
            calls.update(listings=0, row_starts=0)
            for index in build_indexes(field, radii):  # every view reads all it holds
                index.pairs, index.counts, index.count_sums(values)
                index.weighted_sums(values.astype(float))
            assert calls == {"listings": 1, "row_starts": 1}, radii

    def test_listing_holds_under_16_bytes_per_pair(self):
        # the columns, bins, B and the counts: no (i, j) copy of the listing beside them
        field = sample_field(10000.0, seed=3)
        tracemalloc.start()
        try:
            indexes = build_indexes(field, PAPER_R_GRID)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        pairs = int(indexes[-1].counts.sum()) // 2
        assert held < 16 * pairs, held / pairs


def tree_pairs(positions, r):
    """The k-d tree's pairs within r, lexsorted: an oracle independent of the sweep."""
    raw = cKDTree(positions).query_pairs(r, output_type="ndarray")
    order = np.lexsort((raw[:, 1], raw[:, 0]))
    return raw[order, 0], raw[order, 1]


def brute_pairs(positions, r):
    """Every pair i < j with dx*dx + dy*dy <= r*r, in (i, j) order."""
    d = positions[:, None, :] - positions[None, :, :]
    return np.nonzero(np.triu(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] <= r * r, 1))


def assert_listing_matches(positions, r):
    """The listing's pairs equal both oracles', as int32; returns how many there are."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    got = NeighborIndex(_Listing(positions, [r]), 0).pairs
    assert got[0].dtype == got[1].dtype == np.int32
    for want in (tree_pairs(positions, r), brute_pairs(positions, r)):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), r
    return got[0].size


def nudged(value, steps):
    """value moved by steps ulps."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


@st.composite
def sweep_case(draw):
    """0-40 sensors at a drawn offset and scale, some coincident, and a radius.

    The radius is drawn over a wide range down to the smallest subnormal, or
    within two ulps of a pair distance, so that pairs sit on the closed-ball edge.
    """
    n = draw(st.integers(0, 40))
    offset = draw(st.sampled_from([0.0, -0.5, 1e6]))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e-9]))
    unit = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5]))
    x, y = (offset + scale * np.array(draw(st.lists(unit, min_size=n, max_size=n)))
            for _ in range(2))
    positions = np.column_stack((x, y)).astype(float).reshape(-1, 2)
    d = np.hypot(*(positions[:, None, :] - positions[None, :, :]).T).ravel()
    radii = st.floats(5e-324, 4.0)
    if np.any(d > 0):
        edge = st.sampled_from(sorted(set(d[d > 0].tolist())))
        radii = st.one_of(radii, st.builds(nudged, edge, st.integers(-2, 2)))
    return positions, draw(radii)


class TestSweep:
    """The strip sweep lists exactly the k-d tree's pairs and the brute-force pairs."""

    @settings(max_examples=300, deadline=None)
    @given(sweep_case())
    def test_matches_the_tree_and_brute_force(self, case):
        assert_listing_matches(*case)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_fields(self, n):
        assert assert_listing_matches(np.full((n, 2), 0.5), 0.1) == n * (n - 1) // 2

    @pytest.mark.parametrize("r", [0.1, 1e-9, 5e-324])
    def test_all_points_coincident(self, r):
        assert assert_listing_matches(np.full((30, 2), 0.3), r) == 30 * 29 // 2

    @pytest.mark.parametrize("axis", [0, 1])
    def test_pairs_one_ulp_either_side_of_r(self, axis):
        # r = 0.125 from an anchor at 0.25: 0.375 is a pair, 0.375 + 1 ulp is not
        steps = [-2, -1, 0, 1, 2]
        positions = np.full((len(steps) + 1, 2), 0.5)
        positions[0, axis] = 0.25
        positions[1:, axis] = [nudged(0.375, k) for k in steps]
        assert assert_listing_matches(positions, 0.125) == 10 + 3  # the anchor with 3 of them

    # b - a rounds to r or below, so the test accepts the pair, but a + r rounds below b
    EDGE_PAIRS = [(-0.08277025938204419, -0.0009304321082119204, 0.08183982727383227),
                  (-0.07535131086748066, 0.032277351776374995, 0.10762866264385565),
                  (-0.03297317164990922, 0.12471256903577166, 0.15768574068568086),
                  (-0.0999, 0.00010000000000000975, 0.1)]  # a + r is exact, b 3 ulps above

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("a, b, r", EDGE_PAIRS)
    def test_pair_past_the_rounded_sum_of_coordinate_and_radius(self, axis, a, b, r):
        assert (b - a) * (b - a) <= r * r and b > a + r
        positions = np.full((2, 2), 0.5)
        positions[:, axis] = a, b
        assert assert_listing_matches(positions, r) == 1

    @pytest.mark.parametrize("a, b, r", EDGE_PAIRS)
    def test_pair_below_across_a_strip_border(self, a, b, r):
        # mirrored, -a - r rounds above -b; the sensor at y = -a sits in the strip left
        # of the border, so its window in the next strip must reach down to -b
        border = _reach(r * r) / 2
        positions = [[border - 1e-12, -a], [border + 1e-12, -b], [0.0, 2 * r - a]]  # 3rd: origin
        assert assert_listing_matches(positions, r) == 1

    def test_points_on_and_one_ulp_across_strip_borders(self):
        r = 0.1
        width = _reach(r * r) / 2  # the strip width while the strips are fewer than the sensors
        borders = np.arange(12) * width
        x = np.concatenate([borders, np.nextafter(borders, -1.0), np.nextafter(borders, 2.0),
                            borders + r, np.nextafter(borders + r, 2.0), borders + 0.06])
        y = np.concatenate([np.full(60, 0.5), np.full(12, 0.58)])  # the last 12: 0.1 by 3-4-5
        assert assert_listing_matches(np.column_stack((x, y)), r) > 0

    @pytest.mark.parametrize("r", [0.1, 1e-9])
    def test_coordinates_offset_by_a_million(self, r):
        rng = np.random.default_rng(83)
        positions = 1e6 + rng.random((300, 2))
        ulp = math.ulp(1e6)
        near = positions[:20] + ulp * rng.integers(-8, 9, (20, 2))  # pairs within a few ulps
        assert assert_listing_matches(np.vstack((positions, near)), r) > 0

    @pytest.mark.parametrize("r", [1.5, 10.0])
    def test_radius_past_the_span(self, r):
        rng = np.random.default_rng(89)
        assert assert_listing_matches(rng.random((200, 2)), r) == 200 * 199 // 2

    @pytest.mark.parametrize("r", [1e-9, 6.78e-186, 5e-324])  # at the last two, r*r underflows
    def test_tiny_radii(self, r):
        rng = np.random.default_rng(97)
        # near the origin, offsets far below an ulp of 0.5 are representable
        cluster = [[0.0, 0.0], [1e-170, 0.0], [0.0, 1e-163], [2e-162, 0.0], [1e-186, 1e-186],
                   [1e-10, 0.0], [0.0, 2e-9], [0.0, 0.0]]
        positions = np.vstack((rng.random((300, 2)), cluster))
        assert assert_listing_matches(positions, r) > 0

    def test_tiny_radius_lists_in_little_memory(self):
        # strips sized by the radius alone would number in the millions here
        positions = np.random.default_rng(101).random((2000, 2))
        tracemalloc.start()
        try:
            _Listing(positions, [1e-9])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**21, peak


def draw_field_and_radii(draw, max_radii):
    """A field of 0-60 sensors and radii, some exactly at its pair distances."""
    n = draw(st.integers(0, 60))
    coords = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    field = make_field(draw(coords), draw(coords))
    radii = draw(st.lists(st.floats(0.01, 0.5), min_size=1, max_size=max_radii))
    # radii exactly at some pair distances put pairs on the closed-ball edge
    pos = np.column_stack((field.x, field.y))
    d = np.hypot(*(pos[:, None, :] - pos[None, :, :]).T).ravel()
    d = d[d > 0.0]
    if d.size:
        picks = st.sampled_from(sorted(set(d.tolist())))
        radii += draw(st.lists(picks, max_size=4))
    return n, field, radii


@st.composite
def tally_case(draw):
    """A small field, unsorted radii with duplicates, and boolean vectors."""
    n, field, radii = draw_field_and_radii(draw, max_radii=6)
    radii = draw(st.permutations(radii + draw(st.lists(st.sampled_from(radii), max_size=3))))
    bools = st.lists(st.booleans(), min_size=n, max_size=n).map(lambda b: np.array(b, dtype=bool))
    return field, radii, draw(bools), draw(bools)


class TestPrefixTally:
    """count_sums and counts on a wide index and its cuts equal bincounts over a fresh listing."""

    @staticmethod
    def assert_matches_fresh(field, indexes, values):
        for index in indexes:
            i, j = build_index(field, index.r).pairs
            want = (np.bincount(i[values[j]], minlength=field.n)
                    + np.bincount(j[values[i]], minlength=field.n))
            assert np.array_equal(index.count_sums(values), want), index.r
            counts = np.bincount(i, minlength=field.n) + np.bincount(j, minlength=field.n)
            assert np.array_equal(index.counts, counts), index.r

    @settings(max_examples=150, deadline=None)
    @given(tally_case())
    def test_cuts_match_fresh_indexes(self, case):
        field, radii, first, second = case
        indexes = build_indexes(field, radii)
        vector = first.copy()
        self.assert_matches_fresh(field, indexes, vector)
        self.assert_matches_fresh(field, indexes, vector)  # the same vector again
        vector[:] = second  # changed in place: the cached tally must not answer
        self.assert_matches_fresh(field, indexes, vector)
        self.assert_matches_fresh(field, indexes, first)
        self.assert_matches_fresh(field, indexes, vector)
        for index in indexes:
            assert index.count_sums(first).dtype == index.counts.dtype == np.int64

    def test_pairs_one_ulp_either_side_of_the_cuts(self):
        r = 0.01
        field = TestWithin.boundary_field(r)
        indexes = build_indexes(field, (4 * r, 2 * r, r, 3 * r, r))
        values = np.random.default_rng(47).random(field.n) < 0.5
        self.assert_matches_fresh(field, indexes, values)

    def test_more_radii_than_a_byte_holds(self):
        # lattice coordinates and radii are exact binary fractions, so many
        # pairs lie exactly on a cut's closed-ball edge
        rng = np.random.default_rng(61)
        field = make_field(rng.integers(0, 256, 250) / 256, rng.integers(0, 256, 250) / 256)
        radii = [k / 1024 for k in range(1, 301)]
        indexes = build_indexes(field, radii)
        values = rng.random(field.n) < 0.5
        for index in indexes:
            fresh = build_index(field, index.r)
            sums, want = index.count_sums(values), fresh.count_sums(values)
            i, j = fresh.pairs  # and two bincounts over a fresh listing
            assert np.array_equal(sums, np.bincount(i[values[j]], minlength=field.n)
                                  + np.bincount(j[values[i]], minlength=field.n)), index.r
            assert sums.dtype == want.dtype == np.int64
            assert np.array_equal(sums, want), index.r
            assert index.counts.dtype == fresh.counts.dtype == np.int64
            assert np.array_equal(index.counts, fresh.counts), index.r
        assert indexes[0]._listing.bins.dtype == np.uint16

    def test_lone_index_sums_equal_two_bincounts(self):
        sampled = sample_field(3000, seed=5)
        cases = [(make_field([], []), np.zeros(0, dtype=bool))] + [
            (sampled, assign_measurements(sampled, region_xs(), p, 5).measured) for p in (0.0, 0.5)]
        for field, values in cases:
            index = build_index(field, 0.06)
            i, j = index.pairs
            want = (np.bincount(i[values[j]], minlength=field.n)
                    + np.bincount(j[values[i]], minlength=field.n))
            sums = index.count_sums(values)
            assert sums.dtype == np.int64
            assert np.array_equal(sums, want)

    def test_pairs_keep_the_lexsort_order(self):
        rng = np.random.default_rng(59)
        field = make_field(rng.random(3000), rng.random(3000))
        index = build_index(field, 0.04)
        raw = cKDTree(index.positions).query_pairs(0.04, output_type="ndarray")
        order = np.lexsort((raw[:, 1], raw[:, 0]))
        assert np.array_equal(index.pairs[0], raw[order, 0])
        assert np.array_equal(index.pairs[1], raw[order, 1])

    @pytest.mark.parametrize("n, r", [(2**16, 0.005), (2**16 + 1, 0.005), (75000, 0.004)])
    def test_pairs_keep_the_lexsort_order_where_the_key_widens(self, n, r):
        # 2**16 sensors fill a 32-bit (i, j) key, and one more needs 64 bits
        rng = np.random.default_rng(n)
        field = make_field(rng.random(n), rng.random(n))
        wide, cut = build_indexes(field, (r, r / 2))
        values = rng.random(n) < 0.5
        self.assert_matches_fresh(field, [wide, cut], values)
        raw = cKDTree(wide.positions).query_pairs(r, output_type="ndarray")
        order = np.lexsort((raw[:, 1], raw[:, 0]))
        for index in (wide, build_index(field, r)):  # after a tally, and alone
            assert np.array_equal(index.pairs[0], raw[order, 0])
            assert np.array_equal(index.pairs[1], raw[order, 1])
        got, want = cut.pairs, build_index(field, r / 2).pairs
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[0].dtype == got[1].dtype == np.int32

    def test_sort_key_past_64_bits_raises(self):
        assert _key_type(32) is np.uint32
        assert _key_type(33) is _key_type(64) is np.uint64  # exactly 64 bits: no wrap
        with pytest.raises(OverflowError):
            _key_type(65)
        top = 2**31 - 1  # the largest int32 id, in a 32-bit field of the key
        key = np.array([(top << 32) | top, 1, top << 32], dtype=np.uint64)
        i, j = _sorted_pairs(key, 32)  # in ascending key order
        assert i.dtype == j.dtype == np.int32
        assert i.tolist() == [0, top, top] and j.tolist() == [1, 0, top]

    def test_index_past_int32_raises(self):
        _check_int32(2**31 - 1)  # the largest pair count or B row count that fits
        with pytest.raises(OverflowError):
            _check_int32(2**31)


@st.composite
def lane_case(draw):
    """Sensors whose largest neighbor count fills a w-bit lane or just overflows it.

    c coincident sensors sit at the origin and at most c - 1 random ones in
    [0.5, 1]^2, in a drawn id order, and no radius reaches from one group to
    the other; so the largest count is exactly c - 1, drawn as 2**w - 1 or
    2**w. The batch of vectors is 1, q - 1, q, q + 1 or 2q + 1 long and
    mixes random, all-false, all-true and duplicate vectors.
    """
    most = 2 ** draw(st.integers(1, 7)) - 1 + draw(st.integers(0, 1))
    spread = draw(st.integers(0, min(most, 40)))
    coords = st.lists(st.floats(0.5, 1.0), min_size=spread, max_size=spread)
    x, y = [0.0] * (most + 1) + draw(coords), [0.0] * (most + 1) + draw(coords)
    order = draw(st.permutations(range(len(x))))
    field = make_field(np.take(x, order), np.take(y, order))
    radii = draw(st.lists(st.floats(0.01, 0.5), min_size=1, max_size=4))
    q = max(31 // most.bit_length(), 1)
    size = draw(st.sampled_from(sorted({1, q - 1, q, q + 1, 2 * q + 1} - {0})))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = []
    for kind in draw(st.lists(st.sampled_from("rftd"), min_size=size, max_size=size)):
        if kind == "d" and vectors:
            vectors.append(vectors[int(rng.integers(len(vectors)))].copy())
        elif kind in "ft":
            vectors.append(np.full(field.n, kind == "t"))
        else:
            vectors.append(rng.random(field.n) < rng.random())
    other = rng.random(field.n) < 0.5
    return field, radii, most, vectors, other


class TestPackedLanes:
    """Vectors tallied q to a word read exactly the sums of one-vector tallies and of bincounts."""

    @staticmethod
    def assert_exact(field, indexes, values, fresh):
        for index in indexes:
            if index.r not in fresh:
                fresh[index.r] = build_index(field, index.r)
            one = fresh[index.r]  # handed nothing: every vector is a one-lane word
            i, j = one.pairs
            want = (np.bincount(i[values[j]], minlength=field.n)
                    + np.bincount(j[values[i]], minlength=field.n))
            sums, alone = index.count_sums(values), one.count_sums(values)
            assert sums.dtype == alone.dtype == np.int64
            assert np.array_equal(alone, want), index.r
            assert np.array_equal(sums, want), index.r

    @settings(max_examples=100, deadline=None)
    @given(lane_case())
    def test_lanes_match_one_vector_tallies(self, case):
        field, radii, most, vectors, other = case
        indexes = build_indexes(field, [max(radii), *radii])
        wide = indexes[0]
        assert wide.counts.max(initial=0) == most
        wide.share_tallies(vectors)
        fresh = {}
        for values in vectors:  # grid order: one vector at every radius, then the next
            self.assert_exact(field, indexes, values, fresh)
        self.assert_exact(field, indexes, other, fresh)  # never handed over
        for values in vectors[::-1]:  # words tallied again, in the other order
            self.assert_exact(field, indexes, values, fresh)
        vectors[0] ^= True  # changed in place after the handover
        self.assert_exact(field, indexes, vectors[0], fresh)
        for values in vectors:
            self.assert_exact(field, indexes, values, fresh)

    def test_lane_rule(self):
        assert _lanes(0) == (1, 31)  # no pairs: one-bit lanes still
        for w in range(1, 32):
            assert _lanes(2**w - 1) == _lanes(2 ** (w - 1)) == (w, max(31 // w, 1)), w

    def test_empty_field(self):
        indexes = build_indexes(make_field([], []), (0.1, 0.05))
        empty = np.zeros(0, dtype=bool)
        indexes[0].share_tallies([empty, empty.copy(), empty.copy()])
        for index in indexes:
            assert index.count_sums(empty).dtype == index.counts.dtype == np.int64
            assert index.count_sums(empty).size == index.counts.size == 0
        metrics = _field_unit(0, 0.01, 0, (region_xs(), region_xl()), (0.1, 0.2), (0.02, 0.05),
                              SINGLE_ROUND)
        assert metrics.shape == (2, 2, 2, 10) and not metrics[..., 0].any()  # no sensors


@st.composite
def call_order_case(draw):
    """A small field, radii, a boolean vector, a call order and whether a tally comes first."""
    n, field, radii = draw_field_and_radii(draw, max_radii=5)
    values = draw(st.lists(st.booleans(), min_size=n, max_size=n).map(np.array))
    calls = draw(st.permutations(("pairs", "counts", "count_sums", "weighted_sums")))
    return field, radii, values, calls, draw(st.booleans())


class TestCutsFromBins:
    """Cut listings taken from the radius bins equal fresh listings, in any call order."""

    @settings(max_examples=150, deadline=None)
    @given(call_order_case())
    def test_cuts_match_fresh_indexes_in_any_order(self, case):
        field, radii, values, calls, tally_first = case
        indexes = build_indexes(field, [max(radii), *radii])
        if tally_first:
            indexes[-1].count_sums(values)  # the word's tally, before any view's calls
        for index in indexes:
            fresh = build_index(field, index.r)
            for call in calls:
                if call == "pairs":
                    got, want = index.pairs, fresh.pairs
                    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
                elif call == "counts":
                    assert np.array_equal(index.counts, fresh.counts), index.r
                elif call == "count_sums":
                    assert np.array_equal(index.count_sums(values), fresh.count_sums(values))
                else:
                    scores = values.astype(float)
                    sums = index.weighted_sums(scores)
                    assert np.array_equal(sums, bincount_sums(field, index.r, scores))
            got, want = index.pairs, fresh.pairs  # again, once U holds the cut's pairs
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@st.composite
def weighted_case(draw):
    """A small field, radii at pair distances, score vectors with exact zeros, and a call order."""
    n, field, radii = draw_field_and_radii(draw, max_radii=4)
    scores = st.one_of(st.just(0.0), st.sampled_from((1.0, -1.0, -0.0)), st.floats(-1.0, 1.0))
    vector = st.lists(scores, min_size=n, max_size=n).map(np.array)
    return field, radii, draw(st.lists(vector, min_size=1, max_size=3)), draw(st.booleans())


def bincount_sums(field, r, values):
    """Reference weighted sums: two weighted bincounts over a fresh radius-r listing."""
    i, j = build_index(field, r).pairs
    return (np.bincount(i, weights=values[j], minlength=field.n)
            + np.bincount(j, weights=values[i], minlength=field.n))


class TestWeightedSums:
    """weighted_sums on a wide index and its cuts equals the bincount reference bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(weighted_case())
    def test_csr_sums_equal_two_weighted_bincounts(self, case):
        field, radii, vectors, counts_first = case
        indexes = build_indexes(field, [max(radii), *radii])
        if counts_first:  # multi-round voting reads counts, from the listing, before any sum
            for index in indexes:
                index.counts
        for values in vectors:
            for index in indexes:
                sums = index.weighted_sums(values)
                assert sums.dtype == np.float64
                assert np.array_equal(sums, bincount_sums(field, index.r, values)), index.r
                fresh = build_index(field, index.r)
                k, upper, lower = index._listing._upper  # the U the listing holds now
                assert k == index._k
                for matrix in (upper, lower):  # U's arrays: a fresh listing's j and row starts
                    assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
                    assert np.array_equal(matrix.indices, fresh.pairs[1])
                    assert np.array_equal(matrix.indptr, np.searchsorted(fresh.pairs[0],
                                                                         np.arange(field.n + 1)))
        for index in indexes:
            want = build_index(field, index.r).counts
            assert np.array_equal(index.counts, want), index.r
            assert index.counts.dtype == want.dtype == np.int64


class TestEdgeCases:
    def test_empty_field(self):
        field = make_field([], [])
        index = build_index(field, 0.1)
        assert index.pairs[0].size == 0
        assert np.array_equal(index.counts, np.zeros(0))
        with pytest.raises(IndexError):
            neighbors_within(index, 0)

    def test_integer_coordinates(self):
        ints = SensorField(x=np.array([0, 1, 3, 4]), y=np.array([0, 0, 0, 2]), lam=4.0, seed=0)
        floats = make_field(ints.x, ints.y)
        for index in build_indexes(ints, (2.5, 1.0, 2.0)):
            assert np.array_equal(index.counts, build_index(floats, index.r).counts), index.r

    def test_isolated_sensor(self):
        field = make_field([0.1, 0.9], [0.1, 0.9])
        index = build_index(field, 0.05)
        assert neighbors_within(index, 0).size == 0

    def test_unknown_id_rejected(self):
        field = make_field([0.5], [0.5])
        index = build_index(field, 0.1)
        with pytest.raises(IndexError):
            neighbors_within(index, 5)
        with pytest.raises(IndexError):
            neighbors_within(index, -1)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            build_index(make_field([0.5], [0.5]), 0.0)


class TestStatistics:
    def test_interior_mean_neighbor_count(self):
        # conditioned on the realized sensor count N, an interior sensor has
        # exactly (N-1)*pi*r^2 expected neighbors; unconditionally lam*pi*r^2
        lam, r = 10000.0, 0.05
        residuals = []
        raw_means = []
        for seed in range(12):
            field = sample_field(lam, seed=seed)
            index = build_index(field, r)
            interior = ((field.x > r) & (field.x < 1 - r)
                        & (field.y > r) & (field.y < 1 - r))
            mean_count = index.counts[interior].mean()
            residuals.append(mean_count - (field.n - 1) * math.pi * r * r)
            raw_means.append(mean_count)
        residuals = np.array(residuals)
        se = residuals.std(ddof=1) / math.sqrt(residuals.size)
        assert abs(residuals.mean()) <= 3 * se
        assert abs(np.mean(raw_means) - lam * math.pi * r * r) <= 0.02 * lam * math.pi * r * r

    def test_no_neighbor_probability(self):
        lam, r = 600.0, 0.05
        want = math.exp(-lam * math.pi * r * r)
        isolated = total = 0
        for seed in range(200):
            field = sample_field(lam, seed=seed)
            index = build_index(field, r)
            interior = ((field.x > r) & (field.x < 1 - r)
                        & (field.y > r) & (field.y < 1 - r))
            isolated += int((index.counts[interior] == 0).sum())
            total += int(interior.sum())
        rate = isolated / total
        se = math.sqrt(want * (1 - want) / total)
        assert abs(rate - want) <= 3 * se


class TestSums:
    def test_count_and_weighted_sums_match_bruteforce(self):
        rng = np.random.default_rng(53)
        field = make_field(rng.random(250), rng.random(250))
        index = build_index(field, 0.09)
        flags = rng.random(250) < 0.3
        values = rng.normal(size=250)
        want_counts = np.zeros(250, dtype=int)
        want_sums = np.zeros(250)
        for i in range(250):
            ids = neighbors_within(index, i)
            want_counts[i] = flags[ids].sum()
            want_sums[i] = values[ids].sum()
        assert np.array_equal(index.count_sums(flags), want_counts)
        assert np.allclose(index.weighted_sums(values), want_sums, atol=1e-12)

    def test_pairs_are_lexicographically_sorted(self):
        field = assign_measurements(sample_field(2000, seed=1), region_xs(), 0.1)
        index = build_index(field, 0.05)
        i, j = index.pairs
        assert np.all(i < j)
        order = np.lexsort((j, i))
        assert np.array_equal(order, np.arange(i.size))


class TestOneSort:
    """A field's pair listing is sorted once, and its row pointers found once, whatever reads them."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = {"sorts": 0, "row_starts": 0}

        def sort(key, s):
            calls["sorts"] += 1
            return _sorted_pairs(key, s)

        def row_starts(rows, n):
            calls["row_starts"] += 1
            return _row_starts(rows, n)

        monkeypatch.setattr(neighborhood, "_sorted_pairs", sort)
        monkeypatch.setattr(neighborhood, "_row_starts", row_starts)
        return calls

    @pytest.mark.parametrize("mode", [SINGLE_ROUND, multi_round_mode(0.5)], ids=["single", "multi"])
    def test_field_unit(self, calls, mode):
        # p = 0.3 at r = 0.02 runs 8 rounds, so the cuts' U are built too
        _field_unit(3, 1500.0, 0, (region_xs(),), (0.05, 0.3), (0.02, 0.04, 0.06), mode)
        assert calls == {"sorts": 1, "row_starts": 1}  # B and every U share the row pointers

    def test_lone_multi_round_index(self, calls):
        _, outcome, _ = lone_trial(1500.0, 0.3, 0.05, region_xs(), seed=3,
                                   mode=multi_round_mode(0.5))
        assert outcome.rounds_executed == 3
        assert calls == {"sorts": 1, "row_starts": 1}


class TestTallyCount:
    """A field tallies its neighbor counts once and its measurement vectors q to a word."""

    @pytest.fixture()
    def tallies(self, monkeypatch):
        calls = []
        tally = neighborhood._Listing.tally

        def counted(listing, word):
            calls.append(word.size)
            return tally(listing, word)

        monkeypatch.setattr(neighborhood._Listing, "tally", counted)
        return calls

    @staticmethod
    def assert_field_unit(tallies, mode):
        field = sample_field(1500.0, trial_seed(3, 1500.0, 0))
        q = 31 // int(build_index(field, 0.1).counts.max()).bit_length()
        tallies.clear()
        p_values = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35)
        _field_unit(3, 1500.0, 0, (region_xs(), region_xl()), p_values, (0.02, 0.05, 0.1), mode)
        assert len(tallies) == 1 + math.ceil(14 / q) < 15  # 2 regions x 7 p values

    def test_single_round_field_unit(self, tallies):
        self.assert_field_unit(tallies, SINGLE_ROUND)

    def test_multi_round_field_unit(self, tallies):
        # round 1 of every cell reads the tally; radius by radius, each word is tallied once
        self.assert_field_unit(tallies, multi_round_mode(0.5))

    def test_lone_comb_trial(self, tallies):
        lone_trial(4000.0, 0.25, 0.05, build_comb(0.05, 0.4), seed=3)
        assert len(tallies) == 2  # the counts, then the measurement vector

    def test_unshared_vector_tallied_once(self, tallies):
        rng = np.random.default_rng(79)
        field = make_field(rng.random(500), rng.random(500))
        wide, cut = build_indexes(field, (0.08, 0.04))
        shared, alone = rng.random(500) < 0.5, rng.random(500) < 0.5
        wide.share_tallies([shared])
        tallies.clear()
        sums = [index.count_sums(alone) for index in (wide, cut, wide, cut)]
        assert len(tallies) == 1  # shared alone: one word for every radius and ask
        for index, got in zip((wide, cut), sums):
            fresh = build_index(field, index.r)
            assert np.array_equal(got, fresh.count_sums(alone)), index.r
            assert np.array_equal(index.count_sums(shared), fresh.count_sums(shared)), index.r


class TestOneUpper:
    """A multi-round field unit builds one U per distinct radius that runs a second round."""

    def test_multi_round_field_unit(self, monkeypatch):
        built = []  # per U: its pair count and weak references to its matrices and ones
        make = neighborhood._csr_and_csc

        def counted(data, indices, indptr):
            pair = make(data, indices, indptr)
            if data.dtype == np.float64:  # a U: B's entries are int32
                assert all(ref() is None for _, refs in built for ref in refs), "two U alive"
                built.append((data.size, [weakref.ref(held) for held in (*pair, data)]))
            return pair

        monkeypatch.setattr(neighborhood, "_csr_and_csc", counted)
        # at c = 0.5, p = 0.3 runs 4 rounds at r = 0.04 and 8 at r = 0.02, and every
        # cell at r = 0.2 runs one round, so it needs no U; r = 0.04 comes twice
        r_values = (0.04, 0.2, 0.02, 0.04)
        _field_unit(3, 1500.0, 0, (region_xs(), region_xl()), (0.05, 0.3), r_values,
                    multi_round_mode(0.5))
        field = sample_field(1500.0, trial_seed(3, 1500.0, 0))
        want = [build_index(field, r).pairs[0].size for r in (0.04, 0.02)]
        assert [size for size, _ in built] == want

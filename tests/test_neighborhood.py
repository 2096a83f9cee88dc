"""Neighbor index tests against the brute-force pairwise oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from boundaryvote import neighborhood
from boundaryvote.geometry import build_comb, region_xl, region_xs
from boundaryvote.harness import SimConfig, _field_unit, run_trial, run_trial_field, trial_seed
from boundaryvote.neighborhood import (_lanes, _row_starts, _sort_packed, build_index,
                                       neighbors_within)
from boundaryvote.sampling import SensorField, assign_measurements, sample_field
from boundaryvote.vote import SINGLE_ROUND, multi_round_mode


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
            wide = build_index(field, 2 * r)
            wide.within(r / 2)  # a third radius bin
            want = brute_force_neighbors(field, r)
            for index in (build_index(field, r), wide.within(r)):  # fresh, and a cut
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
        wide = build_index(field, 4 * r)
        for radius in (r, 2 * r, 4 * r):
            got, want = wide.within(radius).pairs, build_index(field, radius).pairs
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert got[0].dtype == np.int32

    def test_cuts_answer_neighbors_within_exactly(self):
        r = 0.01
        field = self.boundary_field(r, n=300)
        d2 = (field.x[:300] - field.x[300:]) ** 2 + (field.y[:300] - field.y[300:]) ** 2
        assert np.any(d2 <= r * r) and np.any(d2 > r * r)  # pairs on both sides
        wide = build_index(field, 4 * r)
        indexes = [wide.within(radius) for radius in (r, 2 * r, 4 * r)]  # every bin first
        for index in indexes:
            want = brute_force_neighbors(field, index.r)
            for s in range(field.n):
                assert np.array_equal(index.neighbors_within(s), want[s]), (index.r, s)

    def test_radius_above_index_rejected(self):
        index = build_index(make_field([0.5], [0.5]), 0.05)
        with pytest.raises(ValueError):
            index.within(0.06)
        with pytest.raises(ValueError):
            index.within(0.0)


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
    """A small field, unsorted radii with duplicates and r_max, and boolean vectors."""
    n, field, radii = draw_field_and_radii(draw, max_radii=6)
    radii = draw(st.permutations(radii + draw(st.lists(st.sampled_from(radii), max_size=3))))
    bools = st.lists(st.booleans(), min_size=n, max_size=n).map(lambda b: np.array(b, dtype=bool))
    return field, radii, draw(bools), draw(bools), draw(st.floats(0.005, max(radii)))


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
        field, radii, first, second, late_r = case
        wide = build_index(field, max(radii))
        indexes = [wide] + [wide.within(r) for r in radii]
        vector = first.copy()
        self.assert_matches_fresh(field, indexes, vector)
        self.assert_matches_fresh(field, indexes, vector)  # the same vector again
        vector[:] = second  # changed in place: the cached tally must not answer
        self.assert_matches_fresh(field, indexes, vector)
        self.assert_matches_fresh(field, indexes, first)
        indexes.append(wide.within(late_r))  # a radius registered after a tally
        self.assert_matches_fresh(field, indexes, vector)
        for index in indexes:
            assert index.count_sums(first).dtype == index.counts.dtype == np.int64

    def test_pairs_one_ulp_either_side_of_the_cuts(self):
        r = 0.01
        field = TestWithin.boundary_field(r)
        wide = build_index(field, 4 * r)
        indexes = [wide] + [wide.within(radius) for radius in (2 * r, r, 3 * r, r)]
        values = np.random.default_rng(47).random(field.n) < 0.5
        self.assert_matches_fresh(field, indexes, values)

    def test_more_radii_than_a_byte_holds(self):
        # lattice coordinates and radii are exact binary fractions, so many
        # pairs lie exactly on a cut's closed-ball edge
        rng = np.random.default_rng(61)
        field = make_field(rng.integers(0, 256, 250) / 256, rng.integers(0, 256, 250) / 256)
        radii = [k / 1024 for k in range(1, 301)]
        wide = build_index(field, radii[-1])
        indexes = [wide] + [wide.within(r) for r in radii[:-1]]
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
        assert wide._listing.bins().dtype == np.uint16

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
        wide = build_index(field, r)
        cut = wide.within(r / 2)
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
        top = np.array([2**32 - 1, 0, 2**32 - 1], dtype=np.int64)
        low = np.array([2**32 - 1, 1, 0], dtype=np.int64)
        key = _sort_packed([(top, 32), (low, 32)])  # exactly 64 bits: no wrap
        assert key.dtype == np.uint64
        assert key.tolist() == [1, 2**64 - 2**32, 2**64 - 1]
        with pytest.raises(OverflowError):
            _sort_packed([(top, 32), (low, 33)])


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
    return field, radii, most, vectors, other, draw(st.floats(0.005, max(radii)))


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
        field, radii, most, vectors, other, late_r = case
        wide = build_index(field, max(radii))
        indexes = [wide] + [wide.within(r) for r in radii]
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
        indexes.append(wide.within(late_r))  # a radius registered after the tallies
        for values in vectors:
            self.assert_exact(field, indexes, values, fresh)

    def test_lane_rule(self):
        assert _lanes(0) == (1, 31)  # no pairs: one-bit lanes still
        for w in range(1, 32):
            assert _lanes(2**w - 1) == _lanes(2 ** (w - 1)) == (w, max(31 // w, 1)), w

    def test_empty_field(self):
        wide = build_index(make_field([], []), 0.1)
        indexes = [wide, wide.within(0.05)]
        empty = np.zeros(0, dtype=bool)
        wide.share_tallies([empty, empty.copy(), empty.copy()])
        for index in indexes:
            assert index.count_sums(empty).dtype == index.counts.dtype == np.int64
            assert index.count_sums(empty).size == index.counts.size == 0
        metrics = _field_unit(0, 0.01, 0, (region_xs(), region_xl()), (0.1, 0.2), (0.02, 0.05),
                              SINGLE_ROUND)
        assert metrics.shape == (2, 2, 2, 10) and not metrics[..., 0].any()  # no sensors


@st.composite
def call_order_case(draw):
    """A small field, radii, a radius registered late, a boolean vector and a call order."""
    n, field, radii = draw_field_and_radii(draw, max_radii=5)
    values = draw(st.lists(st.booleans(), min_size=n, max_size=n).map(np.array))
    calls = draw(st.permutations(("pairs", "counts", "count_sums", "weighted_sums")))
    return field, radii, draw(st.floats(0.005, max(radii))), values, calls, draw(st.booleans())


class TestCutsFromBins:
    """Cut listings taken from the radius bins equal fresh listings, in any call order."""

    @settings(max_examples=150, deadline=None)
    @given(call_order_case())
    def test_cuts_match_fresh_indexes_in_any_order(self, case):
        field, radii, late_r, values, calls, pairs_first = case
        wide = build_index(field, max(radii))
        indexes = [wide] + [wide.within(r) for r in radii]
        if pairs_first:
            indexes[-1].pairs  # sorts the listing, then bins it
        wide.count_sums(values)  # a tally; the late radius then rebuilds the bins
        if not pairs_first:
            indexes[-1].pairs  # a cut from the tally's bins
        indexes.append(wide.within(late_r))
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
        wide = build_index(field, max(radii))
        indexes = [wide] + [wide.within(r) for r in radii]
        if counts_first:  # multi-round voting reads counts, from the listing, before any sum
            for index in indexes:
                index.counts
        for values in vectors:
            for index in indexes:
                sums = index.weighted_sums(values)
                assert sums.dtype == np.float64
                assert np.array_equal(sums, bincount_sums(field, index.r, values)), index.r
        for index in indexes:
            fresh = build_index(field, index.r)
            upper, lower = index._adjacency
            for matrix in (upper, lower):  # U's arrays: a fresh listing's j and row starts
                assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
                assert np.array_equal(matrix.indices, fresh.pairs[1])
                assert np.array_equal(matrix.indptr, np.searchsorted(fresh.pairs[0],
                                                                     np.arange(field.n + 1)))
            want = fresh.counts
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
        wide = build_index(ints, 2.5)
        for index in (wide, wide.within(1.0), wide.within(2.0)):
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
        calls = {"sorts": [], "row_starts": 0}

        def sort(fields):
            calls["sorts"].append(len(fields))
            return _sort_packed(fields)

        def row_starts(rows, n):
            calls["row_starts"] += 1
            return _row_starts(rows, n)

        monkeypatch.setattr(neighborhood, "_sort_packed", sort)
        monkeypatch.setattr(neighborhood, "_row_starts", row_starts)
        return calls

    @pytest.mark.parametrize("mode", [SINGLE_ROUND, multi_round_mode(0.5)], ids=["single", "multi"])
    def test_field_unit(self, calls, mode):
        # p = 0.3 at r = 0.02 runs 8 rounds, so the cuts' U are built too
        _field_unit(3, 1500.0, 0, (region_xs(),), (0.05, 0.3), (0.02, 0.04, 0.06), mode)
        assert calls == {"sorts": [2], "row_starts": 1}  # B and every U share the row pointers

    def test_lone_multi_round_index(self, calls):
        config = SimConfig(lam=1500.0, p=0.3, r=0.05, region=region_xs(),
                           mode=multi_round_mode(0.5), seed=3)
        assert run_trial_field(config)[1].rounds_executed == 3
        assert calls == {"sorts": [2], "row_starts": 1}


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

    def test_single_round_field_unit(self, tallies):
        field = sample_field(1500.0, trial_seed(3, 1500.0, 0))
        q = 31 // int(build_index(field, 0.1).counts.max()).bit_length()
        tallies.clear()
        p_values = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35)
        _field_unit(3, 1500.0, 0, (region_xs(), region_xl()), p_values, (0.02, 0.05, 0.1),
                    SINGLE_ROUND)
        assert len(tallies) == 1 + math.ceil(14 / q) < 15  # 2 regions x 7 p values

    def test_lone_comb_trial(self, tallies):
        config = SimConfig(lam=4000.0, p=0.25, r=0.05, region=build_comb(0.05, 0.4), seed=3)
        run_trial(config)
        assert len(tallies) == 2  # the counts, then the measurement vector

"""Vote scheme tests: majority semantics, round counts, score propagation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundaryvote.neighborhood import build_index, build_indexes
from boundaryvote.sampling import SensorField, assign_measurements, sample_field
from boundaryvote.geometry import region_xs
from boundaryvote.vote import (SINGLE_ROUND, VoteMode, majority_round,
                               multi_round, multi_round_mode, round_count,
                               run_vote)


def measured_field(x, y, measured):
    x = np.asarray(x, dtype=float)
    measured = np.asarray(measured, dtype=bool)
    return SensorField(x=x, y=np.asarray(y, dtype=float), lam=float(len(x)),
                       seed=0, p=0.1, truth=measured.copy(), measured=measured)


def random_measured_field(rng, n=None):
    n = n or int(rng.integers(5, 300))
    return measured_field(rng.random(n), rng.random(n), rng.random(n) < 0.4)


class TestMajorityRound:
    def test_isolated_sensor_keeps_measurement(self):
        field = measured_field([0.1, 0.9], [0.1, 0.9], [True, False])
        out = majority_round(field, build_index(field, 0.05))
        assert out.decided.tolist() == [True, False]
        assert out.rounds_executed == 1

    def test_strict_majority_overrides_own(self):
        # center sensor measures out; its three neighbors vote (in, in, out)
        field = measured_field([0.5, 0.52, 0.48, 0.5], [0.5, 0.5, 0.5, 0.53],
                               [False, True, True, False])
        out = majority_round(field, build_index(field, 0.06))
        assert out.decided[0] == True  # noqa: E712

    def test_even_tie_follows_own_measurement(self):
        # two neighbors split (in, out); own measurement breaks the tie
        field = measured_field([0.5, 0.54, 0.46], [0.5, 0.5, 0.5],
                               [False, True, False])
        out = majority_round(field, build_index(field, 0.05))
        assert out.decided[0] == False  # noqa: E712
        flipped = measured_field([0.5, 0.54, 0.46], [0.5, 0.5, 0.5],
                                 [True, True, False])
        out = majority_round(flipped, build_index(flipped, 0.05))
        assert out.decided[0] == True  # noqa: E712

    def test_requires_measurements(self):
        field = sample_field(50, seed=1)
        with pytest.raises(ValueError):
            majority_round(field, build_index(field, 0.05))

    def test_determinism(self):
        rng = np.random.default_rng(3)
        field = random_measured_field(rng, 400)
        index = build_index(field, 0.07)
        a = majority_round(field, index)
        b = majority_round(field, index)
        assert np.array_equal(a.decided, b.decided)

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            field = random_measured_field(rng)
            index = build_index(field, 0.08)
            pos = majority_round(field, index).decided
            flipped = measured_field(field.x, field.y, ~field.measured)
            neg = majority_round(flipped, build_index(flipped, 0.08)).decided
            assert np.array_equal(pos, ~neg)


class TestRoundCount:
    def test_paper_maximum(self):
        assert round_count(0.35, 0.005, 0.5) == 35

    def test_single_round_case(self):
        assert round_count(0.1, 0.05, 0.5) == 1

    def test_ceiling(self):
        assert round_count(0.2, 0.03, 0.5) == 4

    def test_floor_at_one(self):
        assert round_count(0.0, 0.05, 0.5) == 1
        assert round_count(0.01, 0.5, 0.5) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            round_count(0.6, 0.05, 0.5)
        with pytest.raises(ValueError):
            round_count(0.1, 0.0, 0.5)
        with pytest.raises(ValueError):
            round_count(0.1, 0.05, 0.0)


class TestMultiRound:
    def test_t1_identical_to_majority_round(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            field = random_measured_field(rng)
            index = build_index(field, float(rng.uniform(0.03, 0.12)))
            single = majority_round(field, index).decided
            multi = multi_round(field, index, 1).decided
            assert np.array_equal(single, multi)

    def test_unanimous_fixed_point(self):
        rng = np.random.default_rng(9)
        field = measured_field(rng.random(100), rng.random(100), [True] * 100)
        index = build_index(field, 0.1)
        for t in (1, 3, 7):
            out = multi_round(field, index, t, keep_history=True)
            assert out.decided.all()
            for score in out.score_history:
                assert np.all(score == 1.0)

    def test_isolated_sensor_any_t(self):
        field = measured_field([0.1, 0.9], [0.1, 0.9], [True, False])
        index = build_index(field, 0.05)
        for t in (1, 2, 10):
            out = multi_round(field, index, t)
            assert out.decided.tolist() == [True, False]
            assert out.rounds_executed == t

    def test_scores_stay_in_unit_interval(self):
        rng = np.random.default_rng(11)
        field = random_measured_field(rng, 500)
        index = build_index(field, 0.06)
        out = multi_round(field, index, 8, keep_history=True)
        for score in out.score_history:
            assert np.all(score <= 1.0) and np.all(score >= -1.0)

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(13)
        field = random_measured_field(rng, 300)
        index = build_index(field, 0.07)
        pos = multi_round(field, index, 3).decided
        flipped = measured_field(field.x, field.y, ~field.measured)
        neg = multi_round(flipped, build_index(flipped, 0.07), 3).decided
        assert np.array_equal(pos, ~neg)

    def test_zero_score_follows_previous_decision(self):
        # two sensors see only each other with opposite measurements: scores
        # swap signs every round and never hit zero; add a symmetric pair that
        # ties at round one
        field = measured_field([0.5, 0.52, 0.7, 0.7, 0.7],
                               [0.5, 0.5, 0.4, 0.36, 0.44],
                               [True, False, False, True, False])
        index = build_index(field, 0.045)
        # sensor 2 has neighbors 3 (in) and 4 (out): tie at round 1 keeps its own
        out = multi_round(field, index, 1)
        assert out.decided[2] == False  # noqa: E712

    def test_rejects_bad_t(self):
        field = measured_field([0.5], [0.5], [True])
        with pytest.raises(ValueError):
            multi_round(field, build_index(field, 0.05), 0)


def reference_multi_round(field, r, t):
    """multi_round with every round, the first too, through a fresh index's weighted_sums."""
    index = build_index(field, r)
    score = np.where(field.measured, 1.0, -1.0)
    decided = field.measured.copy()
    k = index.counts
    safe_k = np.maximum(k, 1).astype(float)
    history = []
    for _ in range(t):
        score = np.where(k > 0, index.weighted_sums(score) / safe_k, score)
        decided = np.where(score > 0.0, True, np.where(score < 0.0, False, decided))
        history.append(score.copy())
    return decided, history


@st.composite
def lattice_case(draw):
    """0-40 sensors on a 1/16 lattice, radii on it and a round count.

    Lattice distances repeat, so pairs sit exactly on a radius and even
    neighbor counts split evenly into exact-zero scores; small radii leave
    sensors isolated, and n = 0 is an empty field.
    """
    n = draw(st.integers(0, 40))
    cells = st.lists(st.integers(0, 16), min_size=n, max_size=n).map(lambda c: np.array(c) / 16)
    field = measured_field(draw(cells), draw(cells),
                           draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    lattice_radii = st.sampled_from([k / 16 for k in range(1, 7)])
    radii = draw(st.lists(lattice_radii, min_size=1, max_size=4))
    return field, radii, draw(st.integers(1, 4))


class TestRoundOneFromTheTally:
    """Round 1 from count_sums equals the all-weighted_sums reference bit for bit."""

    @staticmethod
    def assert_matches_reference(field, radii, t):
        indexes = build_indexes(field, [max(radii), *radii]) + [build_index(field, radii[0])]
        for index in indexes:  # the wide index and its cuts, then a lone index
            out = multi_round(field, index, t, keep_history=True)
            decided, history = reference_multi_round(field, index.r, t)
            assert out.decided.tobytes() == decided.tobytes(), index.r
            assert [s.tobytes() for s in out.score_history] == [s.tobytes() for s in history]

    @settings(max_examples=150, deadline=None)
    @given(lattice_case())
    def test_matches_weighted_sums_reference(self, case):
        self.assert_matches_reference(*case)

    def test_edge_fields(self):
        empty = measured_field([], [], [])
        isolated = measured_field([0.1, 0.9], [0.1, 0.9], [True, False])
        # sensor 2 ties at round 1: one neighbor in, one out
        tie = measured_field([0.5, 0.52, 0.7, 0.7, 0.7], [0.5, 0.5, 0.4, 0.36, 0.44],
                             [True, False, False, True, False])
        for field in (empty, isolated, tie):
            self.assert_matches_reference(field, [0.045, 0.02, 0.01], 3)
        decided, history = reference_multi_round(tie, 0.045, 1)
        assert history[0][2] == 0.0 and not decided[2]


class TestVoteMode:
    def test_dispatch(self):
        field = assign_measurements(sample_field(800, seed=3), region_xs(), 0.2)
        index = build_index(field, 0.03)
        single = run_vote(field, index, SINGLE_ROUND)
        assert single.rounds_executed == 1
        multi = run_vote(field, index, multi_round_mode(0.5))
        assert multi.rounds_executed == round_count(0.2, 0.03, 0.5) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            VoteMode("other")
        for c in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                VoteMode("multi", c=c)

"""Single-round neighborhood majority vote and multi-round score propagation.

The single round follows the strict majority of the neighbors' measurements;
ties (including the no-neighbor case) keep the sensor's own measurement. The
multi-round refinement carries a real score per sensor, initialized to +/-1
from the measurement and replaced each round by the mean score of the
neighbors; the final call is the sign of the score, with exact zeros falling
back to the previous round's decision. Rounds are synchronous: every update
reads only the previous round's scores.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .neighborhood import NeighborIndex


@dataclass(frozen=True)
class VoteMode:
    """single: one majority round; multi: t = max(ceil(c*p/r), 1) score rounds."""

    kind: str  # "single" | "multi"
    c: float = 0.5

    def __post_init__(self):
        if self.kind not in ("single", "multi"):
            raise ValueError("vote mode must be 'single' or 'multi'")
        if self.kind == "multi" and not 0 < self.c < math.inf:
            raise ValueError("multi-round constant c must be positive and finite")


SINGLE_ROUND = VoteMode("single")


def multi_round_mode(c: float = 0.5) -> VoteMode:
    return VoteMode("multi", c)


@dataclass(frozen=True)
class VoteOutcome:
    decided: np.ndarray
    rounds_executed: int
    score_history: list | None = None  # per-round score snapshots, if requested


def majority_round(field, index: NeighborIndex) -> VoteOutcome:
    """One synchronous majority round over initial measurements.

    Uses exact integer tallies, so results do not depend on pair ordering.
    """
    measured = field.measured
    if measured is None:
        raise ValueError("field has no measurements")
    votes_in = index.count_sums(measured)
    k = index.counts
    margin = 2 * votes_in - k  # >0: majority says in X, <0: out, 0: tie
    decided = np.where(margin > 0, True, np.where(margin < 0, False, measured))
    return VoteOutcome(decided=decided, rounds_executed=1)


def round_count(p: float, r: float, c: float) -> int:
    """Number of refinement rounds t = max(ceil(c*p/r), 1)."""
    if not 0.0 <= p <= 0.5:
        raise ValueError("p must lie in [0, 1/2]")
    if r <= 0 or c <= 0:
        raise ValueError("r and c must be positive")
    return max(math.ceil(c * p / r - 1e-9), 1)


def multi_round(field, index: NeighborIndex, t: int, keep_history: bool = False) -> VoteOutcome:
    """t synchronous rounds of neighbor score averaging (self excluded).

    Sensors without neighbors keep their score. Round 1 averages +/-1 scores,
    so its sums are the integers 2 * votes - k; it reads them from the
    index's exact `count_sums`, which the cuts of a sweep field answer from
    one prefix tally, and they equal the float products of the later rounds
    bit for bit, since every partial sum is an integer below 2**53. With
    t = 1 the decisions are exactly those of majority_round. Where no sensor
    has a neighbor no score changes after round 1, so the later rounds are not
    run: rounds_executed is still t, and a kept history has t entries.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    measured = field.measured
    if measured is None:
        raise ValueError("field has no measurements")
    score = np.where(measured, 1.0, -1.0)
    decided = measured.copy()
    k = index.counts
    has_neighbors = k > 0
    safe_k = np.maximum(k, 1).astype(float)
    history = [] if keep_history else None
    for round_index in range(t if has_neighbors.any() else 1):
        if round_index == 0:
            sums = (2 * index.count_sums(measured) - k).astype(float)
        else:
            sums = index.weighted_sums(score)
        np.divide(sums, safe_k, out=score, where=has_neighbors)
        np.copyto(decided, score > 0.0, where=score != 0.0)  # an exact zero keeps the decision
        if history is not None:
            history.append(score.copy())
    if history is not None:
        history += [score.copy() for _ in range(t - len(history))]
    return VoteOutcome(decided=decided, rounds_executed=t, score_history=history)


def run_vote(field, index: NeighborIndex, mode: VoteMode) -> VoteOutcome:
    """Dispatch on the vote mode, deriving t from the field's p for multi."""
    if mode.kind == "single":
        return majority_round(field, index)
    t = round_count(field.p, index.r, mode.c)
    return multi_round(field, index, t)

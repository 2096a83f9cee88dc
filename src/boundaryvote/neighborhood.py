"""Fixed-radius neighbor queries over a sensor field.

Neighborhoods are closed balls: sensors i and j are neighbors when
dx*dx + dy*dy <= r*r, the k-d tree's own test, so two sensors at distance
exactly r are neighbors. The bulk pair listing is cached so a whole field's
neighbor sums cost one pass over the pair array, and `within` cuts a wide
listing down to any smaller radius with the same test.
"""
from __future__ import annotations

import copy

import numpy as np
from scipy.spatial import cKDTree


class NeighborIndex:
    """Radius-r neighbor index over sensor positions."""

    def __init__(self, field, r: float):
        if r <= 0:
            raise ValueError("r must be positive")
        self.r = float(r)
        self.positions = np.column_stack((field.x, field.y))
        self.n = self.positions.shape[0]
        self._tree: cKDTree | None = None
        self._pairs: tuple[np.ndarray, np.ndarray] | None = None
        self._counts: np.ndarray | None = None
        self._wider: NeighborIndex | None = None  # index whose listing this one cuts
        self._sq_dist: np.ndarray | None = None   # squared length of each pair

    @property
    def tree(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self.positions)
        return self._tree

    @property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All unordered neighbor pairs (i, j) with i < j, distance <= r, in (i, j) order."""
        if self._pairs is None:
            if self._wider is not None:
                i, j = self._wider.pairs
                keep = self._wider._squared_distances() <= self.r * self.r
                self._pairs = (i[keep], j[keep])
            elif self.n == 0:
                empty = np.empty(0, dtype=np.int32)
                self._pairs = (empty, empty)
            else:
                raw = self.tree.query_pairs(self.r, output_type="ndarray")
                order = np.lexsort((raw[:, 1], raw[:, 0]))
                # int32 ids halve the memory of the listing and its cuts
                self._pairs = (raw[order, 0].astype(np.int32), raw[order, 1].astype(np.int32))
        return self._pairs

    def _squared_distances(self) -> np.ndarray:
        """dx*dx + dy*dy of each pair in `pairs`, computed once."""
        if self._sq_dist is None:
            i, j = self.pairs
            dx = self.positions[i, 0] - self.positions[j, 0]
            dy = self.positions[i, 1] - self.positions[j, 1]
            self._sq_dist = dx * dx + dy * dy
        return self._sq_dist

    def within(self, r: float) -> "NeighborIndex":
        """Radius-r index (r <= self.r) whose pairs are cut from this index's listing.

        The cut applies the closed-ball test to the cached squared distances
        and keeps the (i, j) order, so it lists exactly the pairs of a fresh
        radius-r index, in the same order. The cut happens on first use;
        within(self.r) is this index itself.
        """
        if not 0 < r <= self.r:
            raise ValueError(f"r={r} must lie in (0, {self.r}], the index radius")
        if r == self.r:
            return self
        index = copy.copy(self)
        index.r = float(r)
        index._pairs = index._counts = index._sq_dist = None
        index._wider = self
        return index

    @property
    def counts(self) -> np.ndarray:
        """Neighbor count per sensor."""
        if self._counts is None:
            i, j = self.pairs
            self._counts = np.bincount(i, minlength=self.n) + np.bincount(j, minlength=self.n)
        return self._counts

    def neighbors_within(self, s) -> np.ndarray:
        """Ids of all other sensors within the closed ball of radius r, ascending."""
        sid = int(getattr(s, "id", s))
        if not 0 <= sid < self.n:
            raise IndexError(f"unknown sensor id {sid}")
        ids = self.tree.query_ball_point(self.positions[sid], self.r)
        out = np.array(sorted(k for k in ids if k != sid), dtype=np.int64)
        return out

    def count_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-sensor sums of an integer/bool per-neighbor quantity (exact)."""
        i, j = self.pairs
        v = np.asarray(values)
        sums = np.bincount(i[v[j]], minlength=self.n) + np.bincount(j[v[i]], minlength=self.n)
        return sums

    def weighted_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-sensor sums of a real-valued per-neighbor quantity."""
        i, j = self.pairs
        v = np.asarray(values, dtype=float)
        return (
            np.bincount(i, weights=v[j], minlength=self.n)
            + np.bincount(j, weights=v[i], minlength=self.n)
        )


def build_index(field, r: float) -> NeighborIndex:
    """Index a sensor field for radius-r neighbor queries."""
    return NeighborIndex(field, r)


def neighbors_within(index: NeighborIndex, s) -> np.ndarray:
    return index.neighbors_within(s)

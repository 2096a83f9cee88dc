"""Fixed-radius neighbor queries over a sensor field.

Neighborhoods are closed balls: sensors i and j are neighbors when
dx*dx + dy*dy <= r*r, the k-d tree's own test, so two sensors at distance
exactly r are neighbors. The bulk pair listing is cached so a whole field's
neighbor sums cost one pass over the pair array, and `within` cuts a wide
listing down to any smaller radius with the same test.

A wide index with cuts answers `count_sums` for all of its radii from one
prefix tally. Each listed pair is binned once by the smallest registered
radius whose closed ball holds it, and the bins go into T, a sparse
(R*n, n) matrix whose row bin*n + i holds the neighbors of sensor i in that
bin: each pair is one entry in row bin*n + i and one in row bin*n + j. T is
built by packing every entry as the int64 key ((bin*n + row) << s) | col,
with s the bit length of n, and sorting the keys once. A tally is then one
product T @ v over int32 entries and an int32 0/1 vector, which is exact,
and a cumulative sum over the radius axis of the (R, n) result: its row k
is exactly the k-th radius's integer sums. The all-ones tally is the same
cumulative sum of T's row lengths. The last tally is cached with a copy of
its input vector and served again only to an equal vector, so the cuts of a
field voting on one measurement vector share a single pass, and a vector
changed in place is never answered from a stale tally. Registering a new
radius drops T and the tally. A lone radius has nothing to share; its
`count_sums` is the multi-round product below over 0/1 values, also exact.

Multi-round voting sums real scores with two sparse matrix-vector products,
`weighted_sums(v) = U @ v + U.T @ v`. U is the upper adjacency in CSR form:
row i holds the neighbors j > i in ascending order, so its column indices
are the (i, j)-sorted listing's j and its row pointers the cumulative
`bincount(i)`. U.T is the same three arrays read as CSC, so it copies
nothing. Row i of U @ v adds v[j] over j ascending, and the CSC product
adds v[i] into row j over i ascending: the order in which two weighted
`bincount`s over the listing add them, so the sums are the same bit for
bit. One symmetric matrix U + U.T would interleave the two halves of each
row and round differently, which can flip a tie at an exact-zero score. A
cut keeps no listing once U exists; U's column indices hold its pairs at 4
bytes each. Every U of a family shares one float64 array of ones, sized
for the widest index, as its `data`. The arrays are set after construction
because scipy's format check silently copies a view shorter than half of
its base.

`counts` is read from what the index already holds: the all-ones tally once
T exists, U's row pointers and column indices once U exists, and
otherwise its own listing.
"""
from __future__ import annotations

import bisect
import copy

import numpy as np
from scipy import sparse
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
        self._wider: NeighborIndex | None = None  # widest index, whose listing this one cuts
        self._sq_dist: np.ndarray | None = None   # squared length of each pair
        # Prefix tally state, kept on the widest index only.
        self._radii: list[float] = [self.r]        # its own and its cuts' radii, sorted
        self._table: sparse.csr_array | None = None  # T, the bin-major adjacency
        self._ones: np.ndarray | None = None       # (R, n) tally of an all-ones vector
        self._last: tuple[np.ndarray, np.ndarray] | None = None  # (values, tally)
        # Multi-round state: (U, U.T), and on the widest index the ones they share.
        self._adjacency: tuple[sparse.csr_array, sparse.csc_array] | None = None
        self._unit: np.ndarray | None = None

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
                # i < j, so the unique key i*n + j sorts exactly as (i, j) does
                key = raw[:, 0] * self.n + raw[:, 1]
                del raw  # one int64 copy of the listing at a time bounds peak memory
                key.sort()
                # int32 ids halve the memory of the listing and its cuts
                self._pairs = ((key // self.n).astype(np.int32),
                               (key % self.n).astype(np.int32))
        return self._pairs

    def _squared_distances(self) -> np.ndarray:
        """dx*dx + dy*dy of each pair in `pairs`, cached until T's build frees it."""
        if self._sq_dist is None:
            i, j = self.pairs
            dx = self.positions[i, 0] - self.positions[j, 0]
            dy = self.positions[i, 1] - self.positions[j, 1]
            dx *= dx  # in place: two pair-sized arrays at a time, not four
            dy *= dy
            dx += dy
            self._sq_dist = dx
        return self._sq_dist

    def within(self, r: float) -> "NeighborIndex":
        """Radius-r index (r <= self.r) whose pairs are cut from the widest listing.

        The cut applies the closed-ball test to the widest index's squared distances
        and keeps the (i, j) order, so it lists exactly the pairs of a fresh
        radius-r index, in the same order. The cut happens on first use, and
        a single-round vote never needs it; within(self.r) is this index itself.
        """
        if not 0 < r <= self.r:
            raise ValueError(f"r={r} must lie in (0, {self.r}], the index radius")
        if r == self.r:
            return self
        widest = self._wider or self
        r = float(r)
        if r not in widest._radii:
            bisect.insort(widest._radii, r)
            widest._table = widest._ones = widest._last = None
        index = copy.copy(widest)
        index.r = r
        index._pairs = index._counts = index._sq_dist = None
        index._radii = index._table = index._ones = index._last = None
        index._adjacency = index._unit = None
        index._wider = widest
        return index

    def _tally_matrix(self) -> sparse.csr_array:
        """T, the (R*n, n) bin-major adjacency of the listed pairs (widest index only).

        Row bin*n + i holds the neighbors of sensor i whose pair falls in that
        radius bin, so each pair is one entry in row bin*n + i and one in row
        bin*n + j. The all-ones tally is read off T's row lengths.
        """
        if self._table is None:
            n, size = self.n, len(self._radii)
            i, j = self.pairs
            sq_dist = self._squared_distances()
            # a pair's bin counts the smaller radii whose closed ball misses it, by the
            # cuts' own test; a pair the tree lists at the widest radius stays in its bin
            bins = np.zeros(i.size, dtype=np.min_scalar_type(size - 1))
            for r in self._radii[:-1]:
                bins += sq_dist > r * r
            # free the squared distances before packing; a cut's listing recomputes them
            del sq_dist
            self._sq_dist = None
            # pack each entry as ((bin*n + row) << shift) | col, one half at a time
            shift = n.bit_length()
            keys = np.empty(2 * i.size, dtype=np.int64)
            lengths = np.zeros(size * n, dtype=np.int64)
            for half, row, col in ((keys[:i.size], i, j), (keys[i.size:], j, i)):
                half[...] = bins
                half *= n
                half += row
                lengths += np.bincount(half, minlength=size * n)
                half <<= shift
                half |= col
            del bins, half  # half is a view of keys, which must be freed once split
            keys.sort()
            keys &= (1 << shift) - 1
            indices = keys.astype(np.int32)
            del keys  # one packed array at a time bounds peak memory
            indptr = np.zeros(size * n + 1, dtype=np.int32)
            np.cumsum(lengths, out=indptr[1:])
            self._table = sparse.csr_array((size * n, n))
            # set after construction, so scipy neither re-checks nor widens the int32 arrays
            self._table.data = np.ones(indices.size, dtype=np.int32)
            self._table.indices, self._table.indptr = indices, indptr
            self._ones = np.cumsum(lengths.reshape(size, n), axis=0)
        return self._table

    def _tally(self, values: np.ndarray) -> np.ndarray:
        """(R, n) boolean neighbor sums at every registered radius (widest index only)."""
        if self._last is None or not np.array_equal(self._last[0], values):
            flat = self._tally_matrix() @ values.astype(np.int32)
            tally = np.cumsum(flat.reshape(len(self._radii), self.n), axis=0, dtype=np.int64)
            self._last = (values.copy(), tally)
        return self._last[1]

    @property
    def counts(self) -> np.ndarray:
        """Neighbor count per sensor."""
        if self._counts is None:
            widest = self._wider or self
            if widest._table is not None:
                self._counts = widest._ones[widest._radii.index(self.r)].copy()
            elif self._adjacency is not None:
                upper = self._adjacency[0]
                self._counts = np.diff(upper.indptr) + np.bincount(upper.indices, minlength=self.n)
            else:
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
        """Per-sensor number of neighbors whose boolean value is true (exact).

        An index with cuts reads its row of the widest index's prefix tally;
        a lone radius has nothing to share, so it bins nothing and sums 0/1
        values with the multi-round products, which are exact for them.
        """
        v = np.asarray(values, dtype=bool)
        widest = self._wider or self
        if len(widest._radii) > 1:
            return widest._tally(v)[widest._radii.index(self.r)].copy()
        return self.weighted_sums(v).astype(np.int64)

    def _upper_and_lower(self) -> tuple[sparse.csr_array, sparse.csc_array]:
        """U as CSR and U.T as CSC over the same arrays; a cut then drops its listing."""
        if self._adjacency is None:
            widest = self._wider or self
            if widest._unit is None:
                widest._unit = np.ones(widest.pairs[0].size)
            i, j = self.pairs
            indptr = np.zeros(self.n + 1, dtype=np.int32)  # int32, as the ids: no index copies
            np.cumsum(np.bincount(i, minlength=self.n), out=indptr[1:])
            shape = (self.n, self.n)
            self._adjacency = (sparse.csr_array(shape), sparse.csc_array(shape))
            for matrix in self._adjacency:
                # set after construction: scipy's format check would copy a short view
                matrix.data, matrix.indices, matrix.indptr = widest._unit[:i.size], j, indptr
            if self._wider is not None:
                self._pairs = None  # U's column indices and row pointers hold the pairs now
        return self._adjacency

    def weighted_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-sensor sums of a real-valued per-neighbor quantity, U @ v + U.T @ v."""
        upper, lower = self._upper_and_lower()
        v = np.asarray(values, dtype=float)
        return upper @ v + lower @ v


def build_index(field, r: float) -> NeighborIndex:
    """Index a sensor field for radius-r neighbor queries."""
    return NeighborIndex(field, r)


def neighbors_within(index: NeighborIndex, s) -> np.ndarray:
    return index.neighbors_within(s)

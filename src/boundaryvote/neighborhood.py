"""Fixed-radius neighbor queries over a sensor field.

Neighborhoods are closed balls: sensors i and j are neighbors when
dx*dx + dy*dy <= r*r, the k-d tree's own test, so two sensors at distance
exactly r are neighbors. The bulk pair listing is cached as int32 ids so a
whole field's neighbor sums cost one pass over the pair array, and `within`
cuts a wide listing down to any smaller radius.

Every listing is sorted once, on one packed unsigned key decoded by shifts
and masks: with s the bit length of n - 1, (i << s) | j, uint32 while
2s <= 32 and uint64 beyond. A key past 64 bits raises OverflowError.

The widest index keeps one radius bin per listed pair, in the
smallest unsigned type that holds the radius count (uint8 up to 256 radii):
the number of registered radii below its own whose closed ball misses the
pair, by the test above. The radii that miss a pair are the smallest ones,
so the k-th radius's pairs are exactly those with bin <= k, and a cut lists
them in the wide listing's (i, j) order without any distance. The wide
listing keeps the tree's order until `pairs` asks for it, and that sort
carries the bins in the key's low bits. Registering a new radius drops the
bins, and the next cut or tally bins the listing again.

The same index answers `count_sums` and `counts` for all of its radii from
one prefix tally. B is the (R*n, R*n) block-diagonal upper adjacency whose
block k holds the pairs of bin k: an entry at row k*n + i, column k*n + j
for each such pair i < j, so it has one entry per pair. One sort of the key
(bin << 2s) | (i << s) | j over the listing puts the entries in B's CSR
order; its low s bits are j, and a binary search of each row's first key
gives the row pointers. With x the 0/1 vector tiled R times, row k*n + i of
B @ x + B.T @ x counts the neighbors of i in bin k that are set, and the
cumulative sum over the radius axis of that (R, n) result is exactly every
radius's integer sums; int32 products over int32 entries are exact. `counts`
is the tally of the all-ones vector, kept for the life of the bins. The last
other tally is cached with a copy of its input and served again only to an
equal vector, so the cuts of a field voting on one measurement vector share
a single pass, and a vector changed in place is never answered from a stale
tally. A lone radius is the case R = 1: every pair is in bin 0, so B is U
with int32 entries, and the radius bins cost no distance.

Multi-round voting sums real scores with two sparse matrix-vector products,
`weighted_sums(v) = U @ v + U.T @ v`. U is the upper adjacency in CSR form:
row i holds the neighbors j > i in ascending order, so its column indices
are the (i, j)-sorted listing's j and its row pointers a binary search of
its sorted i. Row i of U @ v adds v[j] over j ascending, and the CSC product
adds v[i] into row j over i ascending: the order in which two weighted
`bincount`s over the listing add them, so the sums are the same bit for
bit. One symmetric matrix U + U.T would interleave the two halves of each
row and round differently, which can flip a tie at an exact-zero score. A
cut keeps no listing once U exists; U's column indices hold its pairs at 4
bytes each. Every U of a family shares one float64 array of ones, sized
for the widest index, as its `data`.

B.T and U.T are their matrix's three arrays read as CSC, so they copy
nothing. The arrays are set after construction because scipy's format check
silently copies a view shorter than half of its base and may widen int32
indices.
"""
from __future__ import annotations

import bisect
import copy

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

_CHUNK = 1 << 16  # pairs binned at once: their temporaries stay in cache


def _sort_packed(fields) -> np.ndarray:
    """Sorted keys packing (nonnegative ints, bit width) fields, most significant first.

    uint32 keys up to 32 bits, uint64 up to 64; a wider key would wrap, so it raises.
    """
    bits = sum(width for _, width in fields)
    if bits > 64:
        raise OverflowError(f"a {bits}-bit sort key does not fit 64 bits")
    key = fields[0][0].astype(np.uint32 if bits <= 32 else np.uint64)
    for values, width in fields[1:]:
        key <<= width
        key |= values.view(f"u{values.itemsize}")  # unsigned: no signed promotion
    key.sort()
    return key


def _csr_and_csc(data, indices, indptr) -> tuple[sparse.csr_array, sparse.csc_array]:
    """A square CSR matrix and its transpose as CSC, both over the same three arrays."""
    size = indptr.size - 1
    pair = (sparse.csr_array((size, size)), sparse.csc_array((size, size)))
    for matrix in pair:
        matrix.data, matrix.indices, matrix.indptr = data, indices, indptr
    return pair


class NeighborIndex:
    """Radius-r neighbor index over sensor positions."""

    def __init__(self, field, r: float):
        if r <= 0:
            raise ValueError("r must be positive")
        self.r = float(r)
        self.positions = np.column_stack((field.x, field.y)).astype(np.float64, copy=False)
        self.n = self.positions.shape[0]
        self._id_bits = max(self.n - 1, 0).bit_length()  # bits of a sensor id in a packed key
        self._tree: cKDTree | None = None
        self._raw: tuple[np.ndarray, np.ndarray] | None = None  # listing in the tree's order
        self._pairs: tuple[np.ndarray, np.ndarray] | None = None
        self._counts: np.ndarray | None = None
        self._wider: NeighborIndex | None = None  # widest index, whose listing this one cuts
        # Prefix tally state, kept on the widest index only.
        self._radii: list[float] = [self.r]        # its own and its cuts' radii, sorted
        self._bins: np.ndarray | None = None       # radius bin of each listed pair
        self._block: tuple[sparse.csr_array, sparse.csc_array] | None = None  # (B, B.T)
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
                widest = self._wider
                i, j = widest.pairs
                # one index array gathered twice: boolean indexing is three times
                # slower on bins that follow no order along the listing
                keep = np.flatnonzero(widest._radius_bins() <= widest._radii.index(self.r))
                self._pairs = (i.take(keep), j.take(keep))
            else:
                bins, width = self._bins, (len(self._radii) - 1).bit_length()
                key = _sort_packed([(ids, self._id_bits) for ids in self._listing()]
                                   + ([] if bins is None else [(bins, width)]))
                self._raw = None  # the key holds the listing now
                if bins is not None:  # carried through the sort, so never binned twice
                    np.bitwise_and(key, (1 << width) - 1, out=bins, casting="unsafe")
                    key >>= width
                i = key >> self._id_bits
                key &= (1 << self._id_bits) - 1
                self._pairs = tuple(ids.view(np.int32) if ids.itemsize == 4 else ids.astype(np.int32)
                                    for ids in (i, key))
        return self._pairs

    def _listing(self) -> tuple[np.ndarray, np.ndarray]:
        """The widest index's int32 listing: in (i, j) order once sorted, else in the tree's."""
        if self._pairs is None and self._raw is None:
            raw = self.tree.query_pairs(self.r, output_type="ndarray")
            # int32 ids halve the memory of the listing and its cuts
            self._raw = (raw[:, 0].astype(np.int32), raw[:, 1].astype(np.int32))
        return self._raw if self._pairs is None else self._pairs

    def _radius_bins(self) -> np.ndarray:
        """Each listed pair's count of the smaller registered radii that miss it.

        Widest index only, in the order of its listing. A pair the tree lists at
        the widest radius stays in its bin, so the widest radius's own test is
        never repeated on its listing.
        """
        if self._bins is None:
            i, j = self._listing()
            points = self.positions.view(np.complex128).ravel()  # one gather per endpoint
            self._bins = np.zeros(i.size, dtype=np.min_scalar_type(len(self._radii) - 1))
            smaller = self._radii[:-1]  # none for a lone radius: every pair is in bin 0
            for start in range(0, i.size if smaller else 0, _CHUNK):
                d = points.take(i[start:start + _CHUNK]) - points.take(j[start:start + _CHUNK])
                sq = d.real * d.real + d.imag * d.imag  # dx*dx + dy*dy, the tree's own test
                bins = self._bins[start:start + _CHUNK]
                for r in smaller:
                    bins += sq > r * r
        return self._bins

    def within(self, r: float) -> "NeighborIndex":
        """Radius-r index (r <= self.r) whose pairs are cut from the widest listing.

        The cut keeps the widest listing's pairs whose radius bin is at most
        r's place among the registered radii, in (i, j) order, so it lists
        exactly the pairs of a fresh radius-r index, in the same order. The
        cut happens on first use, and a vote whose sums all come from the
        prefix tally never needs it; within(self.r) is this index itself.
        """
        if not 0 < r <= self.r:
            raise ValueError(f"r={r} must lie in (0, {self.r}], the index radius")
        if r == self.r:
            return self
        widest = self._wider or self
        r = float(r)
        if r not in widest._radii:
            bisect.insort(widest._radii, r)
            widest._bins = widest._block = widest._ones = widest._last = None
        index = copy.copy(widest)
        index.r = r
        index._raw = index._pairs = index._counts = None
        index._radii = index._bins = index._block = index._ones = index._last = None
        index._adjacency = index._unit = None
        index._wider = widest
        return index

    def _tally(self, values: np.ndarray) -> np.ndarray:
        """(R, n) sums of a boolean vector over the neighbors at every registered radius.

        Widest index only. The first call builds (B, B.T), kept with the bins.
        """
        if self._block is None:
            radii, s = len(self._radii), self._id_bits
            size = radii * self.n
            itype = np.int32 if size < 2**31 else np.int64
            key = _sort_packed([(self._radius_bins(), (radii - 1).bit_length()),
                                *((ids, s) for ids in self._listing())])  # B's CSR order
            starts = (np.arange(radii, dtype=key.dtype)[:, None] << 2 * s
                      | np.arange(self.n, dtype=key.dtype) << s)  # each row's first key
            indptr = np.append(np.searchsorted(key, starts.ravel()), key.size).astype(itype)
            key &= (1 << s) - 1
            columns = key.astype(itype)
            del key
            for k in range(1, radii):  # block k's columns start at k*n
                columns[indptr[k * self.n]:indptr[(k + 1) * self.n]] += k * self.n
            self._block = _csr_and_csc(np.ones(columns.size, dtype=np.int32), columns, indptr)
        upper, lower = self._block
        x = np.tile(np.asarray(values, dtype=np.int32), len(self._radii))
        flat = upper @ x + lower @ x
        return np.cumsum(flat.reshape(len(self._radii), self.n), axis=0, dtype=np.int64)

    @property
    def counts(self) -> np.ndarray:
        """Neighbor count per sensor."""
        if self._counts is None:
            widest = self._wider or self
            if widest._ones is None:
                widest._ones = widest._tally(np.ones(self.n, dtype=bool))
            self._counts = widest._ones[widest._radii.index(self.r)].copy()
        return self._counts

    def neighbors_within(self, s) -> np.ndarray:
        """Ids of all other sensors within the closed ball of radius r, ascending."""
        sid = int(s)
        if not 0 <= sid < self.n:
            raise IndexError(f"unknown sensor id {sid}")
        ids = self.tree.query_ball_point(self.positions[sid], self.r)
        out = np.array(sorted(k for k in ids if k != sid), dtype=np.int64)
        return out

    def count_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-sensor number of neighbors whose boolean value is true (exact).

        Every index reads its row of the widest index's prefix tally.
        """
        v = np.asarray(values, dtype=bool)
        widest = self._wider or self
        if widest._last is None or not np.array_equal(widest._last[0], v):
            widest._last = (v.copy(), widest._tally(v))
        return widest._last[1][widest._radii.index(self.r)].copy()

    def _upper_and_lower(self) -> tuple[sparse.csr_array, sparse.csc_array]:
        """U as CSR and U.T as CSC over the same arrays; a cut then drops its listing."""
        if self._adjacency is None:
            widest = self._wider or self
            if widest._unit is None:
                widest._unit = np.ones(widest._listing()[0].size)
            i, j = self.pairs
            indptr = np.searchsorted(i, np.arange(self.n + 1, dtype=i.dtype)).astype(i.dtype)
            self._adjacency = _csr_and_csc(widest._unit[:i.size], j, indptr)
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

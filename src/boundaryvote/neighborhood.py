"""Fixed-radius neighbor queries over a sensor field.

Neighborhoods are closed balls: sensors i and j are neighbors when
dx*dx + dy*dy <= r*r, the k-d tree's own test, so two sensors at distance
exactly r are neighbors.

A field has one listing, built for a fixed, sorted set of unique radii:
its pairs (i, j), i < j, at the widest radius, as int32 ids. They are
sorted once, on one packed unsigned key decoded by shifts and masks. With s
the bit length of n - 1, the key is (i << s) | j. It is uint32 while
2s <= 32 and uint64 beyond, and a key past 64 bits raises OverflowError.
The listing's row pointers, where each sensor's pairs start, are computed
once. A `NeighborIndex` is a view of the listing at its k-th radius;
`build_indexes` builds the listing and returns one view per radius.

With more than one radius, the listing keeps one radius bin per pair, in
the smallest unsigned type that holds the radius count (uint8 up to 256
radii). A pair's bin is the number of radii below the widest whose closed
ball misses it, by the test above. The radii that miss a pair are the
smallest ones, so the k-th radius's pairs are exactly those with bin <= k.
A view of a smaller radius finds its listing positions from the bins, in
(i, j) order, without any distance.

Ascending listing positions `keep` give one part of the listing in CSR form.
Its column indices are j.take(keep), and its row pointers are
searchsorted(keep, starts): the number of kept pairs before each row's start.
B's blocks and every smaller view's U are such parts. No view gathers its i.

The listing answers `count_sums` and `counts` for all of its radii from one
prefix tally. B is the (R*n, R*n) block-diagonal upper adjacency whose block
k holds the pairs of bin k: an entry at row k*n + i, column k*n + j for each
such pair i < j, so it has one entry per pair. B's CSR order is the listing
stably partitioned by bin, so block k is the part of bin k's positions. With
x a vector tiled R times, row k*n + i of B @ x + B.T @ x sums x over the
neighbors of i in bin k. The cumulative sum over the radius axis of that
(R, n) result is every radius's sums. `counts` is the tally of the all-ones
vector. The listing, its bins, B and the counts are built with the listing;
only U's ones, each view's U and the tally word wait for their first use.
A lone radius is the case R = 1:
every pair is in bin 0, so B is the listing itself, with U's column indices
and row pointers and int32 entries, and no pair is binned.

A tally word carries several 0/1 vectors at once. Every neighbor count at
every radius is at most M, the widest radius's largest count, so a 0/1
vector fits in a w-bit lane, w = M.bit_length(), and q = 31 // w lanes fit
one int32 word: lane l of the word holds vector l shifted left by w*l. The
int32 products and the prefix sum add lanes without a carry crossing one,
because every partial sum of a lane is nonnegative and at most the lane's
final count, which is at most M < 2**w; so (row >> w*l) & (2**w - 1) is
vector l's exact sums. The vectors handed to `share_tallies` are packed q at
a time, in the order given, and any other vector is a one-lane word. The
listing keeps one word's (R, n) tally, with copies of the vectors in its
lanes: a vector is answered from it only when it equals one of them, so a
vector changed in place is never answered from a stale tally.

Multi-round voting sums real scores with two sparse matrix-vector products,
`weighted_sums(v) = U @ v + U.T @ v`. U is the upper adjacency in CSR form:
row i holds the neighbors j > i in ascending order. The widest view's U is
the listing itself, and a smaller view's U is the part at its positions.
Row i of U @ v adds v[j] over j ascending, and the CSC product adds v[i]
into row j over i ascending: the order in which two weighted `bincount`s
over the listing add them, so the sums are the same bit for bit. One
symmetric matrix U + U.T would interleave the two halves of each row and
round differently, which can flip a tie at an exact-zero score. Every U of
a listing shares one float64 array of ones, sized for the widest radius, as
its `data`.

B.T and U.T are their matrix's three arrays read as CSC, so they copy
nothing. The arrays are set after construction because scipy's format check
silently copies a view shorter than half of its base and may widen int32
indices.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

_CHUNK = 1 << 16  # pairs binned or partitioned at once: their temporaries stay in cache


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


def _row_starts(rows, n: int) -> np.ndarray:
    """CSR row pointers of ascending row ids: where each of rows 0..n starts, in rows' dtype."""
    return np.searchsorted(rows, np.arange(n + 1, dtype=rows.dtype)).astype(rows.dtype)


def _lanes(most: int) -> tuple[int, int]:
    """(w, q): the bits of a lane that holds 0..most, and the lanes one int32 word holds."""
    w = max(int(most).bit_length(), 1)
    return w, max(31 // w, 1)


def _csr_and_csc(data, indices, indptr) -> tuple[sparse.csr_array, sparse.csc_array]:
    """A square CSR matrix and its transpose as CSC, both over the same three arrays."""
    size = indptr.size - 1
    pair = (sparse.csr_array((size, size)), sparse.csc_array((size, size)))
    for matrix in pair:
        matrix.data, matrix.indices, matrix.indptr = data, indices, indptr
    return pair


class _Listing:
    """One field's pair listing for a fixed set of radii, and the state its views share."""

    def __init__(self, positions: np.ndarray, radii: list[float]):
        self.positions = positions
        self.n = positions.shape[0]
        self.radii = radii  # sorted and unique: the last is the listing's own
        self.shared: list[np.ndarray] = []  # copies of the vectors packed q at a time
        self._word = None  # the current word as (lanes, w, tally)
        self.pairs = self._list()
        self.starts = _row_starts(self.pairs[0], self.n)  # shared by B and every U
        self.bins = self._bin() if len(radii) > 1 else None
        self.block = self._block()  # (B, B.T)
        self.counts = self.tally(np.ones(self.n, dtype=np.int32)).astype(np.int64)

    def _list(self) -> tuple[np.ndarray, np.ndarray]:
        """All pairs (i, j) with i < j within the widest radius, in (i, j) order, as int32."""
        raw = cKDTree(self.positions).query_pairs(self.radii[-1], output_type="ndarray")
        s = max(self.n - 1, 0).bit_length()  # bits of a sensor id in the key
        key = _sort_packed([(raw[:, 0], s), (raw[:, 1], s)])
        del raw
        i = key >> s
        key &= (1 << s) - 1
        # int32 ids halve the memory of the listing and its parts
        return tuple(ids.view(np.int32) if ids.itemsize == 4 else ids.astype(np.int32)
                     for ids in (i, key))

    def _bin(self) -> np.ndarray:
        """Each listed pair's count of the smaller radii that miss it.

        A pair the tree lists at the widest radius stays in its bin, so the
        widest radius's own test is never repeated on the listing.
        """
        i, j = self.pairs
        points = self.positions.view(np.complex128).ravel()  # one gather per endpoint
        out = np.zeros(i.size, dtype=np.min_scalar_type(len(self.radii) - 1))
        for start in range(0, i.size, _CHUNK):
            d = points.take(i[start:start + _CHUNK]) - points.take(j[start:start + _CHUNK])
            sq = d.real * d.real + d.imag * d.imag  # dx*dx + dy*dy, the tree's own test
            bins = out[start:start + _CHUNK]
            for r in self.radii[:-1]:
                bins += sq > r * r
        return out

    def _block(self) -> tuple[sparse.csr_array, sparse.csc_array]:
        """(B, B.T) over the listing's bins."""
        radii, n = len(self.radii), self.n
        j, starts = self.pairs[1], self.starts
        if radii == 1:  # one bin: B is the listing itself
            columns, indptr = j, starts
        else:
            itype = np.int32 if radii * n < 2**31 else np.int64
            bins = self.bins
            # the listing stably partitioned by bin: blocks[k] holds bin k's listing
            # positions, ascending, one piece per chunk, so the sort's buffer stays small
            blocks = [[np.empty(0, dtype=np.intp)] for _ in range(radii)]
            for start in range(0, bins.size, _CHUNK):
                chunk = bins[start:start + _CHUNK]
                local = np.argsort(chunk, kind="stable")
                cuts = np.searchsorted(chunk, np.arange(1, radii, dtype=bins.dtype), sorter=local)
                for pieces, piece in zip(blocks, np.split(local + start, cuts)):
                    pieces.append(piece)
            columns = np.empty(bins.size, dtype=itype)
            indptr = np.empty(radii * n + 1, dtype=itype)
            stop = 0
            for k, pieces in enumerate(blocks):  # block k: rows k*n + i, columns k*n + j
                block, pointers = self.part(np.concatenate(pieces))
                start, stop = stop, stop + block.size
                columns[start:stop] = block
                columns[start:stop] += k * n
                indptr[k * n:(k + 1) * n + 1] = start + pointers
            del blocks, block, pointers  # freed before B's data is allocated
        return _csr_and_csc(np.ones(columns.size, dtype=np.int32), columns, indptr)

    @cached_property
    def unit(self) -> np.ndarray:
        """The float64 ones that every U takes its data from."""
        return np.ones(self.pairs[0].size)

    def keep(self, k: int) -> np.ndarray:
        """Listing positions of the pairs of the k-th radius, ascending."""
        # an index array, not a mask: boolean indexing is three times slower
        # on bins that follow no order along the listing
        return np.flatnonzero(self.bins <= k)

    def part(self, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR column indices and row pointers, both int32, of the pairs at positions keep."""
        return self.pairs[1].take(keep), np.searchsorted(keep, self.starts).astype(np.int32)

    def tally(self, word: np.ndarray) -> np.ndarray:
        """(R, n) int32 sums of an int32 word over the neighbors at every radius."""
        upper, lower = self.block
        x = np.tile(word, len(self.radii))
        flat = upper @ x + lower @ x
        return np.cumsum(flat.reshape(len(self.radii), self.n), axis=0, dtype=np.int32)

    def lane(self, v: np.ndarray) -> tuple[int, int, np.ndarray]:
        """(lane, w, (R, n) tally) of a word that holds v.

        The current word answers when one of its lanes equals v. Otherwise
        the word is the q shared vectors whose group holds v, or v alone.
        """
        if self._word is not None:
            lanes, w, tally = self._word
            for lane, held in enumerate(lanes):
                if np.array_equal(held, v):
                    return lane, w, tally
        w, q = _lanes(self.counts[-1].max(initial=0))
        lanes, lane = [v.copy()], 0
        for k, held in enumerate(self.shared):
            if np.array_equal(held, v):
                lanes, lane = self.shared[k - k % q:k - k % q + q], k % q
                break
        self._word = None  # one word's tally alive at a time
        word = np.zeros(self.n, dtype=np.int32)
        for shift, held in enumerate(lanes):
            word |= held.astype(np.int32) << (w * shift)
        self._word = (lanes, w, self.tally(word))
        return lane, w, self._word[2]


class NeighborIndex:
    """View of a field's pair listing at its k-th radius."""

    def __init__(self, listing: _Listing, k: int):
        self._listing = listing
        self._k = k
        self.r = listing.radii[k]
        self._adjacency: tuple[sparse.csr_array, sparse.csc_array] | None = None  # (U, U.T)

    @property
    def positions(self) -> np.ndarray:
        return self._listing.positions

    @property
    def n(self) -> int:
        return self._listing.n

    @property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All unordered neighbor pairs (i, j) with i < j, distance <= r, in (i, j) order.

        A smaller radius's pairs are the listing's pairs whose radius bin is
        at most k: exactly the pairs of a fresh radius-r index, in the same
        order. A vote whose sums all come from the prefix tally never needs them.
        """
        listing = self._listing
        i, j = listing.pairs
        if self.r < listing.radii[-1]:
            keep = listing.keep(self._k)
            i, j = i.take(keep), j.take(keep)
        return i, j

    @property
    def counts(self) -> np.ndarray:
        """Neighbor count per sensor."""
        return self._listing.counts[self._k]

    def neighbors_within(self, s) -> np.ndarray:
        """Ids of all other sensors within the closed ball of radius r, ascending."""
        sid = int(s)
        if not 0 <= sid < self.n:
            raise IndexError(f"unknown sensor id {sid}")
        i, j = self.pairs
        return np.concatenate((i[j == sid], j[i == sid])).astype(np.int64)

    def share_tallies(self, vectors) -> None:
        """Hand over the boolean vectors that `count_sums` will be asked for.

        The listing keeps copies and tallies them q to a word, so the vectors
        of one word, at every radius, cost one pair of products.
        """
        self._listing.shared = [np.array(v, dtype=bool) for v in vectors]

    def count_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-sensor number of neighbors whose boolean value is true (exact).

        Every view reads its own radius's row of the listing's prefix tally of
        a word that holds the vector, and the vector's lane of it.
        """
        lane, w, tally = self._listing.lane(np.asarray(values, dtype=bool))
        return ((tally[self._k] >> (w * lane)) & ((1 << w) - 1)).astype(np.int64)

    def weighted_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-sensor sums of a real-valued per-neighbor quantity, U @ v + U.T @ v."""
        if self._adjacency is None:
            listing = self._listing
            if self.r < listing.radii[-1]:
                columns, indptr = listing.part(listing.keep(self._k))
            else:
                columns, indptr = listing.pairs[1], listing.starts
            self._adjacency = _csr_and_csc(listing.unit[:columns.size], columns, indptr)
        upper, lower = self._adjacency
        v = np.asarray(values, dtype=float)
        return upper @ v + lower @ v


def build_indexes(field, r_values) -> list[NeighborIndex]:
    """Views of one pair listing of a field, one per radius of r_values, in the order given.

    The listing is built at once for the sorted unique radii, so a field's
    pairs are listed, binned and tallied once. Equal radii share a view.
    """
    r_values = [float(r) for r in r_values]
    if not r_values or not all(r > 0 for r in r_values):
        raise ValueError("r must be positive")
    radii = sorted(set(r_values))
    positions = np.column_stack((field.x, field.y)).astype(np.float64, copy=False)
    listing = _Listing(positions, radii)
    views = {r: NeighborIndex(listing, k) for k, r in enumerate(radii)}
    return [views[r] for r in r_values]


def build_index(field, r: float) -> NeighborIndex:
    """Index a sensor field for radius-r neighbor queries."""
    return build_indexes(field, [r])[0]


def neighbors_within(index: NeighborIndex, s) -> np.ndarray:
    return index.neighbors_within(s)

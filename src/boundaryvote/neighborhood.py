"""Fixed-radius neighbor queries over a sensor field.

Neighborhoods are closed balls: sensors i and j are neighbors when
dx*dx + dy*dy <= r*r in float64, the listing's own test, so two sensors at
distance exactly r are neighbors. Each candidate pair's sum is computed
once, and the same value decides both the test and the pair's radius bin.

A field has one listing, built for a fixed, sorted set of unique radii. It
holds the tally blocks B below, the neighbor counts, the tally words and
one U, and nothing else: no (i, j) copy of its pairs and no bin per pair.
Pairs are packed into one unsigned key, decoded by shifts and masks. With s
the bit length of n - 1, the key is (i << s) | j. It is uint32 while
2s <= 32 and uint64 beyond, and a key past 64 bits raises OverflowError.
Sorting keys puts pairs in (i, j) order. A sorted key's row pointers, where
each sensor's pairs start, are found by `searchsorted` for i << s, and its
columns j are decoded in place, so a 32-bit key is its own int32 columns.
Every id, column and row pointer is int32, so a listing of 2**31 pairs, or
a field of 2**31 sensors, raises OverflowError before B is allocated. A
`NeighborIndex` is a view of the listing at its k-th radius;
`build_indexes` builds the listing and returns one view per radius.

The listing is a fixed-radius sweep over sorted x-strips (Bentley, Stanat &
Williams, IPL 6(6), 1977). Its reach is the float just above the largest t
with t*t <= r*r. A pair the test accepts has coordinate differences that
round to at most t, so they are below the reach; and a float past a
coordinate plus the reach, rounded to nearest, is past the exact sum. The
strips are half a reach wide, or wider, so that there are at most n + 1 of
them however small r is. The sensors are swept in (strip, y) order, the
order of strip * n plus their rank by y. A sensor's candidates are
contiguous ranges of that order, each found by `searchsorted`: the rest of
its own strip up to a reach above it, and the window from a reach below it
to a reach above it in each following strip up to the last one that a reach
along x touches. So the candidates hold every pair the test accepts, once,
whatever the sizes of r and of the coordinates, and the test then decides.
Candidates are tested a chunk at a time, with x and y kept as two arrays in
sweep order: each candidate's coordinates are gathered, and each owner's
are repeated over its ranges.

A pair's radius bin is the number of radii below the widest whose closed
ball misses it, by the test above, in the smallest unsigned type that holds
R - 1 (uint8 up to 256 radii). The radii that miss a pair are the smallest
ones, so the k-th radius's pairs are exactly those with bin <= k. Within
each chunk, the accepted keys are partitioned by bin, and each bin keeps one
piece per chunk. B's block k is bin k's pieces, joined, freed and sorted
once. A lone radius, R = 1, has one bin: its keys fill one buffer sized by
the candidate count, and sorted, they are block 0's columns, with no bin at
all.

The listing answers `count_sums` and `counts` for all of its radii from one
prefix tally. B is R separate n x n upper adjacencies, one block per radius
bin: block k, B_k, holds the pairs of bin k in (i, j) order, an entry at row
i, column j for each such pair i < j, with its own n + 1 row pointers. Row i
of B_k @ x + B_k.T @ x sums x over the neighbors of i in bin k, and the
cumulative sum of those R rows over k is every radius's sums. `counts` is
the tally of the all-ones vector. B and the counts are built with the
listing, and the tally words when their vectors are handed over; only U
waits for its first use.

B holds one int32 column per pair and nothing else per pair: every block's
`data` is a view of one int32 ones buffer the size of the largest block,
which on the paper's radii is the outer annulus, about a tenth of the
pairs. Beside them are R*(n + 1) int32 row pointers and the (R, n) int64
counts. A lambda = 10000 field on the paper's 20 radii holds about 6.1
bytes per pair once it is built, and its build peaks at about 8.7, as
tracemalloc counts them.

A radius's CSR arrays are built in one place, the listing's U at that
radius, and a view reads only B and that U. At k = 0, for any number of
radii, U's arrays are B's block 0: its columns and its row pointers. At
k >= 1 the keys of B's blocks 0..k are rebuilt, block by block, into one
buffer, which is sorted once into (i, j) order. A view's pairs are U's
columns beside the rows repeated by the row pointers, so no view keeps its
i, and repeated reads at one radius sort at most once. The columns and the
counts a view hands back are read-only, so writing into them cannot change
B or a later sum.

A tally word carries several 0/1 vectors at once. Every neighbor count at
every radius is at most M, the widest radius's largest count, so a 0/1
vector fits in a w-bit lane, w = M.bit_length(), and q = 31 // w lanes fit
one int32 word: lane l of the word holds vector l shifted left by w*l. Each
bin's int32 products and the prefix sum add lanes without a carry crossing
one, because every partial sum of a lane, a bin's sum among them, is
nonnegative and at most the lane's final count, which is at most M < 2**w;
so (row >> w*l) & (2**w - 1) is vector l's exact sums. The vectors handed
to `share_tallies` are packed q at a time, in the order given, and each word
is tallied at once, so it is tallied once whatever order the views ask in.
The listing keeps the (R, n) tally of every word until vectors are handed
over again, ceil(V/q)*R*n*4 bytes for V vectors, and finds each vector's
word and lane by the vector's bytes. So a copy of a vector is answered from
its word, and a vector changed in place is never answered from a stale
tally. A vector that was not handed over is shared alone, in place of those
before it.

Multi-round voting sums real scores with two sparse matrix-vector products,
`weighted_sums(v) = U @ v + U.T @ v`. U is the upper adjacency in CSR form:
row i holds the neighbors j > i in ascending order. Row i of U @ v adds v[j]
over j ascending, and the CSC product adds v[i] into row j over i
ascending: the order in which two weighted `bincount`s over the (i, j)
ordered pairs add them, so the sums are the same bit for bit. One symmetric
matrix U + U.T would interleave the two halves of each row and round
differently, which can flip a tie at an exact-zero score. The listing holds
one U, the last one asked for, and drops it before it builds another, so
one U is alive at a time and a caller that runs the views radius by radius
builds each U once. Each U has its own float64 ones as its `data`.

Each B_k.T and U.T is its matrix's three arrays read as CSC, so it copies
nothing. The arrays are set after construction because scipy's format check
silently copies a view shorter than half of its base, as most blocks' ones
are, and may widen int32 indices.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import sparse

_CHUNK = 1 << 16  # candidates tested at once: kept in cache


def _key_type(bits: int) -> type:
    """The unsigned type of a packed key of this many bits: uint32 up to 32, uint64 up to 64.

    A wider key would wrap, so it raises.
    """
    if bits > 64:
        raise OverflowError(f"a {bits}-bit sort key does not fit 64 bits")
    return np.uint32 if bits <= 32 else np.uint64


def _bin_type(radii: int) -> np.dtype:
    """The smallest unsigned type that holds a radius bin, 0..radii - 1."""
    return np.min_scalar_type(radii - 1)


def _sorted_csr(key: np.ndarray, s: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """int32 CSR column ids and row pointers of packed keys (i << s) | j with i < n.

    Sorts and decodes key in place, so a 32-bit key's columns are its own
    memory. Row i starts at the first key >= i << s.
    """
    key.sort()
    indptr = np.empty(n + 1, dtype=np.int32)
    indptr[:n] = np.searchsorted(key, np.arange(n, dtype=key.dtype) << s)
    indptr[n] = key.size  # n << s may not fit the key
    key &= (1 << s) - 1
    return key.view(np.int32) if key.itemsize == 4 else key.astype(np.int32), indptr


def _reach(r2: float) -> float:
    """A float above |b - a| of the coordinates of every pair with dx*dx + dy*dy <= r2.

    t*t rounds monotonically in t >= 0, and nonnegative floats order as their
    bits, so a bisection on the bits finds the largest float t with
    t*t <= r2, also where r2 underflowed to 0. A difference b - a that rounds
    to at most t is at most half an ulp above t, so below the next float.
    """
    low, high = 0, 0x7FEFFFFFFFFFFFFF  # the bits of 0.0 and of the largest finite float
    while low < high:
        mid = (low + high + 1) // 2
        t = float(np.int64(mid).view(np.float64))
        low, high = (mid, high) if t * t <= r2 else (low, mid - 1)
    return math.nextafter(float(np.int64(low).view(np.float64)), math.inf)


def _sweep(positions: np.ndarray, reach: float) -> tuple[np.ndarray, ...]:
    """Sensors in (strip, y) order, and the ranges of that order that hold their candidates.

    Returns order, the sensor at each sweep position, their x and y in that
    order, and three arrays with one entry per nonempty range: its first
    position, its length, and the position of the sensor whose candidates
    it holds.
    """
    n = positions.shape[0]
    x, y = positions.T
    left = x.min(initial=math.inf)
    width = max(reach / 2, (x.max(initial=-math.inf) - left) / max(n, 1))
    strip = ((x - left) / width).astype(np.int64)  # monotone in x, at most n + 1
    by_y = np.argsort(y, kind="stable")
    ys = y.take(by_y)
    rank = np.empty(n, dtype=np.int64)
    rank[by_y] = np.arange(n)
    cell = strip * n + rank
    order = np.argsort(cell)
    cell, strip, x, y = (values.take(order) for values in (cell, strip, x, y))
    # each sensor's window as y ranks, and the last strip that a reach along x touches
    low = np.searchsorted(ys, y - reach)
    high = np.searchsorted(ys, y + reach, side="right")
    far = strip.take(np.searchsorted(np.sort(x), x + reach, side="right") - 1)
    starts, stops, owners = [], [], []
    for step in range(int((far - strip).max(initial=0)) + 1):
        near = np.flatnonzero(far - strip >= step)  # at step 0, every sensor
        row = (strip.take(near) + step) * n
        # in its own strip, a sensor's candidates start right after it
        starts.append(np.searchsorted(cell, row + low.take(near)) if step else near + 1)
        stops.append(np.searchsorted(cell, row + high.take(near)))
        owners.append(near)
    starts, owners = np.concatenate(starts), np.concatenate(owners)
    sizes = np.concatenate(stops) - starts
    busy = np.flatnonzero(sizes)
    return order, x, y, starts.take(busy), sizes.take(busy), owners.take(busy)


def _check_int32(most: int) -> None:
    """Raise unless every id, listing position and row pointer up to most fits int32.

    They would wrap, so a listing of 2**31 pairs, or of 2**31 sensors, raises.
    """
    if most >= 2**31:
        raise OverflowError(f"{most} ids or pairs do not fit int32")


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
        self.n = positions.shape[0]
        self.radii = radii  # sorted and unique: the last is the listing's own
        self.s = max(self.n - 1, 0).bit_length()  # bits of a sensor id in a packed key
        self.key_type = _key_type(2 * self.s)
        self.blocks = self._block(self._list(positions))  # (B_k, B_k.T) per bin
        self.counts = self.tally(np.ones(self.n, dtype=np.int32)).astype(np.int64)
        self.counts.flags.writeable = False  # so is each view's row of it
        self.w, self.q = _lanes(self.counts[-1].max(initial=0))
        self._upper = None  # the one U held, as (k, U, U.T)
        self.share([])

    def _list(self, positions: np.ndarray) -> list[list[np.ndarray]]:
        """Packed keys (i << s) | j of all pairs i < j within the widest radius, by radius bin.

        A pair's bin is the number of smaller radii whose closed ball misses
        it, from the squared distance that the widest radius's test has just
        computed. Each bin's keys come in pieces, one per chunk, in no order.
        One radius fills one buffer sized by the candidate count instead.
        """
        radii, s, key_type = self.radii, self.s, self.key_type
        r2 = radii[-1] * radii[-1]
        order, x, y, starts, sizes, owners = _sweep(positions, _reach(r2))
        ids = order.astype(key_type)
        ends = np.cumsum(sizes)  # candidates through each range
        keys = np.empty(ends[-1] if ends.size and len(radii) == 1 else 0, dtype=key_type)
        blocks = [[np.empty(0, dtype=key_type)] for _ in radii]  # each bin's key pieces
        filled = done = first = 0
        while first < ends.size:  # ranges first..last - 1 hold about _CHUNK candidates
            last = max(int(np.searchsorted(ends, done + _CHUNK, side="right")), first + 1)
            size, mine = sizes[first:last], owners[first:last]
            offsets = starts[first:last] - (ends[first:last] - size - done)
            at = np.repeat(offsets, size) + np.arange(ends[last - 1] - done)
            dx, dy = x.take(at), y.take(at)
            dx -= np.repeat(x.take(mine), size)
            dy -= np.repeat(y.take(mine), size)
            dx *= dx
            dy *= dy
            dx += dy  # dx*dx + dy*dy, the closed-ball test's sum
            hit = np.flatnonzero(dx <= r2)
            a, b = np.repeat(ids.take(mine), size).take(hit), ids.take(at.take(hit))
            key = np.minimum(a, b)
            key <<= s
            key |= np.maximum(a, b)
            if len(radii) > 1:
                sq, bins = dx.take(hit), np.zeros(hit.size, dtype=_bin_type(len(radii)))
                for r in radii[:-1]:
                    bins += sq > r * r
                grouped = np.argsort(bins, kind="stable")
                firsts = np.arange(1, len(radii), dtype=bins.dtype)  # each later bin's first
                cuts = np.searchsorted(bins, firsts, sorter=grouped)
                for pieces, piece in zip(blocks, np.split(key.take(grouped), cuts)):
                    pieces.append(piece)
            else:
                keys[filled:filled + key.size] = key
                filled += key.size
            done, first = int(ends[last - 1]), last
        if len(radii) == 1:
            blocks[0].append(keys[:filled])
        return blocks

    def _block(self, blocks: list[list[np.ndarray]]) -> list:
        """[(B_k, B_k.T)] from each bin's key pieces, which are freed as their block is built.

        Block k holds bin k's pairs, sorted, with columns j and its own n + 1
        row pointers. A 32-bit key is sorted and decoded in its own memory.
        Every block's data is a view of one int32 ones buffer, built last.
        """
        n, s = self.n, self.s
        sizes = [sum(piece.size for piece in pieces) for pieces in blocks]
        _check_int32(max(sum(sizes), n))
        arrays = []
        for k in range(len(blocks)):
            key = np.concatenate(blocks[k])
            blocks[k] = None
            columns, indptr = _sorted_csr(key, s, n)
            columns.flags.writeable = False  # so are U's at k = 0
            arrays.append((columns, indptr))
        ones = np.ones(max(sizes), dtype=np.int32)
        return [_csr_and_csc(ones[:size], *block) for size, block in zip(sizes, arrays)]

    def upper(self, k: int) -> tuple[sparse.csr_array, sparse.csc_array]:
        """(U, U.T) at the k-th radius: the one U held, built when another radius asks.

        U is the only place a radius's CSR arrays are built: B's blocks 0..k in
        (i, j) order, at k = 0 B's block 0 itself, and otherwise those blocks'
        keys rebuilt into one buffer and sorted once. The old U is dropped
        before the new one is built, so one U is alive at a time. Each U has
        its own float64 ones as its data, and read-only columns.
        """
        if self._upper is None or self._upper[0] != k:
            self._upper = None
            # the ones before the keys: in this order a lambda = 10000 multi
            # sweep peaked about 8 MB lower in resident memory
            ones = np.ones(int(self.counts[k].sum()) // 2)
            n, s, first = self.n, self.s, self.blocks[0][0]
            columns, indptr = first.indices, first.indptr
            if k:
                key = np.empty(ones.size, dtype=self.key_type)
                rows = np.arange(n, dtype=key.dtype) << s
                stop = 0
                for block, _ in self.blocks[:k + 1]:
                    start, stop = stop, stop + block.indices.size
                    key[start:stop] = block.indices
                    key[start:stop] |= np.repeat(rows, np.diff(block.indptr))
                columns, indptr = _sorted_csr(key, s, n)
                columns.flags.writeable = False
            self._upper = (k, *_csr_and_csc(ones, columns, indptr))
        return self._upper[1:]

    def tally(self, word: np.ndarray) -> np.ndarray:
        """(R, n) int32 sums of an int32 word over the neighbors at every radius.

        Row k is the cumulative sum over bins 0..k of B_k @ word + B_k.T @ word.
        """
        sums = np.empty((len(self.blocks), self.n), dtype=np.int32)
        for row, (upper, lower) in zip(sums, self.blocks):
            np.add(upper @ word, lower @ word, out=row)
        return np.cumsum(sums, axis=0, out=sums)

    def share(self, vectors) -> None:
        """Tally the 0/1 vectors q to a word, in the order given, in place of every earlier word.

        Lane l of a word holds its l-th vector shifted left by w*l. Each
        vector's bytes map to its (lane, (R, n) tally of its word).
        """
        vectors = [np.asarray(v, dtype=bool) for v in vectors]
        self.words = {}
        for first in range(0, len(vectors), self.q):
            group = vectors[first:first + self.q]
            word = np.zeros(self.n, dtype=np.int32)
            for lane, v in enumerate(group):
                word |= v.astype(np.int32) << (self.w * lane)
            tally = self.tally(word)
            self.words.update((v.tobytes(), (lane, tally)) for lane, v in enumerate(group))

    def lane(self, v: np.ndarray) -> tuple[int, np.ndarray]:
        """(lane, (R, n) tally) of the word that holds a vector with v's bytes.

        A vector that was not handed over is shared alone.
        """
        key = v.tobytes()
        if key not in self.words:
            self.share([v])
        return self.words[key]


class NeighborIndex:
    """View of a field's pair listing at its k-th radius."""

    def __init__(self, listing: _Listing, k: int):
        self._listing = listing
        self._k = k
        self.r = listing.radii[k]

    @property
    def n(self) -> int:
        return self._listing.n

    @property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All unordered neighbor pairs (i, j) with i < j, distance <= r, in (i, j) order.

        They are the arrays of the U the listing holds at this radius: its
        read-only columns, beside each row id repeated by its row's length,
        so repeated reads build U once. A smaller radius's pairs are the
        listing's pairs whose radius bin is at most k: exactly the pairs of a
        fresh radius-r index, in the same order. A vote whose sums all come
        from the prefix tally never needs them.
        """
        upper, _ = self._listing.upper(self._k)
        return np.repeat(np.arange(self.n, dtype=np.int32), np.diff(upper.indptr)), upper.indices

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

        The listing tallies them q to a word at once, so the vectors of one
        word, at every radius, cost one pair of products, and it finds each
        vector asked for by its bytes.
        """
        self._listing.share(vectors)

    def count_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-sensor number of neighbors whose boolean value is true (exact).

        Every view reads its own radius's row of the listing's prefix tally of
        a word that holds the vector, and the vector's lane of it.
        """
        lane, tally = self._listing.lane(np.asarray(values, dtype=bool))
        w = self._listing.w
        return ((tally[self._k] >> (w * lane)) & ((1 << w) - 1)).astype(np.int64)

    def weighted_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-sensor sums of a real-valued per-neighbor quantity, U @ v + U.T @ v."""
        upper, lower = self._listing.upper(self._k)
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

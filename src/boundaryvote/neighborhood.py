"""Fixed-radius neighbor queries over a sensor field.

Neighborhoods are closed balls: sensors i and j are neighbors when
dx*dx + dy*dy <= r*r in float64, the listing's own test, so two sensors at
distance exactly r are neighbors. One expression computes it, for the
listing and for its radius bins.

A field has one listing, built for a fixed, sorted set of unique radii:
its pairs (i, j), i < j, at the widest radius, as int32 ids. They are
sorted once, on one packed unsigned key decoded by shifts and masks. With s
the bit length of n - 1, the key is (i << s) | j. It is uint32 while
2s <= 32 and uint64 beyond, and a key past 64 bits raises OverflowError.
The listing's row pointers, where each sensor's pairs start, are computed
once. A `NeighborIndex` is a view of the listing at its k-th radius;
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
Candidates are tested a chunk at a time, and the keys of the accepted ones
fill one buffer sized by the candidate count.

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
Positions are int32 while the listing has fewer than 2**31 pairs, and they
are found and gathered a chunk at a time, so no listing-sized int64 array is
made.

The listing answers `count_sums` and `counts` for all of its radii from one
prefix tally. B is the (R*n, R*n) block-diagonal upper adjacency whose block
k holds the pairs of bin k: an entry at row k*n + i, column k*n + j for each
such pair i < j, so it has one entry per pair. B's CSR order is the listing
stably partitioned by bin, so block k is the part of bin k's positions. With
x a vector tiled R times, row k*n + i of B @ x + B.T @ x sums x over the
neighbors of i in bin k. The cumulative sum over the radius axis of that
(R, n) result is every radius's sums. `counts` is the tally of the all-ones
vector. The listing, its bins, B and the counts are built with the listing;
only U and the tally words wait for their first use. A lone radius is the
case R = 1: every pair is in bin 0, so B is the listing itself, with U's
column indices and row pointers and int32 entries, and no pair is binned.

A tally word carries several 0/1 vectors at once. Every neighbor count at
every radius is at most M, the widest radius's largest count, so a 0/1
vector fits in a w-bit lane, w = M.bit_length(), and q = 31 // w lanes fit
one int32 word: lane l of the word holds vector l shifted left by w*l. The
int32 products and the prefix sum add lanes without a carry crossing one,
because every partial sum of a lane is nonnegative and at most the lane's
final count, which is at most M < 2**w; so (row >> w*l) & (2**w - 1) is
vector l's exact sums. The vectors handed to `share_tallies` are packed q at
a time, in the order given, and any other vector is a one-lane word. The
listing keeps the (R, n) tally of every word of shared vectors from its
first use until `share_tallies` is called again, so each word is tallied
once whatever order the views ask in; for V shared vectors that costs
ceil(V/q)*R*n*4 bytes. It keeps one unshared vector's tally, the last one
asked for. A vector is answered from a word only when it equals one of the
copies in its lanes, so a vector changed in place is never answered from a
stale tally.

Multi-round voting sums real scores with two sparse matrix-vector products,
`weighted_sums(v) = U @ v + U.T @ v`. U is the upper adjacency in CSR form:
row i holds the neighbors j > i in ascending order. The widest view's U is
the listing itself, and a smaller view's U is the part at its positions.
Row i of U @ v adds v[j] over j ascending, and the CSC product adds v[i]
into row j over i ascending: the order in which two weighted `bincount`s
over the listing add them, so the sums are the same bit for bit. One
symmetric matrix U + U.T would interleave the two halves of each row and
round differently, which can flip a tie at an exact-zero score. The listing
holds one U, the last one asked for, and drops it before it builds another,
so one U is alive at a time and a caller that runs the views radius by
radius builds each U once. Each U has its own float64 ones as its `data`.

B.T and U.T are their matrix's three arrays read as CSC, so they copy
nothing. The arrays are set after construction because scipy's format check
silently copies a view shorter than half of its base and may widen int32
indices.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import sparse

_CHUNK = 1 << 16  # candidates tested, or pairs binned or partitioned, at once: kept in cache


def _key_type(bits: int) -> type:
    """The unsigned type of a packed key of this many bits: uint32 up to 32, uint64 up to 64.

    A wider key would wrap, so it raises.
    """
    if bits > 64:
        raise OverflowError(f"a {bits}-bit sort key does not fit 64 bits")
    return np.uint32 if bits <= 32 else np.uint64


def _sorted_pairs(key: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """int32 ids (i, j) of packed keys (i << s) | j in ascending key order; sorts key in place."""
    key.sort()
    i = key >> s
    key &= (1 << s) - 1
    # int32 ids halve the memory of the listing and its parts
    return tuple(ids.view(np.int32) if ids.itemsize == 4 else ids.astype(np.int32)
                 for ids in (i, key))


def _squared_distances(points: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """dx*dx + dy*dy between the complex points at ids i and j: the closed-ball test's sum."""
    d = points.take(i) - points.take(j)  # one gather per endpoint
    return d.real * d.real + d.imag * d.imag


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

    Returns order, the sensor at each sweep position, and three arrays with
    one entry per nonempty range: its first position, its length, and the
    position of the sensor whose candidates it holds.
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
    return order, starts.take(busy), sizes.take(busy), owners.take(busy)


def _row_starts(rows, n: int) -> np.ndarray:
    """CSR row pointers of ascending row ids: where each of rows 0..n starts, in rows' dtype."""
    return np.searchsorted(rows, np.arange(n + 1, dtype=rows.dtype)).astype(rows.dtype)


def _lanes(most: int) -> tuple[int, int]:
    """(w, q): the bits of a lane that holds 0..most, and the lanes one int32 word holds."""
    w = max(int(most).bit_length(), 1)
    return w, max(31 // w, 1)


def _index_type(most: int) -> type:
    """int32 for indices and positions up to most while it is below 2**31, else int64."""
    return np.int32 if most < 2**31 else np.int64


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
        self.pairs = self._list()
        self.itype = _index_type(self.pairs[0].size)  # of listing positions
        self.starts = _row_starts(self.pairs[0], self.n)  # shared by B and every U
        self.bins = self._bin() if len(radii) > 1 else None
        self.block = self._block()  # (B, B.T)
        self.counts = self.tally(np.ones(self.n, dtype=np.int32)).astype(np.int64)
        self.w, self.q = _lanes(self.counts[-1].max(initial=0))
        self._upper = None  # the one U held, as (k, U, U.T)
        self._alone = None  # the last unshared vector's (copy, tally)
        self.share([])

    def _list(self) -> tuple[np.ndarray, np.ndarray]:
        """All pairs (i, j) with i < j within the widest radius, in (i, j) order, as int32."""
        r = self.radii[-1]
        s = max(self.n - 1, 0).bit_length()  # bits of a sensor id in the key
        key_type = _key_type(2 * s)
        order, starts, sizes, owners = _sweep(self.positions, _reach(r * r))
        points = self.positions.view(np.complex128).ravel().take(order)  # in sweep order
        ids = order.astype(key_type)
        ends = np.cumsum(sizes)  # candidates through each range
        keys = np.empty(ends[-1] if ends.size else 0, dtype=key_type)
        filled = done = first = 0
        while first < ends.size:  # ranges first..last - 1 hold about _CHUNK candidates
            last = max(int(np.searchsorted(ends, done + _CHUNK, side="right")), first + 1)
            size = sizes[first:last]
            offsets = starts[first:last] - (ends[first:last] - size - done)
            at = np.repeat(offsets, size) + np.arange(ends[last - 1] - done)
            own = np.repeat(owners[first:last], size)
            hit = _squared_distances(points, own, at) <= r * r
            a, b = ids.take(own), ids.take(at)
            key = np.minimum(a, b)
            key <<= s
            key |= np.maximum(a, b)
            fill = slice(filled, filled + np.count_nonzero(hit))
            keys[fill] = key[hit]
            filled, done, first = fill.stop, int(ends[last - 1]), last
        key = keys[:filled].copy()
        del keys  # freed before the sort
        return _sorted_pairs(key, s)

    def _bin(self) -> np.ndarray:
        """Each listed pair's count of the smaller radii that miss it.

        A pair listed at the widest radius stays in its bin, so the widest
        radius's own test is never repeated on the listing.
        """
        i, j = self.pairs
        points = self.positions.view(np.complex128).ravel()
        out = np.zeros(i.size, dtype=np.min_scalar_type(len(self.radii) - 1))
        for start in range(0, i.size, _CHUNK):
            sq = _squared_distances(points, i[start:start + _CHUNK], j[start:start + _CHUNK])
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
            bins = self.bins
            itype = _index_type(max(radii * n, bins.size))
            # the listing stably partitioned by bin: blocks[k] holds bin k's listing
            # positions, ascending, one piece per chunk, so the sort's buffer stays small
            blocks = [[np.empty(0, dtype=self.itype)] for _ in range(radii)]
            for start in range(0, bins.size, _CHUNK):
                chunk = bins[start:start + _CHUNK]
                local = np.argsort(chunk, kind="stable")
                cuts = np.searchsorted(chunk, np.arange(1, radii, dtype=bins.dtype), sorter=local)
                local += start
                for pieces, piece in zip(blocks, np.split(local.astype(self.itype), cuts)):
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

    def keep(self, k: int) -> np.ndarray:
        """Listing positions of the pairs of the k-th radius, ascending, as itype.

        They fill an array sized by the radius's pair count a chunk at a time,
        so no listing-sized temporary is made.
        """
        keep = np.empty(int(self.counts[k].sum()) // 2, dtype=self.itype)
        filled = 0
        for start in range(0, self.bins.size, _CHUNK):
            # an index array, not a mask: boolean indexing is three times slower
            # on bins that follow no order along the listing
            at = np.flatnonzero(self.bins[start:start + _CHUNK] <= k)
            at += start
            keep[filled:filled + at.size] = at
            filled += at.size
        return keep

    def part(self, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR column indices and row pointers, both int32, of the pairs at positions keep."""
        columns = np.empty(keep.size, dtype=np.int32)
        for start in range(0, keep.size, _CHUNK):  # take copies its indices to intp
            columns[start:start + _CHUNK] = self.pairs[1].take(keep[start:start + _CHUNK])
        return columns, np.searchsorted(keep, self.starts).astype(np.int32)

    def upper(self, k: int) -> tuple[sparse.csr_array, sparse.csc_array]:
        """(U, U.T) at the k-th radius: the one U held, built when another radius asks.

        The old U is dropped before the new one is built, so one U is alive
        at a time, and each U has its own float64 ones as its data.
        """
        if self._upper is None or self._upper[0] != k:
            self._upper = None
            # the ones before the part: in this order a lambda = 10000 multi
            # sweep peaked about 8 MB lower in resident memory
            ones = np.ones(int(self.counts[k].sum()) // 2)
            if k == len(self.radii) - 1:  # the widest U is the listing itself
                columns, indptr = self.pairs[1], self.starts
            else:
                columns, indptr = self.part(self.keep(k))
            self._upper = (k, *_csr_and_csc(ones, columns, indptr))
        return self._upper[1:]

    def tally(self, word: np.ndarray) -> np.ndarray:
        """(R, n) int32 sums of an int32 word over the neighbors at every radius."""
        upper, lower = self.block
        x = np.tile(word, len(self.radii))
        flat = upper @ x + lower @ x
        return np.cumsum(flat.reshape(len(self.radii), self.n), axis=0, dtype=np.int32)

    def share(self, vectors) -> None:
        """Keep copies of the vectors to pack q to a word, and forget every word's tally."""
        self.shared = [np.array(v, dtype=bool) for v in vectors]
        self._tallies = {}

    def _pack(self, lanes) -> np.ndarray:
        """The (R, n) tally of one int32 word that holds the 0/1 vectors lanes, in order."""
        word = np.zeros(self.n, dtype=np.int32)
        for shift, held in enumerate(lanes):
            word |= held.astype(np.int32) << (self.w * shift)
        return self.tally(word)

    def lane(self, v: np.ndarray) -> tuple[int, np.ndarray]:
        """(lane, (R, n) tally) of a word that holds v.

        A shared vector is answered from its group's word, tallied at its
        first use and kept. Any other vector is a one-lane word, kept until
        another one is asked for.
        """
        q = self.q
        for k, held in enumerate(self.shared):
            if np.array_equal(held, v):
                word = k // q
                if word not in self._tallies:
                    self._tallies[word] = self._pack(self.shared[word * q:word * q + q])
                return k % q, self._tallies[word]
        if self._alone is None or not np.array_equal(self._alone[0], v):
            self._alone = None  # one unshared vector's tally alive at a time
            self._alone = (v.copy(), self._pack([v]))
        return 0, self._alone[1]


class NeighborIndex:
    """View of a field's pair listing at its k-th radius."""

    def __init__(self, listing: _Listing, k: int):
        self._listing = listing
        self._k = k
        self.r = listing.radii[k]

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

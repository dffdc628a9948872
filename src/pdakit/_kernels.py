"""The same-symbol pair scan behind condition C3.

It is the hot inner loop of the C3 classifier in ``core``, which the
validity checker and the decoder's cache audit both read.  For a symbol
with g cells, C3 says that the g x g block ``grid[rows, cols]`` over its
cells is a star off its diagonal: entry (p, q) of the block is the cross
cell (row of cell p, column of cell q).  The grid may be any array whose
non-zero cells are the non-stars; a one-byte mask ``grid != STAR`` makes
each gathered entry one byte.

The scan takes the groups of one size g together and works them under two
budgets of block entries.  Its clean check, the whole scan of a valid
array, takes n = min(groups, CLEAN_CELLS // g) groups at a time and builds
their row and column blocks once, as (g, n) arrays: the groups are the last
axis, so numpy's inner loops run over n groups, not over the g entries of
one block.  It gathers their blocks in tiles of at most CLEAN_CELLS
entries, laid out as (h block rows, w block columns, n groups), with as
many block rows as fit.  A tile whose only non-stars are its diagonal
cells holds no fault and costs one count, so a valid array costs one
gather of each block, and its chunk arrays and tile index, each of at most
CLEAN_CELLS int64 entries (256 KiB), fit together in a 2 MiB L2 cache.

The pair work takes the groups min(groups, CHUNK_CELLS // g) at a time, in
tiles of at most CHUNK_CELLS entries, each laid out as above.  When some
clean tile of such a chunk fails its count, the scan builds the chunk's
blocks and, on first use, its tile index, and works the chunk again so
that each pair p < q is seen once, in the band of p: a tile of block rows p
and block columns q >= p gathers both cross cells, (row p, column q)
and (row q, column p).  Each such tile adds its exact C3a and C3b counts and
the decoder's notes per user, and offers its bad pairs to three bounded
sets: the ``listed`` smallest row-major keys of each condition, and the
first ``listed`` pairs in table order.  A set that is full takes only keys
below its largest, and a tile whose smallest possible key is not below it
offers none, so memory is one tile plus the kept keys, however many pairs
are bad, and no pair is ever a Python object.
"""

from dataclasses import dataclass

import numpy as np

# the most block entries one tile of the clean check gathers
CLEAN_CELLS = 1 << 15
# the most block entries one tile of the pair work gathers; its tiles cost
# Python per tile, so they are the larger
CHUNK_CELLS = 1 << 18

_LOW32 = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class PairScan:
    """The pairs breaking C3, counted, with a few of them kept.

    ``c3a`` counts the bad pairs that share a row or a column, ``c3b`` the
    others; ``len()`` is their sum.  ``notes`` holds, per user (column), the
    notes of the decoder's cache audit over all bad pairs: one for user k of
    each pair of two cells in column k, and otherwise one for user c2 when
    the cross cell (r1, c2) is not a star and one for user c1 when (r2, c1)
    is not.  ``by_place`` holds the kept C3a and C3b pairs, each ascending
    by the key (r1 * K + c1) << 32 | (r2 * K + c2); ``first`` holds the first
    pairs in table order.  Each is an (m, 4) int64 array of 0-based
    (r1, c1, r2, c2), where (r1, c1) is the pair's cell that comes first in
    the table, and m is at most the scan's ``listed``.
    """

    c3a: int
    c3b: int
    notes: np.ndarray
    by_place: tuple
    first: np.ndarray

    def __len__(self) -> int:
        return self.c3a + self.c3b


class _Smallest:
    """The ``size`` smallest of the distinct uint64 keys offered so far."""

    def __init__(self, size: int):
        self.size = size
        self.keys = np.empty(0, dtype=np.uint64)

    def top(self):
        """The least key that cannot enter, or None while there is room."""
        if self.keys.size < self.size:
            return None
        return self.keys.max() if self.size else np.uint64(0)

    def offer(self, high, low, mask):
        """Offer the keys high[p, j] + low[q, j] of the tile entries
        (p, q, j) that ``mask`` flags.

        Each row's high part is its own and orders its keys before those of
        every row with a larger one, so only the rows of the smallest high
        parts that flag ``size`` entries between them are read."""
        top = self.top()
        if top is not None and high.min() >= top:
            return
        counts = np.count_nonzero(mask, axis=1)
        rows = np.argsort(high, axis=None)
        counts = counts.ravel()[rows]
        end = int(np.searchsorted(np.cumsum(counts), self.size)) + 1
        rows = rows[:end][counts[:end] > 0]
        p, j = np.divmod(rows, high.shape[1])
        i, q = np.nonzero(mask[p, :, j])
        j = j[i]
        keys = np.concatenate((self.keys, high[p[i], j] + low[q, j]))
        if keys.size > self.size:
            keys = np.partition(keys, self.size - 1)[:self.size]
        self.keys = keys


def _tile(g, groups, budget):
    """(n groups, h block rows, w block columns) of a tile of at most
    ``budget`` entries over ``groups`` groups of g cells."""
    w = min(g, budget)
    n = max(1, min(groups, budget // g))
    return n, max(1, min(g, budget // (w * n))), w


def _blocks(rows, cols, width, span, base):
    """The (g, n) row offsets and columns of the groups that start at
    ``base``, g = ``span.size`` cells each."""
    cells = span[:, None] + base
    at = rows[cells]
    at *= width
    return at, cols[cells]


def _clean(flat, at, col, index) -> bool:
    """True when no off-diagonal entry of the groups' blocks is non-zero.

    ``at`` and ``col`` are the (g, n) row offsets and columns of n groups
    of g cells; ``index`` is room for one tile's offsets, which sets the
    tile."""
    g, n = at.shape
    _, h, w = _tile(g, n, index.size)
    for a in range(0, g, h):
        ra = at[a:a + h, None, :]
        for b in range(0, g, w):
            cb = col[None, b:b + w, :]
            x = index[:ra.shape[0] * cb.shape[1] * n]
            x = x.reshape(ra.shape[0], cb.shape[1], n)
            np.add(ra, cb, out=x)
            # the diagonal entries are the groups' own cells
            diag = max(0, min(a + h, b + w, g) - max(a, b))
            if np.count_nonzero(flat[x]) != n * diag:
                return False
    return True


def c3_pair_scan(grid, rows, cols, starts, listed):
    """Count and keep the same-symbol pairs that break C3, as a PairScan.

    A pair is bad when one of the two cross cells (j1, k2), (j2, k1) of the
    rectangle it spans is not a star.  A pair sharing a row or a column has
    its own cells as cross cells, so it is always bad.  ``grid`` is the
    array, or any array of its shape that is non-zero exactly at its
    non-star cells, such as the bool mask ``grid != STAR``.  ``rows`` and
    ``cols`` hold the non-star cells grouped by symbol; ``starts`` bounds the
    groups.  A pair's cells are ordered by their place in ``rows`` and
    ``cols``, and table order is by group, then by the place of the first
    cell, then of the second.  Each kept set holds at most ``listed`` pairs.
    """
    nnz = rows.shape[0]
    flat = grid.ravel()
    width = grid.shape[1]
    counts = np.diff(starts)
    found = [0, 0]
    notes = np.zeros(width)
    c3a, c3b, leading = (_Smallest(listed) for _ in range(3))
    # the group sizes present, from 2 up
    for g in (np.flatnonzero(np.bincount(counts)[2:]) + 2).tolist():
        groups = starts[:-1][counts == g]
        span = np.arange(g)
        # tiles: h block rows x w block columns x n groups
        n, h, w = _tile(g, groups.size, CLEAN_CELLS)
        clean_index = np.empty(h * w * n, dtype=np.int64)
        chunk, h, w = _tile(g, groups.size, CHUNK_CELLS)
        index = None
        for i in range(0, groups.size, chunk):
            base = groups[i:i + chunk]
            if all(_clean(flat, *_blocks(rows, cols, width, span,
                                         base[j:j + n]), clean_index)
                   for j in range(0, base.size, n)):
                continue
            at, col = _blocks(rows, cols, width, span, base)
            if index is None:
                index = np.empty(h * w * chunk, dtype=np.int64)
            m = base.size
            # the row-major place and table index of each cell, as keys
            place = (at + col).astype(np.uint64)
            order = (span[:, None] + base).astype(np.uint64)
            # the notes for each cell's user
            mine = np.zeros((g, m), dtype=np.int32)
            for a in range(0, g, h):
                e = min(a + h, g)
                ra, ca = at[a:e, None, :], col[a:e, None, :]
                # the keys' high parts: the first cell's place, table index
                hi_place = place[a:e] << np.uint64(32)
                hi_order = order[a:e] * np.uint64(nnz)
                # only pairs p < q: block columns from a on
                for b in range(a, g, w):
                    f = min(b + w, g)
                    rb, cb = at[None, b:f, :], col[None, b:f, :]
                    x = index[:(e - a) * (f - b) * m]
                    x = x.reshape(e - a, f - b, m)
                    np.add(ra, cb, out=x)
                    # u1: (row p, column q) is not a star; u2: (row q,
                    # column p) is not
                    u1 = flat[x].astype(bool, copy=False)
                    np.add(rb, ca, out=x)
                    u2 = flat[x].astype(bool, copy=False)
                    # the block columns below e hold the pairs q <= p
                    k = min(f, e) - b
                    if k > 0:
                        upper = (np.arange(a, e)[:, None]
                                 < np.arange(b, b + k))[:, :, None]
                        u1[:, :k] &= upper
                        u2[:, :k] &= upper
                    bad = u1 | u2
                    total = np.count_nonzero(bad)
                    if not total:
                        continue
                    same_col = ca == cb
                    shared = (ra == rb) | same_col
                    if k > 0:
                        shared[:, :k] &= upper
                    n_a = np.count_nonzero(shared)
                    found[0] += n_a
                    found[1] += total - n_a
                    # a pair within one column is one note for its user
                    np.greater(u1, same_col, out=u1)
                    mine[b:f] += u1.view(np.uint8).sum(0, dtype=np.int32)
                    mine[a:e] += u2.view(np.uint8).sum(1, dtype=np.int32)
                    if n_a:
                        c3a.offer(hi_place, place[b:f], shared)
                    if total > n_a:
                        c3b.offer(hi_place, place[b:f],
                                  np.greater(bad, shared, out=u2))
                    leading.offer(hi_order, order[b:f], bad)
            notes += np.bincount(col.ravel(), mine.ravel(), width)
    by_place = []
    for kept in (c3a, c3b):
        keys = np.sort(kept.keys)
        r1, c1 = np.divmod((keys >> np.uint64(32)).astype(np.int64), width)
        r2, c2 = np.divmod((keys & _LOW32).astype(np.int64), width)
        by_place.append(np.stack((r1, c1, r2, c2), axis=1))
    e1, e2 = np.divmod(np.sort(leading.keys).astype(np.int64), nnz)
    return PairScan(found[0], found[1], notes.astype(np.int64),
                    tuple(by_place),
                    np.stack((rows[e1], cols[e1], rows[e2], cols[e2]),
                             axis=1))

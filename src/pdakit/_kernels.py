"""The same-symbol pair scan behind condition C3.

It is the hot inner loop of the C3 classifier in ``core``, which the
validity checker and the decoder's cache audit both read.  For a symbol
with g cells, C3 says that the g x g block ``grid[rows, cols]`` over its
cells is a star off its diagonal: entry (a, b) of the block is the cross
cell (row of cell a, column of cell b).  The scan gathers the blocks of all
groups of one size together, in tiles of at most CHUNK_CELLS entries laid
out as (h block rows, w block columns, n groups): whole blocks of several
groups, or bands of one block when g^2 alone is too big, so its
temporaries stay bounded.  The groups are the last axis, so numpy's inner
loops run over n groups, not over g entries of one block.  The grid may be
any array whose non-zero cells are the non-stars; a one-byte mask
``grid != STAR`` makes each gathered entry one byte.  A tile whose only
non-stars are its diagonal cells holds no fault and costs one count; only a
tile that fails that count keys its non-star entries by pair.  One sort of
those keys and a compare with each key's neighbour drop the pairs found
twice, so the result is an array of one row per bad pair and no pair is
ever a Python object.
"""

import numpy as np

# the most block entries one tile gathers
CHUNK_CELLS = 1 << 22


def c3_pair_scan(grid, rows, cols, starts):
    """The same-symbol pairs that break C3, as an (n, 2) int64 array.

    A pair is bad when one of the two cross cells (j1, k2), (j2, k1) of the
    rectangle it spans is not a star.  A pair sharing a row or a column has
    its own cells as cross cells, so it is always bad.  ``grid`` is the
    array, or any array of its shape that is non-zero exactly at its
    non-star cells, such as the bool mask ``grid != STAR``.  ``rows`` and
    ``cols`` hold the non-star cells grouped by symbol; ``starts`` bounds the
    groups.  Row i of the result holds the indices e1 < e2 into ``rows`` and
    ``cols`` of the two cells of bad pair i.  Pairs come by group, then by
    the position of the first cell in its group, then of the second.
    """
    nnz = rows.shape[0]
    flat = grid.ravel()
    width = grid.shape[1]
    counts = np.diff(starts)
    keys = []
    # the group sizes present, from 2 up
    for g in (np.flatnonzero(np.bincount(counts)[2:]) + 2).tolist():
        # tile: h block rows x w block columns x n groups
        w = min(g, CHUNK_CELLS)
        h = min(g, CHUNK_CELLS // w)
        n = CHUNK_CELLS // (h * w)
        groups = starts[:-1][counts == g]
        for i in range(0, groups.size, n):
            base = groups[i:i + n]
            for a in range(0, g, h):
                cell_a = np.arange(a, min(a + h, g))[:, None] + base
                ra = rows[cell_a] * width
                for b in range(0, g, w):
                    cell_b = np.arange(b, min(b + w, g))[:, None] + base
                    x = flat[ra[:, None, :] + cols[cell_b][None, :, :]]
                    # the diagonal entries are the group's own cells
                    diag = max(0, min(a + h, b + w, g) - max(a, b))
                    if np.count_nonzero(x) == base.size * diag:
                        continue
                    p, q, j = np.nonzero(x)
                    e1, e2 = cell_a[p, j], cell_b[q, j]
                    off = e1 != e2
                    e1, e2 = e1[off], e2[off]
                    keys.append(np.minimum(e1, e2) * nnz + np.maximum(e1, e2))
    if not keys:
        return np.empty((0, 2), dtype=np.int64)
    keys = np.concatenate(keys)
    keys.sort()
    # a pair with both cross cells non-star was found twice, once per cell
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    pairs = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, nnz, out=(pairs[:, 0], pairs[:, 1]))
    return pairs

"""The same-symbol pair scan.

It is the hot inner loop of both the validity checker and the decoder's
cache-membership audit.  All intra-group pairs are materialised in one shot
(no per-group python loop): element e of a group ending at ``end`` pairs, as
the first member, with the ``end - e - 1`` elements after it.
"""

import numpy as np


def c3_pair_scan(grid, rows, cols, starts):
    """List (code, j1, k1, j2, k2) for every violating same-symbol pair.

    code 0: the pair shares a row or a column; code 1: one of the two cross
    cells of the rectangle spanned by the pair is not a star.  ``rows`` and
    ``cols`` hold the non-star cells grouped by symbol; ``starts`` bounds the
    groups.  All indices are 0-based.
    """
    nnz = rows.shape[0]
    if nnz == 0:
        return []
    counts = np.diff(starts)
    ends = np.repeat(starts[1:], counts)
    rem = ends - np.arange(nnz) - 1
    total = int(rem.sum())
    if total == 0:
        return []
    first = np.repeat(np.arange(nnz), rem)
    before = np.concatenate(([0], np.cumsum(rem)[:-1]))
    second = first + (np.arange(total) - before[first]) + 1

    r1, c1 = rows[first], cols[first]
    r2, c2 = rows[second], cols[second]
    same = (r1 == r2) | (c1 == c2)
    cross = ~same & ((grid[r1, c2] != 0) | (grid[r2, c1] != 0))
    bad = np.flatnonzero(same | cross)
    return [
        (0 if same[p] else 1, int(r1[p]), int(c1[p]), int(r2[p]), int(c2[p]))
        for p in bad
    ]

"""The same-symbol pair scan behind condition C3.

It is the hot inner loop of the C3 classifier in ``core``, which the
validity checker and the decoder's cache audit both read.  All intra-group
pairs are materialised in one shot (no per-group python loop): element e of
a group ending at ``end`` pairs, as the first member, with the
``end - e - 1`` elements after it.
"""

import numpy as np


def c3_pair_scan(grid, rows, cols, starts):
    """List (j1, k1, j2, k2) for every same-symbol pair that breaks C3.

    A pair is bad when one of the two cross cells (j1, k2), (j2, k1) of the
    rectangle it spans is not a star.  A pair sharing a row or a column has
    its own cells as cross cells, so it is always bad.  ``rows`` and
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
    bad = np.flatnonzero((grid[r1, c2] != 0) | (grid[r2, c1] != 0))
    return list(zip(r1[bad].tolist(), c1[bad].tolist(),
                    r2[bad].tolist(), c2[bad].tolist()))

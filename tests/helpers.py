"""Shared test utilities, including a brute-force reference checker.

The naive checker below is deliberately independent of the package: it
works on plain row lists and tests every pair of cells directly, so it can
serve as an oracle for the grouped-scan verifier.  The plain C3 pair scan,
the dict-and-loop subset family and the pairwise relabeling test are kept
as references for the block-gather kernel, construct_mn and equivalent.
"""

import itertools
from pathlib import Path

import numpy as np

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def naive_check(rows):
    """(c1, c2, c3a, c3b) booleans for a grid of '*'/int cells."""
    f = len(rows)
    k = len(rows[0])
    cells = [
        (j, c, v)
        for j, row in enumerate(rows)
        for c, v in enumerate(row)
        if v != "*"
    ]
    star_counts = {
        sum(1 for j in range(f) if rows[j][c] == "*") for c in range(k)
    }
    c1 = len(star_counts) == 1
    syms = sorted({v for _, _, v in cells})
    c2 = bool(syms) and syms == list(range(1, max(syms) + 1))
    c3a = c3b = True
    for i in range(len(cells)):
        j1, k1, v1 = cells[i]
        for l in range(i + 1, len(cells)):
            j2, k2, v2 = cells[l]
            if v1 != v2:
                continue
            if j1 == j2 or k1 == k2:
                c3a = False
            elif rows[j1][k2] != "*" or rows[j2][k1] != "*":
                c3b = False
    return c1, c2, c3a, c3b


def naive_c2(rows, declared_s=None):
    """C2 (locations, detail) pairs by direct search, 1-based row-major."""
    cells = [(j + 1, c + 1, v) for j, row in enumerate(rows)
             for c, v in enumerate(row) if v != "*"]
    syms = sorted({v for _, _, v in cells})
    if not syms:
        return [((), "array contains no integer symbols")]
    s_ref = max(syms) if declared_s is None else declared_s
    out = [((), f"symbol {s} never occurs")
           for s in range(1, s_ref + 1) if s not in syms]
    out += [(tuple((j, c) for j, c, v in cells if v == s),
             f"symbol {s} exceeds S={s_ref}") for s in syms if s > s_ref]
    return out


def reference_pair_scan(grid, rows, cols, starts):
    """(j1, k1, j2, k2) per same-symbol pair breaking C3, from every pair.

    All intra-group pairs are materialised in one shot: element e of a
    group ending at ``end`` pairs, as the first member, with the
    ``end - e - 1`` elements after it.  Inputs and output order are those
    of ``pdakit._kernels.c3_pair_scan``.
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


def naive_equivalent(ga, gb) -> bool:
    """True when grid gb is grid ga under a bijective relabeling of its
    symbols: same shape and star pattern (0), and the cell-wise symbol map
    single-valued in both directions."""
    ga, gb = np.asarray(ga), np.asarray(gb)
    if ga.shape != gb.shape:
        return False
    if not np.array_equal(ga == 0, gb == 0):
        return False
    va = ga[ga != 0]
    vb = gb[gb != 0]
    if va.size == 0:
        return True
    pairs = np.unique(np.stack((va, vb), axis=1), axis=0)
    return pairs.shape[0] == np.unique(va).size == np.unique(vb).size


def naive_mn(k, t):
    """Subset-family grid, one cell per (t+1)-subset member: cell (T, u)
    holds the 1-based lexicographic index of T + {u}, 0 for u in T."""
    row = {sub: j for j, sub in enumerate(itertools.combinations(range(k), t))}
    grid = np.zeros((len(row), k), dtype=np.int64)
    for s, sup in enumerate(itertools.combinations(range(k), t + 1), start=1):
        for i, u in enumerate(sup):
            grid[row[sup[:i] + sup[i + 1:]], u] = s
    return grid


def naive_valid(rows) -> bool:
    return all(naive_check(rows))


def naive_params(rows):
    """(K, F, Z, S) by direct counting; requires uniform star counts."""
    f = len(rows)
    k = len(rows[0])
    counts = [sum(1 for j in range(f) if rows[j][c] == "*") for c in range(k)]
    assert len(set(counts)) == 1
    syms = {v for row in rows for v in row if v != "*"}
    return (k, f, counts[0], max(syms))


NAIVE_CELL_CAP = 10_000_000
NAIVE_SYMBOL_MAX = 2**31 - 1


def _naive_number(tok: str):
    """Value of a token of ASCII decimal digits, or None."""
    if not tok or any(ch not in "0123456789" for ch in tok):
        return None
    return int(tok)


def naive_parse(text: str):
    """The README grammar, read line by line with no numpy.

    Returns ("ok", (K, F, Z, S), rows) with rows of '*'/int cells,
    ("cap",) when F*K is above the cell cap, or ("error", line, token)
    naming the 1-based position a parse error reports (None where the
    error has no position).  Lines end in "\\n" and tokens are separated
    by spaces and tabs; other control characters are not modelled.
    """
    if text and not text.endswith("\n"):
        return ("error", None, None)
    content = []
    for lineno, line in enumerate(text.split("\n")[:-1], start=1):
        toks = [t for t in line.replace("\t", " ").split(" ") if t]
        if toks and not toks[0].startswith("#"):
            content.append((lineno, toks))
    if not content:
        return ("error", None, None)
    lineno, toks = content[0]
    if len(toks) != 4:
        return ("error", lineno, None)
    header = []
    for col, (tok, least) in enumerate(zip(toks, (1, 1, 0, 0)), start=1):
        value = _naive_number(tok)
        if value is None or value < least:
            return ("error", lineno, col)
        header.append(value)
    k, f = header[0], header[1]
    if k * f > NAIVE_CELL_CAP:
        return ("cap",)
    body = content[1:]
    if len(body) != f:
        return ("error", body[-1][0] if body else lineno, None)
    rows = []
    for lineno, toks in body:
        if len(toks) != k:
            return ("error", lineno, None)
        row = []
        for col, tok in enumerate(toks, start=1):
            if tok == "*":
                row.append("*")
                continue
            value = _naive_number(tok)
            if value is None or not 1 <= value <= NAIVE_SYMBOL_MAX:
                return ("error", lineno, col)
            row.append(value)
        rows.append(row)
    return ("ok", tuple(header), rows)

"""Shared test utilities, including a brute-force reference checker.

The naive checker below is deliberately independent of the package: it
works on plain row lists and tests every pair of cells directly, so it can
serve as an oracle for the grouped-scan verifier.
"""

from pathlib import Path

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

"""Shared test utilities, including a brute-force reference checker.

The naive checker below is deliberately independent of the package: it
works on plain row lists and tests every pair of cells directly, so it can
serve as an oracle for the grouped-scan verifier.  The plain C3 pair scan,
the dict-and-loop subset family, the cell-by-cell digit-vector families and
the pairwise relabeling test are kept as references for the block-gather
kernel, construct_mn, construct and equivalent.
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
    """The table indices (e1, e2) of each same-symbol pair breaking C3, as
    an (n, 2) int64 array, from every pair.

    All intra-group pairs are materialised in one shot: element e of a
    group ending at ``end`` pairs, as the first member, with the
    ``end - e - 1`` elements after it.  Inputs, output form and order are
    those of ``pdakit._kernels.c3_pair_scan``.
    """
    nnz = rows.shape[0]
    none = np.empty((0, 2), dtype=np.int64)
    if nnz == 0:
        return none
    counts = np.diff(starts)
    ends = np.repeat(starts[1:], counts)
    rem = ends - np.arange(nnz) - 1
    total = int(rem.sum())
    if total == 0:
        return none
    first = np.repeat(np.arange(nnz), rem)
    before = np.concatenate(([0], np.cumsum(rem)[:-1]))
    second = first + (np.arange(total) - before[first]) + 1

    r1, c1 = rows[first], cols[first]
    r2, c2 = rows[second], cols[second]
    bad = np.flatnonzero((grid[r1, c2] != 0) | (grid[r2, c1] != 0))
    return np.stack((first[bad], second[bad]), axis=1).astype(np.int64)


def reference_scan_summary(grid, rows, cols, starts, listed):
    """What ``pdakit._kernels.c3_pair_scan`` counts and keeps, from the full
    list of ``reference_pair_scan``: (C3a count, C3b count, notes per user,
    (kept C3a cells, kept C3b cells), first cells).

    Cells are (r1, c1, r2, c2) lists.  The kept pairs of a condition are its
    ``listed`` smallest by (r1 * K + c1, r2 * K + c2); the first are the
    first ``listed`` pairs of the full list, which is in table order.  A
    pair within one column is one note for its user; any other pair is one
    note for user c2 when (r1, c2) is not a star and one for user c1 when
    (r2, c1) is not.
    """
    grid = np.asarray(grid)
    k = grid.shape[1]
    pairs = reference_pair_scan(grid, rows, cols, starts)
    cells = np.stack((rows[pairs[:, 0]], cols[pairs[:, 0]],
                      rows[pairs[:, 1]], cols[pairs[:, 1]]), axis=1)
    notes = [0] * k
    for r1, c1, r2, c2 in cells.tolist():
        if c1 == c2:
            notes[c1] += 1
            continue
        notes[c2] += grid[r1, c2] != 0
        notes[c1] += grid[r2, c1] != 0
    r1, c1, r2, c2 = cells.T
    shared = (r1 == r2) | (c1 == c2)
    kept = []
    for bad in (shared, ~shared):
        part = cells[bad]
        order = np.lexsort((part[:, 2] * k + part[:, 3],
                            part[:, 0] * k + part[:, 1]))
        kept.append(part[order][:listed].tolist())
    return (int(shared.sum()), int((~shared).sum()), notes, kept,
            cells[:listed].tolist())


def scan_summary(scan):
    """A PairScan in the form of ``reference_scan_summary``."""
    for cells in (*scan.by_place, scan.first):
        assert cells.dtype == np.int64 and cells.shape[1:] == (4,)
    return (scan.c3a, scan.c3b, scan.notes.tolist(),
            [cells.tolist() for cells in scan.by_place], scan.first.tolist())


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


def naive_vector(family, q, z, m, t):
    """Digit-vector family grid by the cell rule of the constructions
    module docstring, one cell at a time: rows (a, e) with e outermost,
    columns (d, e, b) with d outermost, the e digits in the rows or (ext)
    the columns, first digit fastest.  A star is 0; a symbol is the
    mixed-radix value of the substituted a (base q, most significant
    first) and its trailing digits (base q-z), plus 1."""
    family = str(family)
    ext = family.startswith("ext")
    special = family.endswith("special")
    w = (q - 1) // (q - z)

    def tuples(radix, count):
        return [tup[::-1]
                for tup in itertools.product(range(radix), repeat=count)]

    def symbol(digits, trailing):
        value = 0
        for x in digits:
            value = value * q + x
        for y in trailing:
            value = value * (q - z) + y
        return value + 1

    rows = [(a, e) for e in tuples(w, 0 if ext else t) for a in tuples(q, m)]
    cols = [(d, e, b) for d in itertools.combinations(range(m), t)
            for e in tuples(w, t if ext else 0) for b in tuples(q, t)]
    grid = []
    for a, row_e in rows:
        line = []
        for d, col_e, b in cols:
            e = col_e if ext else row_e
            if any((b[i] - a[d[i]]) % q < z for i in range(t)):
                line.append(0)
                continue
            sub = list(a)
            for i in range(t):
                sub[d[i]] = (b[i] - e[i] * (q - z)) % q
            line.append(symbol(sub, [(a[d[i]] - b[i] - 1) % q
                                     for i in range(t)]))
        if special:
            u = (sum(a) - (0 if ext else row_e[0]) * (q - z)) % q
            for b in range(q):
                line.append(0 if (u - b) % q < z
                            else symbol(a, [(b - u - 1) % q]))
        grid.append(line)
    return np.array(grid, dtype=np.int64)


def integers_store(n_files: int, f: int, packet_size: int, seed: int):
    """The (n_files, f, packet_size) uint8 packet bytes of a synthetic store
    drawn with numpy's bounded-integer sampler: the oracle for
    PacketStore.synthetic, which reads the same bytes from the generator's
    raw words."""
    return np.random.default_rng(seed).integers(
        0, 256, size=(n_files, f, packet_size), dtype=np.uint8)


def naive_deliver(rows, files, demand):
    """{symbol: payload} for a grid of '*'/int cells: the byte-wise XOR of
    packet j of file demand[k] over every cell (j, k) holding the symbol.
    files[i][j] is packet j of file i + 1, as bytes; indices are 0-based
    except the file numbers in demand."""
    payloads = {}
    for j, row in enumerate(rows):
        for k, s in enumerate(row):
            if s != "*":
                packet = files[demand[k] - 1][j]
                acc = payloads.get(s, bytes(len(packet)))
                payloads[s] = bytes(x ^ y for x, y in zip(acc, packet))
    return payloads


def naive_decode(rows, files, demand, payloads):
    """Each user's file as it decodes from its cache and the payloads:
    star rows are its own copies, and the row j of a cell holding s is
    payloads[s] XOR the packets of the symbol's other cells."""
    decoded = []
    for k, i in enumerate(demand):
        got = list(files[i - 1])
        for j, row in enumerate(rows):
            s = row[k]
            if s == "*":
                continue
            acc = payloads[s]
            for j2, row2 in enumerate(rows):
                for k2, s2 in enumerate(row2):
                    if s2 == s and (j2, k2) != (j, k):
                        packet = files[demand[k2] - 1][j2]
                        acc = bytes(x ^ y for x, y in zip(acc, packet))
            got[j] = acc
        decoded.append(b"".join(got))
    return decoded


def slots(log):
    """The slots of a TransmissionLog as (symbol, terms, payload) tuples:
    terms are 1-based (user k, row j) pairs and payload is bytes."""
    out = []
    for i, symbol in enumerate(log.symbols.tolist()):
        a, b = int(log.starts[i]), int(log.starts[i + 1])
        terms = tuple((int(k) + 1, int(j) + 1)
                      for k, j in zip(log.cols[a:b], log.rows[a:b]))
        out.append((symbol, terms,
                    log.payload[log.ends[i]:log.ends[i + 1]].tobytes()))
    return out


def log_of(sent, packet_size: int):
    """The TransmissionLog of (symbol, terms, payload) tuples, as slots
    returns them, over new int64 columns."""
    # imported here: the rest of this module runs without the package
    from pdakit import TransmissionLog

    terms = np.array([kj for _, ts, _ in sent for kj in ts],
                     dtype=np.int64).reshape(-1, 2) - 1
    sizes = np.array([(len(ts), len(p)) for _, ts, p in sent],
                     dtype=np.int64).reshape(-1, 2)
    starts, ends = np.vstack(([0, 0], sizes.cumsum(axis=0))).T
    return TransmissionLog(
        packet_size, np.array([s for s, _, _ in sent], dtype=np.int64),
        starts, terms[:, 0], terms[:, 1],
        np.frombuffer(b"".join(p for _, _, p in sent), dtype=np.uint8), ends)


def flipped(log, slot: int, bit: int = 1):
    """log over new columns, with the first payload byte of slot XORed by
    bit."""
    sent = slots(log)
    symbol, terms, payload = sent[slot]
    sent[slot] = (symbol, terms, bytes([payload[0] ^ bit]) + payload[1:])
    return log_of(sent, log.packet_size)


def naive_trace(log) -> str:
    """The trace of a log, one line per slot in a plain loop:
    "s=<symbol> terms=(k,j);(k,j) payload=<hex>" and a newline."""
    lines = []
    for symbol, terms, payload in slots(log):
        text = ";".join(f"({k},{j})" for k, j in terms)
        lines.append(f"s={symbol} terms={text} payload={payload.hex()}\n")
    return "".join(lines)


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


def c3_heavy_text() -> str:
    """A 2500 x 40 .pda file with 2.01e7 same-symbol pairs that break C3.

    Cell (r, c), 0-based, is ``*`` where (7r + 3c) mod 5 = 0 and otherwise
    1 + (131r + 977c) mod 10^(1 + (r + c) mod 6).  Every column holds 500
    stars and the header declares the largest symbol present, so the file
    breaks C2 (gaps) and C3 only; its sum of g^2 is about 4.0e7, under the
    C3 work cap.
    """
    r, c = np.ogrid[:2500, :40]
    grid = 1 + (131 * r + 977 * c) % 10 ** (1 + (r + c) % 6)
    grid[(7 * r + 3 * c) % 5 == 0] = 0
    body = "\n".join(" ".join("*" if v == 0 else str(v) for v in row)
                     for row in grid.tolist())
    return f"40 2500 500 {grid.max()}\n{body}\n"

"""Parametric families of placement delivery arrays.

Two generators are provided.  construct_mn builds the baseline subset family
("mn"), which indexes rows by the t-subsets of the K users: cell (T, k) is a
star when k is in T, otherwise it carries the symbol of the (t+1)-subset
T + {k}.  It reaches the lowest rate for its memory point but its packet
count C(K, t) explodes with K.

construct builds the other four families from one digit-vector rule over
Z_q, driven by a generator tuple (q, z, m, t), with z in [1, q-1] the cached
fraction numerator and w = floor((q-1)/(q-z)) a replication factor:

    family        K                  F        M/N              R
    general       C(m,t) q^t         w^t q^m  1 - ((q-z)/q)^t  ((q-z)/w)^t
    special       (m+1) q            w q^m    z/q              (q-z)/w
    ext-general   C(m,t) w^t q^t     q^m      1 - ((q-z)/q)^t  (q-z)^t
    ext-special   (m w + 1) q        q^m      z/q              q - z

Rows of "general" are vectors (a_0..a_{m-1}, e_0..e_{t-1}) with a_l in Z_q
and e_i in [0, w); columns are (b_0..b_{t-1}, d_0 < .. < d_{t-1} < m) with
b_i in Z_q.  Cell (a, b) is a star when some a_{d_i} lies in the window
{b_i, b_i - 1, .., b_i - (z-1)} mod q; otherwise its symbol is the vector a
with coordinate d_i replaced by b_i - e_i (q-z) and t trailing digits
a_{d_i} - b_i - 1 (all mod q), encoded as a mixed-radix integer: the m
digits of a in base q, most significant first, then the trailing digits in
base q-z, plus 1.  The "ext" variants move the e digits from the row index
to the column index, shrinking F to q^m at the price of rate.  The
"special" variants fix t = 1 and append a closing block of q columns
b = 0..q-1 keyed by the row digit sum u = (sum(a) - e_0 (q-z)) mod q, with
e_0 = 0 for ext-special: its cell is a star when u lies in
{b, b + 1, .., b + (z-1)} mod q, otherwise the vector a itself with the
trailing digit b - u - 1 mod q.  Enumeration orders (rows: e outermost then
a, first digit fastest; columns: d outermost, then e, then b, first digit
fastest) are fixed so a given tuple always yields the identical array.

Columns run delta-outermost, so within each of the C(m,t) delta blocks the
positions d_i are fixed, and a cell of the vector block is
base(row) + V[delta, key(row, delta), column], where base is the
mixed-radix value of a alone and the key packs the t digits a_{d_i} (with
e_i where the row holds it).  construct fills the lookup table V, INT32_MIN
wherever a position stars, in one broadcast pass per digit position, then
gathers the F x K0 block from it with one take over the rows' keys, adds
base and clamps the stars to 0.  The closing block is one np.where.
construct_general, construct_special, construct_ext_general and
construct_ext_special are shorthands for construct.  Every constructor
refuses an array above CELL_CAP cells, the limit the .pda parser applies.

theorem_params evaluates the closed-form (K, F, Z, S) of each family in
exact big-integer arithmetic without building anything, so it stays usable
where F has hundreds of digits.  It and construct read the same two switches
of a family, ext and special, so the table above is one formula:

    F = q^m if ext else w^t q^m
    K = C(m,t) (w^t if ext else 1) q^t + (q if special else 0)
    Z = F - (F / q^t) (q-z)^t,    S = (q-z)^t q^m
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .core import CELL_CAP, _UNPRINTABLE, PdaArray, PdaParams, _check_cap

_CELLS = "array would hold {} cells"
# cells per row block of construct_mn
_BLOCK_CELLS = 1 << 16


class ParamDomainError(ValueError):
    """Construction parameters outside the family's domain."""


class Family(str, enum.Enum):
    MN = "mn"
    GENERAL = "general"
    SPECIAL = "special"
    EXT_GENERAL = "ext-general"
    EXT_SPECIAL = "ext-special"

    def __str__(self) -> str:
        return self.value


VECTOR_FAMILIES = (Family.GENERAL, Family.SPECIAL,
                   Family.EXT_GENERAL, Family.EXT_SPECIAL)


@dataclass(frozen=True)
class ConstructionParams:
    """Generator tuple; t is fixed to 1 for the two "special" families."""

    q: int
    z: int
    m: int
    t: int = 1

    @property
    def w(self) -> int:
        return _w(self.q, self.z)


def _w(q: int, z: int) -> int:
    return (q - 1) // (q - z)


def _check_qz(q: int, z: int) -> None:
    if q < 2:
        raise ParamDomainError("q must be at least 2")
    if not 1 <= z <= q - 1:
        raise ParamDomainError("z must satisfy 1 <= z <= q-1")


def _check_domain(family: Family, p: ConstructionParams) -> None:
    _check_qz(p.q, p.z)
    if p.m < 1:
        raise ParamDomainError("m must be at least 1")
    if family in (Family.GENERAL, Family.EXT_GENERAL):
        if not 1 <= p.t <= p.m - 1:
            raise ParamDomainError("t must satisfy 1 <= t < m")
    elif p.t != 1:
        raise ParamDomainError(f"family {family} fixes t = 1")


def _switches(family: Family) -> tuple[bool, bool]:
    """(ext, special) of a digit-vector family."""
    return (family in (Family.EXT_GENERAL, Family.EXT_SPECIAL),
            family in (Family.SPECIAL, Family.EXT_SPECIAL))


def theorem_params(family: Family, p: ConstructionParams) -> PdaParams:
    """Closed-form (K, F, Z, S) of a vector family, exact big integers."""
    family = Family(family)
    if family is Family.MN:
        raise ParamDomainError(f"{family} takes (K, t), use mn_params")
    _check_domain(family, p)
    ext, special = _switches(family)
    q, z, m, t, w = p.q, p.z, p.m, p.t, p.w
    f = q**m if ext else w**t * q**m
    return PdaParams(
        k=comb(m, t) * (w**t if ext else 1) * q**t + (q if special else 0),
        f=f,
        z=f - f // q**t * (q - z)**t,
        s=(q - z)**t * q**m,
    )


def _check_mn(k: int, t: int) -> None:
    if k < 2:
        raise ParamDomainError("K must be at least 2")
    if not 1 <= t <= k - 1:
        raise ParamDomainError("t must satisfy 1 <= t <= K-1")


def mn_params(k: int, t: int) -> PdaParams:
    """Closed-form parameters of the subset family."""
    _check_mn(k, t)
    return PdaParams(k=k, f=comb(k, t), z=comb(k - 1, t - 1), s=comb(k, t + 1))


def _digits(idx: np.ndarray, radix: int, count: int,
            unit: int = 1) -> np.ndarray:
    """Digits of idx // unit in the given radix, first digit fastest."""
    out = np.empty((idx.shape[0], count), dtype=idx.dtype)
    for i in range(count):
        out[:, i] = (idx // (unit * radix**i)) % radix
    return out


def _weights(q: int, z: int, m: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    # mixed radix: m leading digits in base q, t trailing in base q-z
    wa = np.array([(q**(m - 1 - l)) * (q - z)**t for l in range(m)],
                  dtype=np.int32)
    we = np.array([(q - z)**(t - 1 - i) for i in range(t)], dtype=np.int32)
    return wa, we


def construct(family: Family, p: ConstructionParams) -> PdaArray:
    """Build a digit-vector family from its generator tuple.

    The e digits index the rows, or the columns for the ext families; columns
    run over delta, then (ext only) the e digits, then beta.  The first K0
    columns are the vector block; the special families append q more.
    """
    family = Family(family)
    if family is Family.MN:
        raise ParamDomainError("mn takes (K, t); call construct_mn")
    _check_domain(family, p)
    # F >= q^m >= q^e, with e cut where q^e is past the bound
    lower = p.q**min(p.m, _UNPRINTABLE.bit_length()
                     // (p.q.bit_length() - 1) + 1)
    if lower >= _UNPRINTABLE:
        _check_cap(lower, CELL_CAP, _CELLS)
    ext, special = _switches(family)
    params = theorem_params(family, p)
    _check_cap(params.f * params.k, CELL_CAP, _CELLS)
    q, z, m, t, w = p.q, p.z, p.m, p.t, p.w
    k0 = params.k - (q if special else 0)
    deltas = np.array(list(itertools.combinations(range(m), t)))
    nd = len(deltas)
    # a key digit is a_{d_i}, plus q e_i where the row holds e
    radix = q if ext else q * w
    keys = radix**t
    # every value stays within S <= F*K <= CELL_CAP, so int32 holds it
    rows = np.arange(params.f, dtype=np.int32)
    A = _digits(rows, q, m)
    E = None if ext else _digits(rows, w, t, unit=q**m)
    wa, we = _weights(q, z, m, t)
    # table of delta d, key k and column c within the delta block; its
    # key digits run down axis 1 and its column digits along axis 2
    key = np.arange(keys, dtype=np.int32)[:, None]
    col = np.arange(k0 // nd, dtype=np.int32)[None]
    table = np.ones((nd, keys, col.shape[1]), dtype=np.int32)
    star = np.zeros(table.shape[1:], dtype=bool)
    row_key = np.tile(np.arange(nd, dtype=np.intp) * keys, (params.f, 1))
    for i in range(t):
        digit = key // radix**i % radix
        a, b = digit % q, col // q**i % q
        e = col // (q**t * w**i) % w if ext else digit // q
        star |= (b - a) % q < z
        table += (((b - e * (q - z)) % q - a) * wa[deltas[:, i], None, None]
                  + (a - b - 1) % q * we[i])
        row_key += (A[:, deltas[:, i]] if ext
                    else A[:, deltas[:, i]] + q * E[:, i, None]) * radix**i
    table[:, star] = np.iinfo(np.int32).min
    # cell = base(row) + table[delta, key(row, delta), c], a star below 0
    block = table.reshape(nd * keys, -1).take(row_key, axis=0)
    block = block.reshape(params.f, k0)
    base = A @ wa
    grid = (np.empty((params.f, params.k), dtype=np.int32) if special
            else block)
    np.add(block, base[:, None], out=grid[:, :k0])
    np.maximum(grid[:, :k0], 0, out=grid[:, :k0])
    if special:
        # the closing block, keyed by the row digit sum u; t = 1
        e0 = 0 if ext else E[:, 0]
        u = ((A.sum(axis=1, dtype=np.int32) - e0 * (q - z)) % q)[:, None]
        b = np.arange(q, dtype=np.int32)
        grid[:, k0:] = np.where((u - b) % q < z, 0,
                                base[:, None] + (b - u - 1) % q + 1)
    return PdaArray._owned(grid)


def construct_general(q: int, z: int, m: int, t: int) -> PdaArray:
    """Rows (a, e), columns (d, b); F = w^t q^m, K = C(m,t) q^t."""
    return construct(Family.GENERAL, ConstructionParams(q, z, m, t))


def construct_special(q: int, z: int, m: int) -> PdaArray:
    """General t=1 block plus a closing digit-sum block; K = (m+1) q."""
    return construct(Family.SPECIAL, ConstructionParams(q, z, m))


def construct_ext_general(q: int, z: int, m: int, t: int) -> PdaArray:
    """Rows are bare a-vectors; the e digits move into the column index."""
    return construct(Family.EXT_GENERAL, ConstructionParams(q, z, m, t))


def construct_ext_special(q: int, z: int, m: int) -> PdaArray:
    """Ext-general t=1 block plus the closing digit-sum block."""
    return construct(Family.EXT_SPECIAL, ConstructionParams(q, z, m))


def construct_mn(k: int, t: int) -> PdaArray:
    """Subset family: rows are the t-subsets T of [0, K) in lexicographic
    order; cell (T, u) is a star when u is in T, else the 1-based
    lexicographic rank of T + {u} among the (t+1)-subsets.

    With p = #(T_j < u), that rank is
    S - sum_{j<p} C(K-1-T_j, t+1-j) - sum_{j>=p} C(K-1-T_j, t-j)
    - C(K-1-u, t+1-p): a row table over p less a user table over p.  The
    rows are filled in blocks of about _BLOCK_CELLS cells, each with one
    prefix count of its star marks giving p."""
    _check_mn(k, t)
    # K C(K, t), one factor of the binomial at a time; each factor is at
    # least 2, so this stops within about 14,300 steps
    lower, small = k, min(t, k - t)
    for i in range(1, small + 1):
        if lower >= _UNPRINTABLE:
            break
        lower = lower * (k - small + i) // i
    if lower >= _UNPRINTABLE:
        _check_cap(lower, CELL_CAP, _CELLS)
    params = mn_params(k, t)
    _check_cap(params.f * params.k, CELL_CAP, _CELLS)
    subsets = _subsets(k, t)
    # with T_j = j + d, 0 <= d <= K-t: C(K-1-T_j, t-j) is lo[j, d] and
    # C(K-1-T_j, t+1-j) is hi[j, d]; C(K-1-u, t+1-p) is hi[p, u-p] where u
    # is not in T.  Each is a term of a rank, so below S, and a row's sums
    # stay within (t+1) S = K C(K-1, t) <= F K <= CELL_CAP: int32 holds them.
    span = k - t + 1
    lo, hi = (np.array([[comb(max(k - 1 - j - d, 0), t - j + up)
                         for d in range(span)] for j in range(t + up)],
                       dtype=np.int32) for up in (0, 1))
    steps = (lo - hi[:t]).ravel()
    at = np.arange(t) * (span - 1)
    users = np.arange(k, dtype=np.intp)
    grid = np.empty((params.f, k), dtype=np.int32)
    step = max(1, _BLOCK_CELLS // k)
    for r0 in range(0, params.f, step):
        sub = subsets[:, r0:r0 + step].T
        n = sub.shape[0]
        # the sum of lo over T is F-1-r, as row r has rank r, so
        # row[r, p] = S - (F-1-r) - sum_{j<p} (hi - lo)[j, T_j - j]
        row = np.empty((n, t + 1), dtype=np.int32)
        row[:, 0] = np.arange(r0, r0 + n) + params.s - params.f + 1
        row[:, 1:] = steps.take(sub + at)
        np.cumsum(row, axis=1, out=row)
        # count[r, u] = #(T_j <= u) is p wherever u is not in T
        stars = (np.arange(n, dtype=np.intp) * k)[:, None] + sub
        count = np.zeros((n, k), dtype=np.intp)
        count.ravel()[stars] = 1
        np.cumsum(count, axis=1, out=count)
        cells = grid[r0:r0 + n]
        # every index is in range; "clip" only spares take a copy of out
        np.take(row, count + (np.arange(n, dtype=np.intp) * (t + 1))[:, None],
                out=cells, mode="clip")
        count *= span - 1
        count += users
        cells -= hi.take(count, mode="clip")
        cells.ravel()[stars] = 0
    return PdaArray._owned(grid)


def _subsets(k: int, t: int) -> np.ndarray:
    """The t-subsets of [0, K) in lexicographic order, as t rows: column r
    is the r-th subset, sorted."""
    span = k - t + 1
    # a prefix whose element j is j + d has C(K-1-j-d, t-1-j) completions,
    # all of them consecutive rows
    ways = np.array([[comb(k - 1 - j - d, t - 1 - j) for d in range(span)]
                     for j in range(t)], dtype=np.intp)
    sub = np.empty((t, comb(k, t)), dtype=np.int32)
    last = np.arange(span)
    for j in range(t):
        if j:
            # each prefix extends by every x with last < x <= K-t+j
            counts = span - 1 + j - last
            heads = np.cumsum(counts) - counts
            last = (np.arange(counts.sum())
                    - np.repeat(heads - last - 1, counts))
        sub[j] = np.repeat(last, ways[j, last - j])
    return sub


def standard_sweep(max_cells: int = 1_000_000):
    """Yield (family, params) over the reference grid q in [2,6],
    z in [1,q-1], t in {1,2}, m in [t+1,4], keeping arrays of at most
    max_cells cells.  The two "special" families are swept at their fixed
    t = 1."""
    for family in VECTOR_FAMILIES:
        ts = (1,) if _switches(family)[1] else (1, 2)
        for q in range(2, 7):
            for z in range(1, q):
                for t in ts:
                    for m in range(t + 1, 5):
                        p = ConstructionParams(q, z, m, t)
                        tp = theorem_params(family, p)
                        if tp.f * tp.k <= max_cells:
                            yield family, p

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
a_{d_i} - b_i - 1 (all mod q), encoded as a mixed-radix integer.  The "ext"
variants move the e digits from the row index to the column index, shrinking
F to q^m at the price of rate.  The "special" variants fix t = 1 and append a
closing block of q columns keyed by the row digit sum
u = (sum(a) - e_0 (q-z)) mod q, with e_0 = 0 for ext-special.  Enumeration
orders (rows: e outermost then a, first digit fastest; columns: d outermost,
then e, then b) are fixed so a given tuple always yields the identical
array.  construct builds the row digits (a, e) and the column digits
(delta, e, b) as integer tables once each and evaluates the cell rule over
the row x column digit tables by broadcasting, one pass per digit position.
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
    # every value stays within S <= F*K <= CELL_CAP, so int32 holds it
    rows = np.arange(params.f, dtype=np.int32)
    cols = np.arange(k0, dtype=np.int32)
    A = _digits(rows, q, m)
    B = _digits(cols, q, t)
    deltas = np.array(list(itertools.combinations(range(m), t)))
    D = deltas[cols // (k0 // len(deltas))]
    # E[..., i] is an (F, 1) row digit or a (1, K0) column digit
    E = (_digits(cols, w, t, unit=q**t)[None] if ext
         else _digits(rows, w, t, unit=q**m)[:, None])
    wa, we = _weights(q, z, m, t)
    base = A @ wa
    grid = np.empty((params.f, params.k), dtype=np.int32)
    block = grid[:, :k0]
    block[:] = base[:, None] + 1
    star = np.zeros(block.shape, dtype=bool)
    for i in range(t):
        a_d, b = A[:, D[:, i]], B[:, i]
        star |= (b - a_d) % q < z
        block += ((b - E[..., i] * (q - z)) % q - a_d) * wa[D[:, i]]
        block += (a_d - b - 1) % q * we[i]
    block[star] = 0
    if special:
        # the closing block, keyed by the row digit sum u; t = 1
        e0 = 0 if ext else E[:, 0, 0]
        u = ((A.sum(axis=1) - e0 * (q - z)) % q)[:, None]
        b = np.arange(q)
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
    """Subset family: rows are the t-subsets of [1..K] in lexicographic
    order; cell (T, u) is a star when u is in T, else the rank of T + {u}
    among the (t+1)-subsets."""
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
    # symbol s is the s-th (t+1)-subset, one row of sup
    sup = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(k), t + 1)),
        dtype=np.int64, count=params.s * (t + 1)).reshape(params.s, t + 1)
    # the lexicographic rank of a t-subset x is C(k,t) - 1 minus the sum of
    # C(k-1-x_j, t-j); as x_j = j + d with 0 <= d <= k-t, that term is
    # binom[d, j]
    pos = np.arange(t)
    binom = np.array([[comb(k - 1 - j - d, t - j) for j in range(t)]
                      for d in range(k - t + 1)], dtype=np.int64)
    symbols = np.arange(1, params.s + 1, dtype=np.int32)
    grid = np.zeros((params.f, k), dtype=np.int32)
    for i in range(t + 1):
        sub = np.delete(sup, i, axis=1)
        rank = params.f - 1 - binom[sub - pos, pos].sum(axis=1)
        grid[rank, sup[:, i]] = symbols
    return PdaArray._owned(grid)


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

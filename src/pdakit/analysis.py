"""Rate / packet-count analysis across scheme families.

Three tools live here.  memory_share combines r schemes with weights
lambda_i summing to 1 into a scheme whose memory ratio and rate are the
weighted averages and whose packet count is the plain sum F_1 + .. + F_r;
that sum is how intermediate memory points are usually reached from a pair
of lattice points, and it is what the digit-vector families beat.

compare_general / compare_special bound the rate and packet-count ratios of
a single family-z scheme against such a two-point mixture of the classical
q-ary baselines.  At a lattice point (memory ratio exactly 1-((q-z)/q)^t,
resp. z/q) the packet ratio is exact: w^t / ((q-1)^t + 1) in the general
case and w/q in the t=1 case; the rate ratio is bounded by
1 / (lambda w^{2t}).  Between lattice points the scheme itself needs
mixing and the packet bound relaxes to 1/(q-z)^t + 1/(q-z-1)^t.  The
"advantage" flag records lambda * w^{2t} > 1, the regime where both ratios
certify a strict win.  Tabulated values print the closed-form bounds; the
exact ratios are exposed alongside.  The t = 1 baseline is the general
q-ary one at t = 1, so compare_special is compare_general at t = 1; the one
difference is that at a lattice point it prints the exact packet ratio w/q
instead of the bound 1/(q-z).  Both raise SizeCapError for a q^t above
CELL_CAP: every family over Z_q with subsets of size t has at least q^t
users, so no array for such a scheme could be built.

enumerate_schemes exhaustively solves the family equations K(q, z, m, t) and
ratio(q, z, t) for a target user count and memory ratio, in exact rational
arithmetic.  At each t with ratio = 1 - ((q-z)/q)^t it solves the one
closed form of theorem_params, K = C(m,t) (w^t if ext else 1) q^t +
(q if special else 0), for m.  It keeps the (rate, F)-non-dominated rows: a
parameterization that another one beats or ties on both axes never surfaces
by default.
estimate_m_range inverts K = C(m,t) q^t to the open interval
( t K^{1/t} / (e q),  t K^{1/t} / q ) that must contain m, which is the
sub-exponential growth statement F = O(w^t q^{t K^{1/t} / q}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .constructions import (VECTOR_FAMILIES, ConstructionParams, Family,
                            ParamDomainError, _check_qz, _switches, _w,
                            theorem_params)
from .core import CELL_CAP, _check_cap

MAX_EXACT_F_BITS = 4096


@dataclass(frozen=True)
class SchemeMetrics:
    """(M/N, R, F) triple; F exact when small enough, ln F always."""

    ratio: Fraction
    rate: Fraction
    f: int | None
    ln_f: float

    def __post_init__(self):
        if not 0 < self.ratio < 1:
            raise ValueError("memory ratio must lie strictly between 0 and 1")
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    @classmethod
    def exact(cls, ratio: Fraction, rate: Fraction, f: int) -> "SchemeMetrics":
        ln_f = math.log(f)
        return cls(Fraction(ratio), Fraction(rate),
                   f if f.bit_length() <= MAX_EXACT_F_BITS else None, ln_f)


@dataclass(frozen=True)
class MemoryShareSpec:
    """Component schemes with positive weights summing exactly to 1."""

    components: tuple[tuple[SchemeMetrics, Fraction], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("memory sharing needs at least one component")
        comps = tuple((m, Fraction(w)) for m, w in self.components)
        for _, w in comps:
            if not 0 < w <= 1:
                raise ValueError("weights must lie in (0, 1]")
        if sum(w for _, w in comps) != 1:
            raise ValueError("weights must sum exactly to 1")
        comps = tuple(sorted(comps, key=lambda cw: cw[0].ratio))
        object.__setattr__(self, "components", comps)


def memory_share(spec: MemoryShareSpec) -> SchemeMetrics:
    """Convex combination of ratios and rates; packet counts add up."""
    ratio = sum((w * m.ratio for m, w in spec.components), Fraction(0))
    rate = sum((w * m.rate for m, w in spec.components), Fraction(0))
    if all(m.f is not None for m, _ in spec.components):
        return SchemeMetrics.exact(ratio, rate,
                                   sum(m.f for m, _ in spec.components))
    logs = [m.ln_f for m, _ in spec.components]
    top = max(logs)
    ln_f = top + math.log(sum(math.exp(l - top) for l in logs))
    return SchemeMetrics(ratio, rate, None, ln_f)


@dataclass(frozen=True)
class ComparisonResult:
    """Ratios of one family-z scheme to a two-point baseline mixture.

    r_bound and f_value_or_bound are what the tabulated sweeps print; at a
    lattice point f_value_or_bound is the bound 1/(q-z)^t for the general
    baseline and the exact value w/q for the t = 1 baseline.  f_exact keeps
    the exact packet ratio in all cases; r_exact is only defined at a
    lattice point.
    """

    baseline: str  # "szg" (general, any t) | "yctc" (t = 1)
    q: int
    z: int
    t: int
    lam: float
    exact_case: bool
    w: int
    advantage: bool
    r_bound: float
    f_value_or_bound: float
    r_exact: float | None
    f_exact: Fraction | None


def _check_sweep(q: int, t: int, lam: float) -> None:
    """The checks of _compare that do not read z, in its order.

    Every family over Z_q with subsets of size t has at least q^t users,
    so at q^t above CELL_CAP no array exists, and SizeCapError is raised
    before any power of a large t is computed.
    """
    if q < 2:
        raise ParamDomainError("q must be at least 2")
    if t < 1:
        raise ValueError("t must be at least 1")
    if not 0 < lam < 1:
        raise ValueError("lambda must lie strictly between 0 and 1")
    # q >= 2, so q^t is above the cap once t reaches the cap's bit length
    _check_cap(q ** min(t, CELL_CAP.bit_length()), CELL_CAP,
               "an array over Z_q with subsets of size t holds at least "
               "q^t cells")


def _compare(baseline: str, q: int, z: int, t: int, lam: float,
             exact_case: bool) -> ComparisonResult:
    """The one body of compare_general and compare_special: the "yctc"
    baseline prints the exact packet ratio at a lattice point, the "szg"
    one the bound."""
    _check_qz(q, z)
    _check_sweep(q, t, lam)
    w = _w(q, z)
    r_bound = 1.0 / (lam * w**(2 * t))
    advantage = lam * w**(2 * t) > 1
    if exact_case:
        f_exact = Fraction(w**t, (q - 1)**t + 1)
        f_value = (float(f_exact) if baseline == "yctc"
                   else 1.0 / (q - z)**t)
        rz = ((q - z) / w)**t
        r_exact = rz / (lam * (q - 1)**t + (1 - lam) / (q - 1)**t)
    else:
        if q - z < 2:
            raise ValueError(
                "between-lattice case needs q - z >= 2 (z+1 must stay below q)")
        w2 = _w(q, z + 1)
        f_value = 1.0 / (q - z)**t + 1.0 / (q - z - 1)**t
        f_exact = Fraction(w**t + w2**t, (q - 1)**t + 1)
        r_exact = None
    return ComparisonResult(baseline, q, z, t, lam, exact_case, w, advantage,
                            r_bound, f_value, r_exact, f_exact)


def compare_general(q: int, z: int, t: int, lam: float,
                    exact_case: bool = True) -> ComparisonResult:
    """Family-z scheme versus the mixed general q-ary baseline.

    exact_case=False treats a target ratio strictly between the z and z+1
    lattice points (the scheme side then mixes adjacent z as well); only the
    packet bound changes.
    """
    return _compare("szg", q, z, t, lam, exact_case)


def compare_special(q: int, z: int, lam: float,
                    exact_case: bool = True) -> ComparisonResult:
    """Family-z scheme (t = 1) versus the mixed t = 1 baseline.

    This is compare_general at t = 1, except that at a lattice point the
    packet ratio printed is the exact value w/q, not a bound.
    """
    return _compare("yctc", q, z, 1, lam, exact_case)


@dataclass(frozen=True)
class SchemeRow:
    """One admissible parameterization for a target (K, M/N)."""

    family: Family
    q: int
    z: int
    m: int
    t: int
    rate: Fraction
    f: int
    ln_f: float


def _root(n: int, t: int) -> int:
    """floor(n^(1/t)) for n >= 0, by integer Newton steps from above."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // t)
    while True:
        s = ((t - 1) * r + n // r**(t - 1)) // t
        if s >= r:
            return r
        r = s


def _solve_binomial(target: int, t: int, low: int) -> int | None:
    """m >= low with C(m, t) == target, if any.

    (m-t+1)^t <= t! C(m, t) <= m^t, so m lies within t steps above
    floor((t! target)^(1/t)).
    """
    m = max(low, _root(math.factorial(t) * target, t))
    while comb(m, t) < target:
        m += 1
    return m if comb(m, t) == target else None


def _divisors(k: int) -> list[int]:
    """Divisors of k above 1, ascending."""
    low = [d for d in range(2, math.isqrt(k) + 1) if k % d == 0]
    return sorted({*low, *(k // d for d in low), k})


def enumerate_schemes(k: int, ratio: Fraction,
                      include_dominated: bool = False) -> list[SchemeRow]:
    """All family tuples hitting user count k and memory ratio exactly.

    The search runs t up to floor(log2 k) + 1, with t = 1 only for the
    special families.  ratio = 1 - ((q-z)/q)^t fixes (q-z)/q in lowest
    terms as a/b, the exact t-th roots of 1 - ratio's numerator and
    denominator; q runs over the divisors of k (every family's K is a
    multiple of q) that b divides, with z = q - (q/b) a, and m is solved
    from the user-count equation.  Rows that another row beats or ties on
    both rate and packet count are dropped unless include_dominated is
    set.  Result is sorted by ascending rate, then q.  Every array has a
    row, so F*K >= K: a K above CELL_CAP raises SizeCapError, as no array
    for it could be built.
    """
    if k < 2:
        raise ValueError("K must be at least 2")
    ratio = Fraction(ratio)
    if not 0 < ratio < 1:
        raise ValueError("memory ratio must lie strictly between 0 and 1")
    # the message leaves K out: it may have thousands of digits
    _check_cap(k, CELL_CAP, "an array for K users holds at least K cells")
    t_max = int(math.log2(k)) + 1
    rows: list[SchemeRow] = []

    def add(family: Family, q: int, z: int, m: int, t: int) -> None:
        params = theorem_params(family, ConstructionParams(q, z, m, t))
        assert params.k == k and params.ratio == ratio
        rows.append(SchemeRow(family, q, z, m, t, params.rate, params.f,
                              math.log(params.f)))

    cnum, cden = (1 - ratio).numerator, (1 - ratio).denominator
    divisors = _divisors(k)
    for t in range(1, t_max + 1):
        a, b = _root(cnum, t), _root(cden, t)
        if a**t != cnum or b**t != cden:
            continue
        for q in divisors:
            if q % b:
                continue
            z = q - q // b * a
            w = _w(q, z)
            for family in VECTOR_FAMILIES:
                ext, special = _switches(family)
                if special and t != 1:
                    continue
                # K = C(m,t) unit + (q if special), see theorem_params
                rest = k - (q if special else 0)
                unit = (w**t if ext else 1) * q**t
                if rest % unit == 0:
                    m = _solve_binomial(rest // unit, t,
                                        t if special else t + 1)
                    if m is not None:
                        add(family, q, z, m, t)

    if not include_dominated:
        rows = [
            r for r in rows
            if not any(
                (o.rate, o.f) != (r.rate, r.f)
                and o.rate <= r.rate and o.f <= r.f
                for o in rows
            )
        ]
    rows.sort(key=lambda r: (r.rate, r.q, r.z, r.m, r.t, r.family.value))
    return rows


def estimate_m_range(k: int, q: int, t: int) -> tuple[float, float]:
    """Open interval bounding the dimension m that yields K = C(m,t) q^t."""
    if k < 1 or q < 2 or t < 1:
        raise ValueError("need K >= 1, q >= 2, t >= 1")
    root = t * k**(1.0 / t)
    return (root / (math.e * q), root / q)

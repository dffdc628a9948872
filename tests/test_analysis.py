"""Memory sharing, baseline comparisons, scheme enumeration."""

import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from pdakit import (Family, MemoryShareSpec, SchemeMetrics, compare_general,
                    compare_special, enumerate_schemes, estimate_m_range,
                    memory_share)
from pdakit.analysis import _root, _solve_binomial


def metrics(ratio, rate, f):
    return SchemeMetrics.exact(Fraction(*ratio), Fraction(*rate), f)


class TestMemoryShare:
    def test_two_component_arithmetic(self):
        spec = MemoryShareSpec((
            (metrics((1, 3), (2, 1), 9), Fraction(1, 2)),
            (metrics((2, 3), (1, 2), 18), Fraction(1, 2)),
        ))
        out = memory_share(spec)
        assert out.ratio == Fraction(1, 2)
        assert out.rate == Fraction(5, 4)
        assert out.f == 27

    def test_single_component_identity(self):
        m = metrics((1, 4), (3, 1), 64)
        out = memory_share(MemoryShareSpec(((m, Fraction(1)),)))
        assert (out.ratio, out.rate, out.f) == (m.ratio, m.rate, m.f)

    def test_classical_pair_packet_sum(self):
        # mixing the two plain q-ary lattice points sums their packet counts
        q, t, m = 3, 2, 4
        a = metrics((1 - Fraction(q - 1, q)**t).as_integer_ratio(),
                    ((q - 1)**t, 1), q**m)
        b = metrics((1 - Fraction(1, q**t)).as_integer_ratio(),
                    (1, (q - 1)**t), (q - 1)**t * q**m)
        out = memory_share(MemoryShareSpec(((a, Fraction(1, 3)),
                                            (b, Fraction(2, 3)))))
        assert out.f == (q - 1)**t * q**m + q**m

    def test_weights_reflection_is_affine(self):
        a = metrics((1, 3), (2, 1), 9)
        b = metrics((2, 3), (1, 2), 18)
        lam = Fraction(1, 5)
        lo = memory_share(MemoryShareSpec(((a, lam), (b, 1 - lam))))
        hi = memory_share(MemoryShareSpec(((a, 1 - lam), (b, lam))))
        assert lo.ratio + hi.ratio == a.ratio + b.ratio
        assert lo.rate + hi.rate == a.rate + b.rate

    def test_components_sorted_by_ratio(self):
        a = metrics((2, 3), (1, 2), 18)
        b = metrics((1, 3), (2, 1), 9)
        spec = MemoryShareSpec(((a, Fraction(1, 2)), (b, Fraction(1, 2))))
        assert [c.ratio for c, _ in spec.components] == [Fraction(1, 3),
                                                         Fraction(2, 3)]

    def test_weight_validation(self):
        m = metrics((1, 2), (1, 1), 4)
        with pytest.raises(ValueError, match="sum"):
            MemoryShareSpec(((m, Fraction(1, 2)),))
        with pytest.raises(ValueError, match="\\(0, 1\\]"):
            MemoryShareSpec(((m, Fraction(3, 2)), (m, Fraction(-1, 2))))
        with pytest.raises(ValueError, match="at least one"):
            MemoryShareSpec(())

    def test_metrics_domain(self):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            SchemeMetrics(Fraction(1), Fraction(1), 1, 0.0)
        with pytest.raises(ValueError, match="rate must be positive"):
            SchemeMetrics(Fraction(1, 2), Fraction(0), 1, 0.0)

    def test_huge_f_uses_log_sum(self):
        big = SchemeMetrics(Fraction(1, 2), Fraction(1), None, 5000.0)
        out = memory_share(MemoryShareSpec(
            ((big, Fraction(1, 2)), (big, Fraction(1, 2)))))
        assert out.f is None
        assert math.isclose(out.ln_f, 5000.0 + math.log(2))


class TestCompareGeneral:
    # frozen sweep of the q=20, t=3, lambda=0.1 reference table
    TABLE = {
        11: (0.15625, 0.00137174211248285),
        12: (0.15625, 0.001953125),
        13: (0.15625, 0.00291545189504373),
        14: (0.0137174211248285, 0.00462962962962963),
        15: (0.0137174211248285, 0.008),
        16: (0.00244140625, 0.015625),
        17: (0.000214334705075446, 0.037037037037037),
        18: (1.88167642315892e-05, 0.125),
    }

    @pytest.mark.parametrize("z", sorted(TABLE))
    def test_reference_rows(self, z):
        r_want, f_want = self.TABLE[z]
        res = compare_general(20, z, 3, 0.1)
        assert res.exact_case and res.advantage
        assert abs(res.r_bound - r_want) <= 1e-12 * r_want
        assert abs(res.f_value_or_bound - f_want) <= 1e-12 * f_want

    def test_bound_formulas(self):
        res = compare_general(20, 14, 3, 0.1)
        assert res.w == 3
        assert math.isclose(res.r_bound, 1 / 72.9)
        assert math.isclose(res.f_value_or_bound, 1 / 216)

    def test_no_advantage_when_w_is_one(self):
        res = compare_general(2, 1, 1, 0.5)
        assert res.w == 1
        assert math.isclose(res.r_bound, 2.0)
        assert not res.advantage

    def test_exact_ratio_below_bound(self):
        res = compare_general(20, 14, 3, 0.1)
        assert res.r_exact is not None and res.r_exact < res.r_bound
        assert float(res.f_exact) < res.f_value_or_bound

    def test_between_lattice_points(self):
        res = compare_general(20, 14, 3, 0.1, exact_case=False)
        assert not res.exact_case
        assert math.isclose(res.f_value_or_bound, 1 / 216 + 1 / 125)
        assert math.isclose(res.r_bound, 1 / 72.9)
        assert res.r_exact is None

    def test_between_lattice_needs_room(self):
        with pytest.raises(ValueError, match="q - z >= 2"):
            compare_general(20, 19, 3, 0.1, exact_case=False)

    def test_domain(self):
        with pytest.raises(ValueError):
            compare_general(20, 14, 3, 1.0)
        with pytest.raises(ValueError):
            compare_general(20, 0, 3, 0.1)


class TestCompareSpecial:
    TABLE = {
        11: (0.5, 0.1),
        12: (0.5, 0.1),
        13: (0.5, 0.1),
        14: (0.222222222222222, 0.15),
        15: (0.222222222222222, 0.15),
        16: (0.125, 0.2),
        17: (0.0555555555555556, 0.3),
        18: (0.0246913580246914, 0.45),
    }

    @pytest.mark.parametrize("z", sorted(TABLE))
    def test_reference_rows(self, z):
        r_want, f_want = self.TABLE[z]
        res = compare_special(20, z, 0.5)
        assert abs(res.r_bound - r_want) <= 1e-12 * r_want
        assert abs(res.f_value_or_bound - f_want) <= 1e-12 * f_want

    def test_packet_ratio_is_exact_equality(self):
        # lattice case: f ratio times the mixed baseline packet count gives
        # back the family packet count exactly, at any m
        q, z = 20, 11
        res = compare_special(q, z, 0.5)
        assert res.f_exact == Fraction(res.w, q)
        for m in (1, 2, 5):
            baseline_f = (q - 1) * q**m + q**m
            assert res.f_exact * baseline_f == res.w * q**m

    def test_smallest_parameters(self):
        res = compare_special(2, 1, 0.5)
        assert res.w == 1 and res.f_exact == Fraction(1, 2)
        assert math.isclose(res.f_value_or_bound, 0.5)

    @pytest.mark.parametrize("exact_case", [True, False])
    def test_is_general_at_t1(self, exact_case):
        # every field but the baseline agrees with compare_general at t = 1,
        # save that a lattice point prints the exact packet ratio
        def outcome(compare, *args):
            try:
                return compare(*args)
            except ValueError as e:
                return str(e)

        for q in range(2, 31):
            for z in range(1, q):
                for lam in (0.1, 0.5, 0.9):
                    special = outcome(compare_special, q, z, lam, exact_case)
                    general = outcome(compare_general, q, z, 1, lam,
                                      exact_case)
                    if isinstance(general, str):
                        assert special == general
                        continue
                    assert (special.baseline, general.baseline) == ("yctc",
                                                                    "szg")
                    if exact_case:
                        assert special.f_value_or_bound == float(
                            special.f_exact)
                        general = replace(
                            general, f_value_or_bound=special.f_value_or_bound)
                    assert special == replace(general, baseline="yctc")

    def test_between_lattice_points(self):
        res = compare_special(20, 11, 0.5, exact_case=False)
        assert math.isclose(res.f_value_or_bound, 1 / 9 + 1 / 8)
        with pytest.raises(ValueError, match="q - z >= 2"):
            compare_special(20, 19, 0.5, exact_case=False)


class TestAdvantageRegime:
    def test_advantage_implies_certified_win(self):
        # whenever the advantage flag is up (and z leaves room below q),
        # both printed ratios certify strictly smaller rate and packets
        for q in (3, 8, 20):
            for z in range(1, q - 1):
                for t in (1, 2, 3):
                    for lam in (0.1, 0.5):
                        res = compare_general(q, z, t, lam)
                        if res.advantage:
                            assert res.r_bound < 1 and res.f_value_or_bound < 1
                res = compare_special(q, z, 0.5)
                if res.advantage:
                    assert res.r_bound < 1 and res.f_value_or_bound < 1


EXPECTED_405 = [
    (Family.SPECIAL, 3, 2, 134, Fraction(1, 2), 147.9072),
    (Family.EXT_SPECIAL, 3, 2, 67, Fraction(1), 73.6070),
    (Family.SPECIAL, 15, 10, 26, Fraction(5, 2), 71.1025),
    (Family.EXT_SPECIAL, 9, 6, 22, Fraction(3), 48.3389),
    (Family.SPECIAL, 27, 18, 14, Fraction(9, 2), 46.8349),
    (Family.EXT_SPECIAL, 15, 10, 13, Fraction(5), 35.2047),
    (Family.SPECIAL, 45, 30, 8, Fraction(15, 2), 31.1464),
    (Family.EXT_SPECIAL, 27, 18, 7, Fraction(9), 23.0709),
    (Family.SPECIAL, 81, 54, 4, Fraction(27, 2), 18.2709),
    (Family.EXT_SPECIAL, 45, 30, 4, Fraction(15), 15.2266),
    (Family.SPECIAL, 135, 90, 2, Fraction(45, 2), 10.5037),
    (Family.EXT_SPECIAL, 81, 54, 2, Fraction(27), 8.7889),
    (Family.EXT_SPECIAL, 135, 90, 1, Fraction(45), 4.9053),
]


class TestEnumerate:
    def test_reference_target(self):
        rows = enumerate_schemes(405, Fraction(2, 3))
        assert len(rows) == 13
        for row, (family, q, z, m, rate, ln_f) in zip(rows, EXPECTED_405):
            assert (row.family, row.q, row.z, row.m) == (family, q, z, m)
            assert row.rate == rate
            assert abs(row.ln_f - ln_f) < 1e-3

    def test_dominated_rows_kept_on_request(self):
        rows = enumerate_schemes(405, Fraction(2, 3), include_dominated=True)
        assert len(rows) > 13
        default = enumerate_schemes(405, Fraction(2, 3))
        as_keys = {(r.family, r.q, r.z, r.m, r.t) for r in rows}
        assert {(r.family, r.q, r.z, r.m, r.t) for r in default} <= as_keys
        # every reintroduced row is beaten on both axes by a kept one
        kept = [(r.rate, r.f) for r in default]
        for r in rows:
            if (r.family, r.q, r.z, r.m, r.t) not in {
                    (d.family, d.q, d.z, d.m, d.t) for d in default}:
                assert any(kr <= r.rate and kf <= r.f for kr, kf in kept)

    def test_rows_verified_at_desk_scale(self):
        # small targets can actually be built and checked
        from pdakit import construct, params_of, verify_pda, ConstructionParams
        rows = enumerate_schemes(4, Fraction(1, 2))
        assert any(r.family is Family.SPECIAL and (r.q, r.z, r.m) == (2, 1, 1)
                   and r.rate == 1 and math.isclose(r.ln_f, math.log(2))
                   for r in rows)
        checked = 0
        for k in (4, 12):
            for r in enumerate_schemes(k, Fraction(1, 2),
                                       include_dominated=True):
                if r.f <= 10**5:
                    arr = construct(r.family,
                                    ConstructionParams(r.q, r.z, r.m, r.t))
                    p = params_of(arr)
                    assert verify_pda(arr).valid
                    assert p.k == k and p.rate == r.rate and p.f == r.f
                    checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("k, ratio, count, digest", [
        (720, Fraction(1, 2), 92,
         "c94dffc06dbc80c36dc5fa6d6249f52b989ba80e23f89f026ea309dbae1c9457"),
        (864, Fraction(5, 9), 34,
         "1e1f73d528ec81aa0465e5de3f5e805994bd2c37192476d29c6df96cb61d3cb5"),
    ])
    def test_full_search_matches_recorded_output(self, k, ratio, count,
                                                 digest):
        # recorded from the exhaustive q <= K search, before it was
        # narrowed to the divisors of K
        rows = enumerate_schemes(k, ratio, include_dominated=True)
        keys = [(r.family.value, r.q, r.z, r.m, r.t, str(r.rate), r.f)
                for r in rows]
        assert len(rows) == count
        assert hashlib.sha256(repr(keys).encode()).hexdigest() == digest

    @pytest.mark.parametrize("ratio", [
        Fraction(1, 10**400),
        1 - Fraction(2, 3)**1400,
    ])
    def test_huge_denominator_stays_in_integers(self, ratio):
        assert enumerate_schemes(405, ratio) == []

    def test_integer_root(self):
        assert [_root(n, 2) for n in range(200)] == [
            math.isqrt(n) for n in range(200)]
        for n in (10**400, 10**400 - 1, 3**1400):
            for t in (1, 3, 7):
                r = _root(n, t)
                assert r**t <= n < (r + 1)**t

    @pytest.mark.parametrize("t", [1, 2, 3, 5, 8])
    def test_solve_binomial_matches_scan(self, t):
        for target in range(1, 400):
            m = t
            while math.comb(m, t) < target:
                m += 1
            want = m if math.comb(m, t) == target else None
            assert _solve_binomial(target, t, t) == want
        assert _solve_binomial(math.comb(10**6, 7), 7, 8) == 10**6

    def test_m_range_domain(self):
        for k, q, t in ((0, 2, 1), (4, 1, 1), (4, 2, 0)):
            with pytest.raises(ValueError, match="need K >= 1"):
                estimate_m_range(k, q, t)

    def test_impossible_target_is_empty(self):
        assert enumerate_schemes(3, Fraction(1, 2)) == []

    def test_sorted_by_rate(self):
        rows = enumerate_schemes(405, Fraction(2, 3))
        rates = [r.rate for r in rows]
        assert rates == sorted(rates)

    def test_domain(self):
        with pytest.raises(ValueError):
            enumerate_schemes(1, Fraction(1, 2))
        with pytest.raises(ValueError):
            enumerate_schemes(4, Fraction(3, 2))


class TestEstimateMRange:
    def test_reference_point(self):
        lo, hi = estimate_m_range(405, 3, 1)
        assert math.isclose(lo, 405 / (math.e * 3))
        assert math.isclose(hi, 135.0)
        assert lo < 134 < hi  # the known dimension sits inside

    def test_k_equal_q_boundary(self):
        lo, hi = estimate_m_range(5, 5, 1)
        assert math.isclose(lo, 1 / math.e) and math.isclose(hi, 1.0)

    def test_contains_generating_dimension(self):
        import math as _m
        q, t, m = 3, 2, 10
        k = _m.comb(m, t) * q**t
        lo, hi = estimate_m_range(k, q, t)
        assert lo < m < hi

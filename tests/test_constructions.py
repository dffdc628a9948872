"""Family generators against checked-in arrays, counting oracles, and the
closed-form parameter evaluator."""

import hashlib
import math
import time
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from helpers import (fixture_text, naive_mn, naive_params, naive_valid,
                     naive_vector)
from pdakit import (ConstructionParams, Family, ParamDomainError, PdaParams,
                    SizeCapError, construct, construct_ext_general,
                    construct_ext_special, construct_general, construct_mn,
                    construct_special, equivalent, mn_params, params_of,
                    parse, standard_sweep, theorem_params, verify_pda)
from pdakit import constructions
from pdakit.constructions import VECTOR_FAMILIES
from pdakit.core import _count_text

P_3221 = ConstructionParams(3, 2, 2, 1)

# SHA-256 over every standard_sweep() array and mn(4,2), mn(6,3), mn(8,4),
# recorded from the four separate digit-vector constructors before they
# were merged into construct
SWEEP_DIGEST = (
    "f26d3e393c157777bacebee58fea85ccb122be53faf7cbb1293d324b5840e02e")


class TestGoldenArrays:
    """The five fixtures are exact transcriptions; constructions must match
    them cell-for-cell up to a bijective relabeling of symbols."""

    @pytest.mark.parametrize("build, fixture, expected", [
        (lambda: construct_general(3, 2, 2, 1),
         "general_q3_z2_m2_t1.pda", (6, 18, 12, 9)),
        (lambda: construct_special(3, 2, 2),
         "special_q3_z2_m2.pda", (9, 18, 12, 9)),
        (lambda: construct_ext_general(3, 2, 2, 1),
         "ext_general_q3_z2_m2_t1.pda", (12, 9, 6, 9)),
        (lambda: construct_ext_special(3, 2, 2),
         "ext_special_q3_z2_m2.pda", (15, 9, 6, 9)),
        (lambda: construct_mn(4, 2), "mn_k4_t2.pda", (4, 6, 3, 4)),
    ])
    def test_matches_fixture(self, build, fixture, expected):
        arr = build()
        fix = parse(fixture_text(fixture))
        assert verify_pda(fix).valid
        assert params_of(arr).as_tuple() == expected
        assert params_of(fix).as_tuple() == expected
        assert equivalent(arr, fix)


class TestGeneral:
    def test_w1_parameters_by_counting(self):
        # q=3, z=1: w=1, so the replication digit is constant
        arr = construct_general(3, 1, 2, 1)
        assert naive_valid(arr.to_rows())
        assert naive_params(arr.to_rows()) == (6, 9, 3, 18)

    def test_binary_smallest_case(self):
        arr = construct_general(2, 1, 2, 1)
        assert naive_valid(arr.to_rows())
        assert naive_params(arr.to_rows()) == (4, 4, 2, 4)
        p = params_of(arr)
        assert p.ratio == Fraction(1, 2) and p.rate == 1

    def test_t2_case_against_oracle(self):
        arr = construct_general(3, 2, 3, 2)
        assert naive_valid(arr.to_rows())
        assert params_of(arr) == theorem_params(Family.GENERAL,
                                                ConstructionParams(3, 2, 3, 2))

    def test_deterministic(self):
        assert construct_general(3, 2, 2, 1) == construct_general(3, 2, 2, 1)


class TestSpecial:
    def test_z1_matches_plain_qary_row(self):
        arr = construct_special(3, 1, 2)
        assert naive_valid(arr.to_rows())
        assert naive_params(arr.to_rows()) == (9, 9, 3, 18)

    def test_m1_binary(self):
        arr = construct_special(2, 1, 1)
        assert naive_valid(arr.to_rows())
        assert naive_params(arr.to_rows()) == (4, 2, 1, 2)
        p = params_of(arr)
        assert p.ratio == Fraction(1, 2) and p.rate == 1


class TestExtGeneral:
    def test_w1_collapses_to_general_shape(self):
        a = construct_ext_general(3, 1, 2, 1)
        assert naive_params(a.to_rows()) == (6, 9, 3, 18)
        assert a == construct_general(3, 1, 2, 1)

    def test_t2_binary_by_counting(self):
        arr = construct_ext_general(2, 1, 3, 2)
        assert naive_valid(arr.to_rows())
        assert naive_params(arr.to_rows()) == (12, 8, 6, 8)


class TestExtSpecial:
    def test_w1_equals_special(self):
        assert construct_ext_special(3, 1, 2) == construct_special(3, 1, 2)

    @pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (3, 2), (4, 2)])
    def test_w1_equality_holds_across_sizes(self, q, m):
        assert construct_ext_special(q, 1, m) == construct_special(q, 1, m)

    def test_binary_smallest_case(self):
        arr = construct_ext_special(2, 1, 1)
        assert naive_params(arr.to_rows()) == (4, 2, 1, 2)


class TestMn:
    def test_smallest(self):
        arr = construct_mn(2, 1)
        assert arr.to_rows() == [["*", 1], [1, "*"]]
        assert params_of(arr).as_tuple() == (2, 2, 1, 1)

    def test_k5_binomial_counts(self):
        arr = construct_mn(5, 2)
        assert verify_pda(arr).valid
        p = params_of(arr)
        assert p.as_tuple() == (5, comb(5, 2), comb(4, 1), comb(5, 3))
        assert p.as_tuple() == (5, 10, 4, 10)
        assert p.rate == 1

    def test_rate_formula_over_small_grid(self):
        for k in range(2, 7):
            for t in range(1, k):
                p = params_of(construct_mn(k, t))
                assert p.rate == Fraction(k - t, t + 1)
                assert p.ratio == Fraction(t, k)

    def test_matches_naive_loop(self):
        for k in range(2, 15):
            for t in range(1, k):
                assert (construct_mn(k, t).grid == naive_mn(k, t)).all()

    @pytest.mark.parametrize("cells", [1, 50, 1000])
    def test_row_blocks_split_mid_array(self, monkeypatch, cells):
        # blocks of one row, of a few rows with a short last block, and of
        # many rows; K above the block gives one row per block
        monkeypatch.setattr(constructions, "_BLOCK_CELLS", cells)
        for k, t in [(6, 3), (7, 2), (9, 4), (12, 5), (13, 1), (14, 13),
                     (60, 1)]:
            assert (construct_mn(k, t).grid == naive_mn(k, t)).all(), (k, t)


class TestCellRule:
    """construct against the cell rule evaluated one cell at a time."""

    @staticmethod
    def cases():
        for family in VECTOR_FAMILIES:
            special = family in (Family.SPECIAL, Family.EXT_SPECIAL)
            for q in range(2, 8):
                for z in range(1, q):
                    for t in (1,) if special else (1, 2, 3):
                        for m in range(1 if special else t + 1, 5):
                            p = ConstructionParams(q, z, m, t)
                            tp = theorem_params(family, p)
                            if tp.f * tp.k <= 20_000:
                                yield family, p

    def test_matches_naive_vector(self):
        count = 0
        for family, p in self.cases():
            want = naive_vector(family, p.q, p.z, p.m, p.t)
            got = construct(family, p).grid
            assert got.shape == want.shape, (family, p)
            assert (got == want).all(), (family, p)
            count += 1
        assert count == 256


def _traced_peak(build):
    tracemalloc.start()
    try:
        arr = build()
        return arr.grid.nbytes, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConstructMemory:
    """Peak traced bytes of a build, as a multiple of its int32 grid."""

    def test_vector_family_peak(self):
        # general(6,5,3,2): a 2.3 MB grid; the per-position broadcast
        # build peaked at 10.1 MB, the table gather at 3.1 MB
        grid, peak = _traced_peak(lambda: construct_general(6, 5, 3, 2))
        assert grid == 2_332_800
        assert peak < 2 * grid

    def test_mn_peak(self):
        # mn(16,8): a 0.8 MB grid; the (t+1)-subset scatter peaked at
        # 4.05 MB, the row blocks at 2.8 MB
        grid, peak = _traced_peak(lambda: construct_mn(16, 8))
        assert grid == 823_680
        assert peak < 4 * grid


class TestTheoremParams:
    def test_matches_counted_on_goldens(self):
        assert theorem_params(Family.GENERAL, P_3221).as_tuple() == (6, 18, 12, 9)
        assert theorem_params(Family.SPECIAL,
                              ConstructionParams(3, 2, 2)).as_tuple() == (9, 18, 12, 9)
        assert theorem_params(Family.EXT_GENERAL, P_3221).as_tuple() == (12, 9, 6, 9)
        assert theorem_params(Family.EXT_SPECIAL,
                              ConstructionParams(3, 2, 2)).as_tuple() == (15, 9, 6, 9)

    def test_big_integer_evaluation(self):
        p = theorem_params(Family.SPECIAL, ConstructionParams(15, 10, 26))
        assert p.k == 405
        assert p.rate == Fraction(5, 2)
        assert math.isclose(math.log(p.f), math.log(2) + 26 * math.log(15),
                            rel_tol=1e-12)
        assert abs(math.log(p.f) - 71.1025) < 1e-3

        p = theorem_params(Family.EXT_SPECIAL, ConstructionParams(9, 6, 22))
        assert p.k == (22 * 2 + 1) * 9 == 405
        assert p.rate == 3
        assert abs(math.log(p.f) - 48.3389) < 1e-3

    def test_huge_f_not_materialized(self):
        p = theorem_params(Family.SPECIAL, ConstructionParams(3, 2, 134))
        assert p.f == 2 * 3**134  # hundreds of bits, exact

    def test_mn_params(self):
        assert mn_params(4, 2) == PdaParams(4, 6, 3, 4)


class TestDomains:
    def test_z_equal_q_rejected(self):
        with pytest.raises(ParamDomainError, match="z must"):
            construct_general(3, 3, 2, 1)

    def test_z_zero_rejected(self):
        with pytest.raises(ParamDomainError, match="z must"):
            construct_special(3, 0, 2)

    def test_t_equal_m_rejected_for_general(self):
        with pytest.raises(ParamDomainError, match="t must"):
            construct_general(3, 2, 2, 2)
        with pytest.raises(ParamDomainError, match="t must"):
            construct_ext_general(3, 2, 2, 2)

    def test_special_families_fix_t(self):
        for family in (Family.SPECIAL, Family.EXT_SPECIAL):
            with pytest.raises(ParamDomainError, match="fixes t = 1"):
                construct(family, ConstructionParams(3, 2, 2, 2))

    def test_mn_needs_two_users(self):
        with pytest.raises(ParamDomainError, match="K must be at least 2"):
            mn_params(1, 1)

    def test_construct_refers_mn_to_construct_mn(self):
        with pytest.raises(ParamDomainError, match="call construct_mn"):
            construct(Family.MN, P_3221)

    def test_theorem_params_refers_mn_to_mn_params(self):
        with pytest.raises(ParamDomainError, match="use mn_params"):
            theorem_params("mn", ConstructionParams(3, 2, 2, 2))

    def test_q_below_two_rejected(self):
        with pytest.raises(ParamDomainError, match="q must"):
            construct_ext_special(1, 0, 1)

    def test_mn_t_out_of_range(self):
        with pytest.raises(ParamDomainError, match="t must"):
            construct_mn(4, 4)
        with pytest.raises(ParamDomainError, match="t must"):
            construct_mn(4, 0)

    def test_cell_cap(self):
        # F*K = 2*3^12 * 36, above the fixed 10^7-cell cap
        with pytest.raises(SizeCapError, match="cap"):
            construct_general(3, 2, 12, 1)

    @pytest.mark.parametrize("build, count", [
        # exact counts that print are written in full
        (lambda: construct_mn(100, 50), str(comb(100, 50) * 100)),
        (lambda: construct_general(3, 1, 40, 20),
         str(comb(40, 20) * 3**60)),
        # counts over 4300 digits are refused from a lower bound
        (lambda: construct_mn(600_000, 300_000), "more than 10^4300"),
        (lambda: construct_mn(30_000, 15_000), "more than 10^4300"),
        (lambda: construct_general(2, 1, 200_000, 100_000),
         "more than 10^4300"),
        (lambda: construct_ext_special(10**50, 1, 10**6), "more than 10^4349"),
    ], ids=["mn(100,50)", "general(3,1,40,20)", "mn(600000,300000)",
            "mn(30000,15000)", "general(2,1,200000,100000)",
            "ext-special(10^50,1,10^6)"])
    def test_cap_message_count(self, build, count):
        start = time.perf_counter()
        with pytest.raises(SizeCapError) as info:
            build()
        assert time.perf_counter() - start < 2
        assert str(info.value) == (f"array would hold {count} cells, "
                                   "above the cap of 10000000")

    # 2^26602 is just above 10^8007, so a d from a rounded-up log10(2)
    # would overshoot it
    @pytest.mark.parametrize("n", [10**4300, 10**4300 + 1, 2**20_000,
                                   2**26_602, 10**6000 - 1, 10**6000],
                             ids=["10^4300", "10^4300+1", "2^20000",
                                  "2^26602", "10^6000-1", "10^6000"])
    def test_unprintable_count_is_a_true_bound(self, n):
        text = _count_text(n)
        assert text.startswith("more than 10^")
        d = int(text.removeprefix("more than 10^"))
        assert 10**d < n and 10**(d + 2) > n
        assert _count_text(10**4300 - 1) == "9" * 4300


class TestSweepAndSpecializations:
    def test_sweep_yields_reasonable_count(self):
        combos = list(standard_sweep())
        assert len(combos) > 150
        assert all(theorem_params(f, p).f * theorem_params(f, p).k <= 10**6
                   for f, p in combos)

    def test_sweep_arrays_unchanged(self):
        h = hashlib.sha256()
        for family, p in standard_sweep():
            h.update(repr((family.value, (p.q, p.z, p.m, p.t))).encode())
            h.update(construct(family, p).grid.tobytes())
        for k, t in [(4, 2), (6, 3), (8, 4)]:
            h.update(repr(("mn", (k, t))).encode())
            h.update(construct_mn(k, t).grid.tobytes())
        assert h.hexdigest() == SWEEP_DIGEST

    def test_small_sweep_verifies_and_counts(self):
        for family, p in standard_sweep(max_cells=4000):
            arr = construct(family, p)
            assert verify_pda(arr).valid, (family, p)
            assert params_of(arr) == theorem_params(family, p), (family, p)

    def test_specialization_to_plain_qary_families(self):
        # z=1 and z=q-1 reduce the general family to the two classical rows
        for q, m, t in [(2, 3, 1), (3, 3, 1), (3, 3, 2), (4, 3, 1)]:
            got = params_of(construct_general(q, 1, m, t))
            assert got == PdaParams(
                k=comb(m, t) * q**t,
                f=q**m,
                z=q**m - q**(m - t) * (q - 1)**t,
                s=(q - 1)**t * q**m)
            got = params_of(construct_general(q, q - 1, m, t))
            assert got == PdaParams(
                k=comb(m, t) * q**t,
                f=(q - 1)**t * q**m,
                z=(q - 1)**t * (q**m - q**(m - t)),
                s=q**m)

    def test_specialization_special_z1(self):
        for q, m in [(2, 2), (3, 2), (4, 2), (5, 2)]:
            got = params_of(construct_special(q, 1, m))
            assert got == PdaParams(k=(m + 1) * q, f=q**m,
                                    z=q**(m - 1), s=(q - 1) * q**m)
            assert got.rate == q - 1

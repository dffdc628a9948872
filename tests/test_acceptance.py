"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import numpy as np

from helpers import fixture_text, slots
from pdakit import (ConstructionParams, Family, PacketStore, construct,
                    construct_ext_general, construct_ext_special,
                    construct_general, construct_mn, construct_special,
                    deliver, decode_and_verify, enumerate_schemes,
                    equivalent, estimate_m_range, compare_general,
                    compare_special, params_of, parse, standard_sweep,
                    theorem_params, verify_pda)


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} PASS  {description} ({elapsed:.2f}s)")


SWEEP = list(standard_sweep(max_cells=1_000_000))
_BUILT: dict = {}


def built(family, p):
    """Construct each swept array once; criteria 2, 4 and 8 share them."""
    key = (family, p)
    if key not in _BUILT:
        _BUILT[key] = construct(family, p)
    return _BUILT[key]


def test_criterion_1_golden_arrays():
    with criterion(1, "constructions match the five checked-in arrays "
                      "up to symbol relabeling"):
        cases = [
            (construct_general(3, 2, 2, 1), "general_q3_z2_m2_t1.pda",
             (6, 18, 12, 9)),
            (construct_special(3, 2, 2), "special_q3_z2_m2.pda",
             (9, 18, 12, 9)),
            (construct_ext_general(3, 2, 2, 1), "ext_general_q3_z2_m2_t1.pda",
             (12, 9, 6, 9)),
            (construct_ext_special(3, 2, 2), "ext_special_q3_z2_m2.pda",
             (15, 9, 6, 9)),
            (construct_mn(4, 2), "mn_k4_t2.pda", (4, 6, 3, 4)),
        ]
        for arr, fixture, expected in cases:
            fix = parse(fixture_text(fixture))
            assert params_of(arr).as_tuple() == expected
            assert params_of(fix).as_tuple() == expected
            assert equivalent(arr, fix), fixture


def test_criterion_2_verifier_sweep():
    with criterion(2, f"all {len(SWEEP)} swept arrays verify and count to "
                      "the closed-form parameters"):
        assert len(SWEEP) > 100
        for family, p in SWEEP:
            arr = built(family, p)
            report = verify_pda(arr)
            assert report.valid, (family, p, report.violations[:2])
            assert params_of(arr) == theorem_params(family, p), (family, p)


def test_criterion_3_simulation_trace():
    with criterion(3, "reference demand reproduces the known XOR term sets "
                      "and decodes bit-exactly"):
        arr = parse(fixture_text("mn_k4_t2.pda"))
        store = PacketStore.synthetic(6, arr.f)
        demand = [1, 2, 3, 4]
        log = deliver(arr, store, demand)
        term_sets = [";".join(f"({k},{j})" for k, j in terms)
                     for _, terms, _ in slots(log)]
        assert term_sets == [
            "(1,4);(2,2);(3,1)",
            "(1,5);(2,3);(4,1)",
            "(1,6);(3,3);(4,2)",
            "(2,6);(3,5);(4,4)",
        ]
        report = decode_and_verify(arr, store, demand, log)
        assert report.success
        assert all(u.decoded_hash == u.expected_hash for u in report.users)
        assert report.bytes_sent == 4 * store.packet_size
        assert report.rate == Fraction(4, 6)


def test_criterion_4_decode_property_over_sweep():
    with criterion(4, "every swept array decodes 10 random demands plus the "
                      "all-equal demand, with exact traffic"):
        for family, p in SWEEP:
            arr = built(family, p)
            n = arr.k
            store = PacketStore.synthetic(n, arr.f, packet_size=64, seed=0)
            s_count = params_of(arr).s
            rng = np.random.default_rng(0)
            demands = [rng.integers(1, n + 1, size=arr.k).tolist()
                       for _ in range(10)]
            demands.append([1] * arr.k)
            for demand in demands:
                log = deliver(arr, store, demand)
                report = decode_and_verify(arr, store, demand, log)
                assert report.success, (family, p, demand)
                assert report.bytes_sent == s_count * 64


def test_criterion_5_scheme_enumeration():
    with criterion(5, "the 405-user 2/3-ratio target enumerates to exactly "
                      "the 13 reference rows"):
        expected = [
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
        rows = enumerate_schemes(405, Fraction(2, 3))
        assert len(rows) == 13
        for row, (family, q, z, m, rate, ln_f) in zip(rows, expected):
            assert row.family is family
            assert (row.q, row.z, row.m) == (q, z, m)
            assert row.rate == rate
            assert abs(row.ln_f - ln_f) < 1e-3


def test_criterion_6_comparison_tables():
    with criterion(6, "both baseline comparison sweeps reproduce the printed "
                      "bounds within 1e-12 relative"):
        general_rows = {
            11: (0.15625, 0.00137174211248285),
            12: (0.15625, 0.001953125),
            13: (0.15625, 0.00291545189504373),
            14: (0.0137174211248285, 0.00462962962962963),
            15: (0.0137174211248285, 0.008),
            16: (0.00244140625, 0.015625),
            17: (0.000214334705075446, 0.037037037037037),
            18: (1.88167642315892e-05, 0.125),
        }
        special_rows = {
            11: (0.5, 0.1),
            12: (0.5, 0.1),
            13: (0.5, 0.1),
            14: (0.222222222222222, 0.15),
            15: (0.222222222222222, 0.15),
            16: (0.125, 0.2),
            17: (0.0555555555555556, 0.3),
            18: (0.0246913580246914, 0.45),
        }
        for z, (r_want, f_want) in general_rows.items():
            res = compare_general(20, z, 3, 0.1)
            assert abs(res.r_bound - r_want) <= 1e-12 * r_want, z
            assert abs(res.f_value_or_bound - f_want) <= 1e-12 * f_want, z
        for z, (r_want, f_want) in special_rows.items():
            res = compare_special(20, z, 0.5)
            assert abs(res.r_bound - r_want) <= 1e-12 * r_want, z
            assert abs(res.f_value_or_bound - f_want) <= 1e-12 * f_want, z


def test_criterion_7_growth_estimate():
    with criterion(7, "the generating dimension always falls inside the "
                      "estimated open interval"):
        for t in (2, 3):
            for q in (2, 3, 5):
                for m in range(t + 1, 13):
                    k = comb(m, t) * q**t
                    lo, hi = estimate_m_range(k, q, t)
                    assert lo < m < hi, (t, q, m)


def test_criterion_8_specialization_identities():
    with criterion(8, "z=1 and z=q-1 collapse to the two classical general "
                      "rows; z=1 t=1 to the classical q-ary row"):
        for family, p in SWEEP:
            q, z, m, t = p.q, p.z, p.m, p.t
            if family is Family.GENERAL and z == 1:
                got = params_of(built(family, p))
                assert got.as_tuple() == (
                    comb(m, t) * q**t,
                    q**m,
                    q**m - q**(m - t) * (q - 1)**t,
                    (q - 1)**t * q**m)
            if family is Family.GENERAL and z == q - 1:
                got = params_of(built(family, p))
                assert got.as_tuple() == (
                    comb(m, t) * q**t,
                    (q - 1)**t * q**m,
                    (q - 1)**t * (q**m - q**(m - t)),
                    q**m)
            if family is Family.SPECIAL and z == 1:
                got = params_of(built(family, p))
                assert got.as_tuple() == (
                    (m + 1) * q, q**m, q**(m - 1), (q - 1) * q**m)
                assert got.rate == q - 1

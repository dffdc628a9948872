"""Gate on construct_mn and emit: array bytes and file text.

The digests were recorded before construct_mn stopped ranking subsets one
at a time and before emit stopped formatting numpy scalars, so any change
of array or of output byte shows here.  The wide vector-family digest was
recorded before construct filled its grid from row and column digit tables;
it reaches every t = 3 array and every q of 7-9 that standard_sweep leaves
out.  The large-array digests were recorded before construct gathered its
vector block from per-delta lookup tables and before construct_mn ranked
its cells from the t-subset rows in row blocks; they reach the arrays at
the cell cap that the other digests stop short of.
"""

import hashlib

from pdakit import (ConstructionParams, Family, construct, construct_mn, emit,
                    standard_sweep, theorem_params)
from pdakit.constructions import VECTOR_FAMILIES

MN_CASES = ((2, 1), (4, 2), (6, 3), (8, 4), (12, 11), (16, 8), (20, 3),
            (24, 4), (30, 1))


def test_mn_arrays_unchanged():
    h = hashlib.sha256()
    for k, t in MN_CASES:
        grid = construct_mn(k, t).grid
        h.update(repr((k, t, grid.shape, str(grid.dtype))).encode())
        h.update(grid.tobytes())
    assert h.hexdigest() == (
        "f822bc41dd86dbdf3c31537a4f396670eaf9e4beb7c4d4a627e4b224afd6b568")


def test_emitted_text_unchanged():
    h = hashlib.sha256()
    count = 0
    for family, p in standard_sweep(max_cells=100_000):
        h.update(emit(construct(family, p)).encode())
        count += 1
    for k, t in MN_CASES:
        h.update(emit(construct_mn(k, t)).encode())
        count += 1
    assert (count, h.hexdigest()) == (
        225,
        "08fb6b5c670e814aee58a95238262c1c700b4b7558f9d07ad8666ebf36348200")


def wide_vector_cases():
    """Vector-family tuples on a wider grid than standard_sweep: q 2-9, t
    up to 3, m up to 5, at most 50k cells; t = 1 for the special families."""
    for family in VECTOR_FAMILIES:
        special = family in (Family.SPECIAL, Family.EXT_SPECIAL)
        for q in range(2, 10):
            for z in range(1, q):
                for t in (1,) if special else (1, 2, 3):
                    for m in range(t + 1, 6):
                        p = ConstructionParams(q, z, m, t)
                        tp = theorem_params(family, p)
                        if tp.f * tp.k <= 50_000:
                            yield family, p


def test_wide_vector_arrays_unchanged():
    h = hashlib.sha256()
    count = 0
    for family, p in wide_vector_cases():
        h.update(repr((family.value, p.q, p.z, p.m, p.t)).encode())
        h.update(construct(family, p).grid.tobytes())
        count += 1
    assert (count, h.hexdigest()) == (
        387,
        "23e447e997f6092e865a4523ff74f540834bf6308f864bb6c667e76cef52324e")


LARGE_VECTOR_CASES = ((Family.GENERAL, (10, 6, 5, 1)),
                      (Family.SPECIAL, (4, 3, 8, 1)),
                      (Family.EXT_SPECIAL, (6, 5, 4, 1)),
                      (Family.GENERAL, (2, 1, 12, 3)))
LARGE_MN_CASES = ((24, 4), (20, 3), (16, 8), (30, 2), (21, 10))


def test_large_vector_arrays_unchanged():
    h = hashlib.sha256()
    for family, p in LARGE_VECTOR_CASES:
        grid = construct(family, ConstructionParams(*p)).grid
        h.update(repr((family.value, p, grid.shape, str(grid.dtype))).encode())
        h.update(grid.tobytes())
    assert h.hexdigest() == (
        "1530d39ece9ee0251bcc1c4786c0bd88a4825029616c69acbe95a19766bee7b0")


def test_large_mn_arrays_unchanged():
    h = hashlib.sha256()
    for k, t in LARGE_MN_CASES:
        grid = construct_mn(k, t).grid
        h.update(repr((k, t, grid.shape, str(grid.dtype))).encode())
        h.update(grid.tobytes())
    assert h.hexdigest() == (
        "8f57f726ca15eae971e498006f4ffb8442f3f8b3331c0e0fa805691a02a338a4")

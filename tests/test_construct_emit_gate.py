"""Gate on construct_mn and emit: array bytes and file text.

The digests were recorded before construct_mn stopped ranking subsets one
at a time and before emit stopped formatting numpy scalars, so any change
of array or of output byte shows here.
"""

import hashlib

from pdakit import construct, construct_mn, emit, standard_sweep

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

"""Data model, verifier, canonical form, equivalence."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import (fixture_text, naive_check, reference_scan_summary,
                     scan_summary)
from pdakit import (PacketStore, PdaArray, PdaError, PdaParams, _kernels,
                    canonicalize, construct_ext_general, construct_mn,
                    deliver, equivalent, params_of, parse, verify_pda)
from pdakit.core import SYMBOL_MAX, _CellTable

MN_4_2 = parse(fixture_text("mn_k4_t2.pda"))
GEN_18x6 = parse(fixture_text("general_q3_z2_m2_t1.pda"))


class TestPdaArray:
    def test_from_rows_and_back(self):
        arr = PdaArray.from_rows([["*", 1], [1, "*"]])
        assert arr.f == 2 and arr.k == 2
        assert arr.to_rows() == [["*", 1], [1, "*"]]

    def test_none_means_star(self):
        assert PdaArray.from_rows([[None, 1]]) == PdaArray.from_rows([["*", 1]])

    def test_rejects_negative_cells(self):
        with pytest.raises(PdaError):
            PdaArray(np.array([[-1, 2]]))

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(PdaError):
            PdaArray(np.empty((0, 3), dtype=np.int32))
        with pytest.raises(PdaError):
            PdaArray.from_rows([[1, 2], [1]])

    def test_rejects_2_32_cells_without_copying(self):
        # a broadcast view of 2^32 cells allocates nothing; copying it would
        # take 16 GiB
        view = np.broadcast_to(np.int32(1), (1 << 16, 1 << 16))
        with pytest.raises(PdaError, match="2\\^32"):
            PdaArray(view)

    def test_grid_immutable(self):
        with pytest.raises(ValueError):
            MN_4_2.grid[0, 0] = 5

    def test_rejects_non_integer_and_over_int32_cells(self):
        with pytest.raises(PdaError, match="must be integers"):
            PdaArray(np.array([[1.5]]))
        with pytest.raises(PdaError, match="int32"):
            PdaArray(np.array([[SYMBOL_MAX + 1]], dtype=np.int64))
        assert PdaArray(np.array([[SYMBOL_MAX]])).to_rows() == [[SYMBOL_MAX]]

    def test_attributes_cannot_be_set(self):
        with pytest.raises(AttributeError, match="immutable"):
            MN_4_2.grid = MN_4_2.grid

    def test_equality_hash_and_repr(self):
        copy = PdaArray(MN_4_2.grid)
        assert copy == MN_4_2 and len({copy, MN_4_2}) == 1
        assert MN_4_2.__eq__("mn") is NotImplemented and MN_4_2 != "mn"
        assert repr(MN_4_2) == "PdaArray(F=6, K=4)"

    def test_grid_not_shared_with_writable_base(self):
        base = np.array([[0, 1], [1, 0]], dtype=np.int32)
        arr = PdaArray(base[:, :])
        base[0, 0] = 5
        assert arr.grid.tolist() == [[0, 1], [1, 0]]

    def test_grid_not_shared_with_owning_input(self):
        # an owning int32 input is copied too, so the cached delivery plan
        # cannot go stale under a caller's later write
        g = np.array([[0, 1], [1, 0]], dtype=np.int32)
        arr = PdaArray(g)
        store = PacketStore.synthetic(2, 2, 8, seed=1)
        before = deliver(arr, store, [1, 2])
        g.flags.writeable = True
        g[0, 0] = 2
        assert arr.grid.tolist() == [[0, 1], [1, 0]]
        assert deliver(arr, store, [1, 2]) == before

    @pytest.mark.parametrize("build", [
        lambda: construct_mn(4, 2),
        lambda: construct_ext_general(2, 1, 2, 1),
        lambda: canonicalize(MN_4_2),
        lambda: parse(fixture_text("mn_k4_t2.pda")),
    ])
    def test_built_grids_are_read_only(self, build):
        grid = build().grid
        assert grid.dtype == np.int32 and grid.flags.c_contiguous
        with pytest.raises(ValueError):
            grid[0, 0] = 5


def _peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPairScan:
    def test_tiles_bound_memory(self, monkeypatch):
        # one symbol on the diagonal of a 1000 x 1000 grid and in cell
        # (1, 2): a 1001-cell group whose 1001 x 1001 block spans many tiles
        grid = np.zeros((1000, 1000), dtype=np.int32)
        np.fill_diagonal(grid, 1)
        grid[0, 1] = 1
        t = _CellTable(grid)
        rows, cols, starts = t.rows, t.cols, t.starts
        monkeypatch.setattr(_kernels, "CHUNK_CELLS", 1 << 14)
        scan = lambda: _kernels.c3_pair_scan(grid, rows, cols, starts, 2)
        scan()  # numpy's lazy imports are not the scan's memory
        got, peak = _peak(scan)
        expected = reference_scan_summary(grid, rows, cols, starts, 2)
        assert scan_summary(got) == expected
        assert expected[:2] == (2, 1)
        assert expected[3:] == ([[[0, 0, 0, 1], [0, 1, 1, 1]],
                                 [[0, 0, 1, 1]]],
                                [[0, 0, 0, 1], [0, 0, 1, 1]])
        # listing all 500,500 pairs of the group would take over 20 MB
        assert peak < 1 << 20

    def test_valid_scan_memory_is_the_clean_budget(self):
        # a valid array gets only the clean check: its chunk's cell index,
        # row offsets and columns and the tile's offsets (four int64
        # arrays) and the gathered tile (one byte an entry), each of at
        # most CLEAN_CELLS entries, beside the sizes and starts (int64) and
        # one flag per group of a size class, and 64 KiB for the rest
        grid = construct_mn(24, 4).grid
        t = _CellTable(grid)
        mask = grid != 0
        groups = t.starts.size - 1
        scan = lambda: _kernels.c3_pair_scan(mask, t.rows, t.cols, t.starts,
                                             1000)
        scan()  # numpy's lazy imports are not the scan's memory
        got, peak = _peak(scan)
        assert len(got) == 0 and groups == 42504
        budget = (4 * 8 + 1) * _kernels.CLEAN_CELLS
        assert peak < budget + (8 + 8 + 1) * groups + (64 << 10)

    def test_faults_scan_a_one_byte_mask(self, monkeypatch):
        # _CellTable.faults gathers from grid != STAR, not the int32 grid
        seen = []
        scan = _kernels.c3_pair_scan

        def recorded(grid, *args):
            seen.append((grid.dtype.itemsize, grid.shape))
            return scan(grid, *args)
        monkeypatch.setattr(_kernels, "c3_pair_scan", recorded)
        arr = PdaArray.from_rows([[1, 2], [2, 1]])
        assert len(_CellTable(arr.grid).faults) == 2
        assert seen == [(1, (2, 2))]

    @pytest.mark.parametrize("grid", [
        construct_ext_general(5, 3, 4, 2).grid,
        # one symbol of 4096 cells, a 64 x 64 block of a 64 x 6400 grid,
        # whose pairs in a row or column all break C3
        np.pad(np.ones((64, 64), dtype=np.int32), ((0, 0), (0, 6336)))],
        ids=["valid-ext-general", "one-group"])
    def test_faults_peak_memory(self, grid):
        # the scan holds a tile and the kept pairs, not one entry per
        # cross cell or per bad pair
        _CellTable(grid).faults  # numpy's lazy imports
        t = _CellTable(grid)
        faults, peak = _peak(lambda: t.faults)
        assert peak < 6 << 20

    def test_verify_peak_memory(self):
        arr = construct_ext_general(5, 3, 4, 2)
        report, peak = _peak(lambda: verify_pda(arr))
        assert report.valid
        assert peak < 25 << 20


class TestVerify:
    def test_known_valid_array(self):
        report = verify_pda(MN_4_2)
        assert report.valid and report.violations == ()
        assert params_of(MN_4_2).as_tuple() == (4, 6, 3, 4)

    def test_single_column_vacuous(self):
        arr = PdaArray.from_rows([["*"], [1]])
        assert verify_pda(arr).valid
        assert params_of(arr).as_tuple() == (1, 2, 1, 1)

    def test_same_row_repeat_is_c3a(self):
        report = verify_pda(PdaArray.from_rows([[1, 1]]))
        assert not report.valid
        assert [v.condition for v in report.violations] == ["C3a"]
        assert report.violations[0].locations == ((1, 1), (1, 2))

    def test_symbol_cross_without_stars_is_c3b(self):
        report = verify_pda(PdaArray.from_rows([[1, 2], [2, 1]]))
        conditions = [v.condition for v in report.violations]
        assert not report.valid
        assert conditions == ["C3b", "C3b"]

    def test_gap_in_symbols_is_c2(self):
        report = verify_pda(PdaArray.from_rows([["*", 1], [3, "*"]]))
        assert [v.condition for v in report.violations] == ["C2"]
        assert "symbol 2" in report.violations[0].detail

    def test_all_star_array_flagged(self):
        report = verify_pda(PdaArray.from_rows([["*"], ["*"]]))
        assert [v.condition for v in report.violations] == ["C2"]

    def test_unequal_star_counts_is_c1(self):
        arr = PdaArray.from_rows([["*", 1], [1, "*"], [2, "*"]])
        report = verify_pda(arr)
        assert any(v.condition == "C1" for v in report.violations)

    def test_declared_s_reports_out_of_range(self):
        arr = PdaArray.from_rows([["*", 1], [1, 5]])
        report = verify_pda(arr, declared_s=1)
        assert any(v.condition == "C2" and "exceeds" in v.detail
                   for v in report.violations)

    def test_huge_declared_s_lists_1000_missing_symbols(self):
        arr = PdaArray.from_rows([["*", 1], [1, "*"]])
        report = verify_pda(arr, declared_s=10**6)
        assert len(report.violations) == 1001
        assert all(v.condition == "C2" and v.locations == ()
                   for v in report.violations)
        assert report.violations[0].detail == "symbol 2 never occurs"
        assert report.violations[999].detail == "symbol 1001 never occurs"
        assert report.violations[1000].detail == \
            "998999 more symbols never occur"

    def test_missing_symbols_skip_present_ones(self):
        arr = PdaArray.from_rows([["*", 1, 4], [3, "*", 9]])
        c2 = [v.detail for v in verify_pda(arr, declared_s=11).violations
              if v.condition == "C2"]
        assert c2 == [f"symbol {s} never occurs"
                      for s in (2, 5, 6, 7, 8, 10, 11)]

    def test_symbols_above_s_list_cells_row_major(self):
        arr = PdaArray.from_rows([["*", 1, 5], [5, "*", 1], [6, 5, "*"]])
        c2 = [(v.locations, v.detail)
              for v in verify_pda(arr, declared_s=1).violations
              if v.condition == "C2"]
        assert c2 == [
            (((1, 3), (2, 1), (3, 2)), "symbol 5 exceeds S=1"),
            (((3, 1),), "symbol 6 exceeds S=1"),
        ]

    def test_declared_z_reports_every_short_column(self):
        arr = PdaArray.from_rows([["*", 1], [1, "*"]])
        report = verify_pda(arr, declared_z=2)
        assert [v.condition for v in report.violations] == ["C1", "C1"]

    def test_all_violations_reported_not_first(self):
        # one corrupt cell breaks C1 and C2 at once
        rows = MN_4_2.to_rows()
        rows[0][0] = 5
        report = verify_pda(PdaArray.from_rows(rows), declared_z=3, declared_s=4)
        conds = {v.condition for v in report.violations}
        assert "C1" in conds and "C2" in conds

    def test_violation_order_deterministic(self):
        rows = [[1, 1, 2], [2, "*", 1]]
        a = verify_pda(PdaArray.from_rows(rows))
        b = verify_pda(PdaArray.from_rows(rows))
        assert a == b

    def test_matches_naive_oracle_on_corrupted_grids(self):
        rng = np.random.default_rng(7)
        base = GEN_18x6.to_rows()
        for _ in range(25):
            rows = [list(r) for r in base]
            for _ in range(int(rng.integers(1, 4))):
                j = int(rng.integers(0, len(rows)))
                k = int(rng.integers(0, len(rows[0])))
                rows[j][k] = int(rng.integers(1, 10))
            got = verify_pda(PdaArray.from_rows(rows)).valid
            assert got == all(naive_check(rows))

    def test_thread_safe_reads(self):
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(verify_pda, [GEN_18x6] * 16))
        assert all(r.valid for r in results)


class TestParams:
    def test_counts_large_fixture(self):
        p = params_of(GEN_18x6)
        assert p.as_tuple() == (6, 18, 12, 9)
        assert p.ratio == Fraction(2, 3)
        assert p.rate == Fraction(1, 2)

    def test_rejects_nonuniform_stars(self):
        rows = MN_4_2.to_rows()
        arr = PdaArray.from_rows([r + ["*"] for r in rows])
        with pytest.raises(PdaError, match="Z is undefined"):
            params_of(arr)

    def test_rejects_symbol_free_array(self):
        with pytest.raises(PdaError):
            params_of(PdaArray.from_rows([["*"]]))

    def test_params_need_positive_k_and_f(self):
        for k, f in ((0, 1), (1, 0)):
            with pytest.raises(PdaError, match="K and F must be positive"):
                PdaParams(k=k, f=f, z=0, s=1)

    def test_params_validation(self):
        with pytest.raises(PdaError):
            PdaParams(k=1, f=1, z=0, s=0)
        with pytest.raises(PdaError):
            PdaParams(k=1, f=2, z=3, s=1)


class TestCanonicalize:
    def test_renumbers_by_first_appearance(self):
        arr = PdaArray.from_rows([[2, "*"], ["*", 2]])
        assert canonicalize(arr).to_rows() == [[1, "*"], ["*", 1]]

    def test_idempotent(self):
        arr = PdaArray.from_rows([[9, "*", 4], [4, 9, "*"]])
        once = canonicalize(arr)
        assert canonicalize(once) == once

    def test_preserves_validity_and_params(self):
        canon = canonicalize(GEN_18x6)
        assert verify_pda(canon).valid
        assert params_of(canon) == params_of(GEN_18x6)
        assert equivalent(canon, GEN_18x6)

    def test_row_major_order(self):
        arr = PdaArray.from_rows([[3, 1], [1, 3]])
        assert canonicalize(arr).to_rows() == [[1, 2], [2, 1]]

    def test_sparse_huge_symbols(self):
        # memory follows the cell count, not the largest symbol
        arr = PdaArray([[0, 2147483647], [2147483647, 0]])
        tracemalloc.start()
        try:
            canon = canonicalize(arr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert canon.to_rows() == [["*", 1], [1, "*"]]
        assert peak < 1 << 20


class TestEquivalent:
    def test_identity(self):
        assert equivalent(MN_4_2, MN_4_2)

    def test_symbol_swap(self):
        rows = MN_4_2.to_rows()
        swap = {1: 2, 2: 1}
        swapped = [[swap.get(v, v) if v != "*" else v for v in r] for r in rows]
        assert equivalent(MN_4_2, PdaArray.from_rows(swapped))

    def test_transpose_differs(self):
        arr = PdaArray.from_rows([["*", 1], [1, "*"], [2, 2]])
        transposed = PdaArray(arr.grid.T)
        assert not equivalent(arr, transposed)

    def test_non_bijective_relabel_differs(self):
        a = PdaArray.from_rows([[1, 2]])
        b = PdaArray.from_rows([[1, 1]])
        assert not equivalent(a, b)
        assert not equivalent(b, a)

    def test_star_pattern_must_match(self):
        a = PdaArray.from_rows([["*", 1]])
        b = PdaArray.from_rows([[1, "*"]])
        assert not equivalent(a, b)

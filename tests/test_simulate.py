"""Placement, delivery, decoding against hand-computed byte oracles."""

import contextlib
import gc
import hashlib
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (FIXTURES, fixture_text, flipped, integers_store,
                     log_of, naive_decode, naive_deliver, naive_trace, slots)
from pdakit import (ConstructionParams, Family, PacketStore, PdaArray,
                    SizeCapError, TransmissionLog, _kernels,
                    construct_ext_general, construct_general, construct_mn,
                    construct_special, decode_and_verify, deliver, parse,
                    run_simulation, simulate, theorem_params, verify_pda)
from pdakit.cli import main

MN_4_2 = parse(fixture_text("mn_k4_t2.pda"))
TWO_USER = PdaArray.from_rows([["*", 1], [1, "*"]])


def xor(*blocks):
    out = np.zeros_like(blocks[0])
    for b in blocks:
        out = out ^ b
    return out


class TestPacketStore:
    def test_shape_and_determinism(self):
        a = PacketStore.synthetic(3, 5, 16, seed=42)
        b = PacketStore.synthetic(3, 5, 16, seed=42)
        assert a.data.shape == (3, 5, 16)
        assert np.array_equal(a.data, b.data)
        c = PacketStore.synthetic(3, 5, 16, seed=43)
        assert not np.array_equal(a.data, c.data)

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**64), n=st.integers(1, 4),
           f=st.integers(1, 9),
           size=st.sampled_from([1, 3, 8, 13]) | st.integers(1, 40))
    def test_draw_equals_integers_draw(self, seed, n, f, size):
        # the raw-word draw rests on how numpy fills a full-range uint8
        # draw; this pins it against the sampler itself
        data = PacketStore.synthetic(n, f, size, seed).data
        assert np.array_equal(data, integers_store(n, f, size, seed))
        assert data.base is None and not data.flags.writeable

    def test_draw_is_one_allocation(self):
        # about 8 MB, not a multiple of 8 bytes: the words are shrunk in
        # place and the store keeps them without a copy
        shape = (7, 1153, 1031)
        tracemalloc.start()
        try:
            store = PacketStore.synthetic(*shape, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert store.data.nbytes == np.prod(shape) > 8 * 10**6
        assert peak <= store.data.nbytes + (1 << 16)

    def test_packets_equal_length(self):
        store = PacketStore.synthetic(2, 3, 8)
        assert {store.data[i - 1, j - 1].nbytes for i in (1, 2)
                for j in (1, 2, 3)} == {8}

    def test_validation(self):
        with pytest.raises(ValueError):
            PacketStore.synthetic(0, 3, 8)

    @pytest.mark.parametrize("data", [
        np.zeros((2, 3, 8), dtype=np.int64),
        np.zeros((2, 3, 4), dtype=np.uint8),
        np.zeros((3, 8), dtype=np.uint8),
        [[[0] * 8] * 3] * 2,
    ])
    def test_direct_data_checked(self, data):
        with pytest.raises(ValueError, match="uint8 array of shape"):
            PacketStore(2, 3, 8, 0, data)

    def test_direct_data_frozen(self):
        data = np.arange(48, dtype=np.uint8).reshape(2, 3, 8)
        view = data[:, :, :]
        view.flags.writeable = False
        for given in (data, view):
            store = PacketStore(2, 3, 8, 0, given)
            assert not store.data.flags.writeable
            before = store.file_hash(1)
            data[0, 0, 0] ^= 0xFF
            assert store.file_hash(1) == before
            assert store.file_hash(1) == PacketStore(
                2, 3, 8, 0, store.data.copy()).file_hash(1)

    def test_store_equals_only_itself(self):
        a = PacketStore.synthetic(2, 3, 8, seed=4)
        b = PacketStore.synthetic(2, 3, 8, seed=4)
        assert a == a and a != b
        assert {a: "a", b: "b"}[a] == "a"

    def test_hash_memo_hidden(self):
        a = PacketStore.synthetic(2, 3, 8, seed=4)
        b = PacketStore.synthetic(2, 3, 8, seed=4)
        a.file_hash(1)
        assert repr(a) == repr(b)
        assert a.file_hash(2) == hashlib.sha256(
            a.data[1].tobytes()).hexdigest()


class TestDeliver:
    def test_two_user_payload_bytes(self):
        store = PacketStore.synthetic(2, 2, 8, seed=1)
        log = deliver(TWO_USER, store, [1, 2])
        want = xor(store.data[0, 1], store.data[1, 0])
        assert slots(log) == [(1, ((1, 2), (2, 1)), want.tobytes())]

    def test_known_trace(self):
        store = PacketStore.synthetic(6, 6)
        log = deliver(MN_4_2, store, [1, 2, 3, 4])
        terms = ["terms=" + ";".join(f"({k},{j})" for k, j in ts)
                 for _, ts, _ in slots(log)]
        assert terms == [
            "terms=(1,4);(2,2);(3,1)",
            "terms=(1,5);(2,3);(4,1)",
            "terms=(1,6);(3,3);(4,2)",
            "terms=(2,6);(3,5);(4,4)",
        ]
        # payload of slot 1 is W[1,4] ^ W[2,2] ^ W[3,1]
        want = xor(store.data[0, 3], store.data[1, 1], store.data[2, 0])
        assert slots(log)[0][2] == want.tobytes()
        assert log.bytes_sent == 4 * store.packet_size

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 6, 8, 12, 256])
    def test_payloads_match_bytewise_xor(self, size):
        # every word width the reduction picks from the packet size
        store = PacketStore.synthetic(6, 6, size, seed=size)
        demand = [3, 1, 6, 3]
        log = deliver(MN_4_2, store, demand)
        for _, terms, payload in slots(log):
            want = xor(*(store.data[demand[k - 1] - 1, j - 1]
                         for k, j in terms))
            assert payload == want.tobytes()

    def test_payload_count_and_order(self):
        arr = construct_special(3, 2, 2)
        store = PacketStore.synthetic(9, arr.f)
        log = deliver(arr, store, list(range(1, 10)))
        assert [s for s, _, _ in slots(log)] == list(range(1, 10))

    def test_demand_validation(self):
        store = PacketStore.synthetic(6, 6)
        with pytest.raises(ValueError, match=r"\[1, 6\]"):
            deliver(MN_4_2, store, [1, 2, 3, 7])
        with pytest.raises(ValueError, match="4 file indices"):
            deliver(MN_4_2, store, [1, 2, 3])

    @pytest.mark.parametrize("demand", [
        [1.9, 2, 3, 4],
        ["1", "2", "3", "4"],
        [np.float64(1), 2, 3, 4],
    ], ids=["float", "str", "numpy-float"])
    def test_demand_entries_must_be_integers(self, demand):
        store = PacketStore.synthetic(6, 6)
        with pytest.raises(ValueError, match="must be integers"):
            deliver(MN_4_2, store, demand)
        with pytest.raises(ValueError, match="must be integers"):
            decode_and_verify(MN_4_2, store, demand, None)

    def test_demand_beyond_int64_out_of_range(self):
        store = PacketStore.synthetic(6, 6)
        for demand in ([10**20, 1, 1, 1], [1, 1, 1, -2**64 + 1]):
            with pytest.raises(ValueError, match=r"\[1, 6\]"):
                deliver(MN_4_2, store, demand)

    def test_numpy_integer_demand_accepted(self):
        store = PacketStore.synthetic(6, 6)
        assert deliver(MN_4_2, store, np.array([2, 6, 1, 2])) == \
            deliver(MN_4_2, store, [2, 6, 1, 2])

    def test_dimension_mismatch(self):
        store = PacketStore.synthetic(6, 5)
        for call in (lambda: deliver(MN_4_2, store, [1, 2, 3, 4]),
                     lambda: decode_and_verify(MN_4_2, store, [1, 2, 3, 4],
                                               None)):
            with pytest.raises(ValueError, match="packets per file"):
                call()

    def test_trace_line_format(self):
        store = PacketStore.synthetic(2, 2, 2, seed=0)
        log = deliver(TWO_USER, store, [1, 2])
        (line,) = "".join(log.trace()).splitlines()
        assert line.startswith("s=1 terms=(1,2);(2,1) payload=")
        assert len(line.split("payload=")[1]) == 4  # 2 bytes in hex


class TestDecode:
    def test_round_trip_all_users(self):
        store = PacketStore.synthetic(6, 6)
        report = run_simulation(MN_4_2, store, [1, 2, 3, 4])
        assert report.success
        assert all(u.ok and u.decoded_hash == u.expected_hash
                   for u in report.users)
        assert report.bytes_sent == 4 * store.packet_size
        assert report.rate == Fraction(4, 6) == Fraction(2, 3)

    def test_uniform_demand_decodes(self):
        store = PacketStore.synthetic(6, 6)
        assert run_simulation(MN_4_2, store, [1, 1, 1, 1]).success

    def test_repeated_files_with_more_files_than_users(self):
        store = PacketStore.synthetic(9, 6)
        assert run_simulation(MN_4_2, store, [9, 9, 2, 2]).success

    @pytest.mark.parametrize("demand", [lambda: iter([1, 2, 3, 4]),
                                        lambda: map(int, "1234")],
                             ids=["iter", "map"])
    def test_iterator_demand_read_once(self, demand):
        store = PacketStore.synthetic(6, 6)
        report = run_simulation(MN_4_2, store, demand())
        assert report.success and report.demanded == (1, 2, 3, 4)
        assert report == run_simulation(MN_4_2, store, [1, 2, 3, 4])

    def test_non_iterable_demand_refused(self):
        with pytest.raises(ValueError,
                           match="^demand entries must be integers$"):
            run_simulation(MN_4_2, PacketStore.synthetic(6, 6), 1234)

    def test_measured_rate_matches_counted(self):
        arr = construct_special(3, 2, 2)  # (9,18,12,9): rate 1/2
        store = PacketStore.synthetic(9, arr.f, seed=0)
        report = run_simulation(arr, store, list(range(1, 10)))
        assert report.success
        assert report.rate == Fraction(1, 2)
        file_bytes = arr.f * store.packet_size
        assert Fraction(report.bytes_sent, file_bytes) == Fraction(1, 2)

    def test_corrupted_cell_reported(self):
        g = MN_4_2.grid.copy()
        g.flags.writeable = True
        g[3, 0] = 2  # cell (4,1): symbol 1 -> 2
        bad = PdaArray(g)
        store = PacketStore.synthetic(6, 6)
        log = deliver(bad, store, [1, 2, 3, 4])
        report = decode_and_verify(bad, store, [1, 2, 3, 4], log)
        assert not report.success
        failing = [u.user for u in report.users if not u.ok]
        assert failing  # the affected decoders are called out
        assert any("not cached" in p or "collide" in p
                   for u in report.users for p in u.problems)

    def test_tampered_payload_detected(self):
        store = PacketStore.synthetic(6, 6)
        log = deliver(MN_4_2, store, [1, 2, 3, 4])
        tampered = flipped(log, 0)
        report = decode_and_verify(MN_4_2, store, [1, 2, 3, 4], tampered)
        assert not report.success

    @pytest.mark.parametrize("size", [2, 8])
    def test_failing_hash_matches_naive_replay(self, size):
        store = PacketStore.synthetic(6, 6, size, seed=11)
        demand = [2, 5, 2, 6]
        log = deliver(MN_4_2, store, demand)
        tampered = flipped(log, 1, 0x80)
        report = decode_and_verify(MN_4_2, store, demand, tampered)
        # each decoded row is the payload XOR the other terms' originals;
        # star rows are the user's own copies
        files = [store.data[i - 1].copy() for i in demand]
        for _, terms, payload in slots(tampered):
            payload = np.frombuffer(payload, dtype=np.uint8)
            for k, j in terms:
                others = [store.data[demand[k2 - 1] - 1, j2 - 1]
                          for k2, j2 in terms if k2 != k]
                files[k - 1][j - 1] = xor(payload, *others)
        bent = {k for k, _ in slots(log)[1][1]}
        for u, got in zip(report.users, files):
            assert u.decoded_hash == hashlib.sha256(got.tobytes()).hexdigest()
            assert u.ok == (u.user not in bent)

    def test_log_from_other_array_flagged(self):
        store = PacketStore.synthetic(6, 6)
        log = deliver(MN_4_2, store, [1, 2, 3, 4])
        other = construct_general(2, 1, 2, 1)
        store2 = PacketStore.synthetic(6, other.f)
        report = decode_and_verify(other, store2, [1, 2, 3, 4], log)
        assert not report.success and report.problems

    def test_repeated_slot_flagged(self):
        store = PacketStore.synthetic(6, 6)
        log = deliver(MN_4_2, store, [1, 2, 3, 4])
        sent = slots(log)
        repeated = log_of(sent + sent[:1], log.packet_size)
        report = decode_and_verify(MN_4_2, store, [1, 2, 3, 4], repeated)
        assert not report.success
        assert report.problems == ("log symbols do not match the array",)
        assert not any(u.ok for u in report.users)
        assert report.rate == Fraction(5, 6)
        assert report.bytes_sent == 5 * store.packet_size

    def test_plan_reused_across_logs(self):
        # one array object decodes honest, tampered, then honest logs
        store = PacketStore.synthetic(6, 6, 8, seed=2)
        demand = [2, 1, 6, 2]
        log = deliver(MN_4_2, store, demand)
        logs = (log, flipped(log, 2, 4), log)
        shared = [decode_and_verify(MN_4_2, store, demand, x) for x in logs]
        fresh = [decode_and_verify(PdaArray(MN_4_2.grid.copy()), store,
                                   demand, x) for x in logs]
        assert shared == fresh
        assert [r.success for r in shared] == [True, False, True]

    def test_faulty_array_audit_names_each_demands_file(self):
        # symbol 1 at (1,1) and (2,2): neither user caches the other's term
        arr = PdaArray.from_rows([[1, 2], [2, 1]])
        store = PacketStore.synthetic(3, 2, 4, seed=0)
        for demand in ([1, 3], [2, 1]):
            report = run_simulation(arr, store, demand)
            fresh = run_simulation(PdaArray(arr.grid.copy()), store, demand)
            assert report == fresh and not report.success
            u1, u2 = report.users
            assert any(f"file {demand[1]}, row 2" in p for p in u1.problems)
            assert any(f"file {demand[0]}, row 1" in p for p in u2.problems)

    def test_deterministic_payloads(self):
        store = PacketStore.synthetic(6, 6, seed=5)
        a = deliver(MN_4_2, store, [1, 2, 3, 4])
        b = deliver(MN_4_2, store, [1, 2, 3, 4])
        assert a == b


class TestColumns:
    def test_pair_scan_runs_once_per_array(self, monkeypatch):
        calls = []
        scan = _kernels.c3_pair_scan

        def counted(*args):
            calls.append(1)
            return scan(*args)
        monkeypatch.setattr(_kernels, "c3_pair_scan", counted)
        arr = PdaArray(MN_4_2.grid)
        store = PacketStore.synthetic(6, 6)
        assert verify_pda(arr).valid
        log = deliver(arr, store, [1, 2, 3, 4])
        assert decode_and_verify(arr, store, [1, 2, 3, 4], log).success
        assert len(calls) == 1

    def test_columns_read_only(self):
        arr = PdaArray(MN_4_2.grid)
        store = PacketStore.synthetic(6, 6, 8, seed=3)
        log = deliver(arr, store, [1, 2, 3, 4])
        for column in (log.cols, log.payload, log.starts):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        assert deliver(arr, store, [1, 2, 3, 4]) == log
        assert deliver(PdaArray(MN_4_2.grid), store, [1, 2, 3, 4]) == log

    def test_no_writeable_array_shares_a_log(self):
        for arr in (PdaArray(MN_4_2.grid), PdaArray([[1, 2], [2, 1]]),
                    PdaArray([[1, 2, 2], [3, 1, 0], [1, 4, 4]])):
            store = PacketStore.synthetic(3, arr.f, 8, seed=3)
            log = deliver(arr, store, [1 + u % 3 for u in range(arr.k)])
            for name in simulate._COLUMNS:
                a = getattr(log, name)
                while isinstance(a, np.ndarray):
                    assert not a.flags.writeable, name
                    a = a.base

    def test_slot_tuples_round_trip(self):
        store = PacketStore.synthetic(6, 6, 4, seed=9)
        log = deliver(MN_4_2, store, [4, 1, 1, 6])
        again = log_of(slots(log), log.packet_size)
        assert again == log
        assert "".join(again.trace()) == "".join(log.trace())
        assert np.array_equal(again.cols, log.cols)
        assert log_of(slots(log)[1:], 4) != log

    @pytest.mark.parametrize("name, change, why", [
        ("payload", lambda a: a.reshape(-1, 4), "one-dimensional"),
        ("symbols", lambda a: a[0], "one-dimensional"),
        ("starts", lambda a: a[:-1], "one entry per slot"),
        ("ends", lambda a: np.append(a, a[-1]), "one entry per slot"),
        ("symbols", lambda a: a[1:], "one entry per slot"),
        ("starts", lambda a: np.append(1, a[1:]), "run from 0"),
        ("ends", lambda a: np.append(1, a[1:]), "run from 0"),
        ("cols", lambda a: a[:-1], "run from 0"),
        ("rows", lambda a: a[:-1], "run from 0"),
        ("payload", lambda a: a[:-1], "run from 0"),
        ("payload", lambda a: a.astype(np.int64), "payload must be uint8"),
        ("payload", lambda a: a.view(np.int8), "payload must be uint8"),
        ("starts", lambda a: a.astype(float), "other columns integers"),
        ("symbols", lambda a: a.astype(bool), "other columns integers"),
        ("cols", lambda a: a.astype(float), "other columns integers"),
        ("rows", lambda a: a.astype(object), "other columns integers"),
        ("ends", lambda a: a.astype(float), "other columns integers"),
    ])
    def test_inconsistent_columns_refused(self, name, change, why):
        log = deliver(MN_4_2, PacketStore.synthetic(6, 6, 4), [1, 2, 3, 4])
        columns = {n: getattr(log, n) for n in simulate._COLUMNS}
        columns[name] = change(columns[name])
        with pytest.raises(ValueError, match=why):
            TransmissionLog(log.packet_size, *columns.values())

    @pytest.mark.parametrize("name", [*simulate._COLUMNS, "packet_size",
                                      "_origin"])
    def test_log_immutable(self, name):
        store = PacketStore.synthetic(6, 6, 4)
        log = deliver(MN_4_2, store, [1, 2, 3, 4])
        kept = getattr(log, name)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(log, name, None)
        assert getattr(log, name) is kept
        assert decode_and_verify(MN_4_2, store, [1, 2, 3, 4], log).success

    def test_log_differs_from_other_types(self):
        log = deliver(MN_4_2, PacketStore.synthetic(6, 6, 4), [1, 2, 3, 4])
        assert log.__eq__(log.payload) is NotImplemented and log != "log"


@st.composite
def uneven_grids(draw):
    """Grids whose slots differ in degree: few symbols over up to 36 cells
    (degree-1 slots among them), and at times one symbol filling a whole
    row or column, or no symbol at all."""
    f, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    grid = np.array(draw(st.lists(st.integers(0, 8), min_size=f * k,
                                  max_size=f * k)), dtype=np.int32)
    grid = grid.reshape(f, k)
    fill = draw(st.sampled_from(["none", "row", "column", "stars"]))
    if fill == "row":
        grid[draw(st.integers(0, f - 1)), :] = 9
    elif fill == "column":
        grid[:, draw(st.integers(0, k - 1))] = 9
    elif fill == "stars":
        grid[:] = 0
    return grid


def recorded(store: PacketStore, shapes: list, note=np.shape) -> PacketStore:
    """A new store over a copy of store's packets that appends note(index)
    of every take on them, by default the index shape, to shapes."""
    class Recording(np.ndarray):
        def take(self, indices, axis=None, **kwargs):
            shapes.append(note(indices))
            return np.asarray(self).take(indices, axis=axis, **kwargs)

    return PacketStore(store.n_files, store.f, store.packet_size, store.seed,
                       store.data.view(Recording))


class TestXorByDegree:
    @given(uneven_grids(), st.sampled_from([1, 2, 3, 4, 6, 8, 12, 256]),
           st.integers(0, 2**31 - 1))
    def test_payloads_are_bytewise_xor_of_terms(self, grid, size, seed):
        arr = PdaArray(grid)
        store = PacketStore.synthetic(3, arr.f, size, seed=seed)
        demand = np.random.default_rng(seed).integers(1, 4, size=arr.k)
        log = deliver(arr, store, demand)
        symbols = sorted(set(grid[grid != 0].tolist()))
        assert log.symbols.tolist() == symbols
        assert log.bytes_sent == len(symbols) * size
        for symbol, terms, payload in slots(log):
            want = xor(*(store.data[demand[k - 1] - 1, j - 1]
                         for k, j in terms))
            assert payload == want.tobytes()
            assert len(terms) == (grid == symbol).sum()
        assert decode_and_verify(arr, store, demand, log).problems == ()

    @given(uneven_grids())
    def test_takes_bounded_per_class(self, grid):
        # a class of n slots of degree g is read in at most min(g, n)
        # takes of at most n + g packets, each term exactly once
        shapes = []
        arr = PdaArray(grid)
        plain = PacketStore.synthetic(2, arr.f, 8, seed=0)
        store = recorded(plain, shapes)
        demand = [1 + u % 2 for u in range(arr.k)]
        totals = simulate._gather(store, *simulate._prepare(arr, store,
                                                            demand))
        assert np.array_equal(totals, simulate._gather(
            plain, *simulate._prepare(arr, plain, demand)))
        _, _, classes = simulate._cell_table(arr).degree_classes
        for g, in_slots, _ in classes:
            n = in_slots.stop - in_slots.start
            read = takes = 0
            while read < g:
                cols, rows = shapes.pop(0)
                assert rows == n and rows * cols <= n + g
                read += cols
                takes += 1
            assert read == g and takes <= min(g, n)
        assert shapes == []

    def test_one_take_block_alive(self):
        # mn(60, 1): one class of 1770 slots of degree 2, read in two takes
        # of 1770 packets of 1 KB; each block is dropped before the next
        # take, and the first one writes the payloads
        arr = construct_mn(60, 1)
        store = PacketStore.synthetic(1, arr.f, 1024, seed=0)
        simulate._cell_table(arr).degree_classes
        tracemalloc.start()
        try:
            log = deliver(arr, store, [1] * arr.k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = log.symbols.size * store.packet_size
        assert peak <= log.payload.nbytes + block + (1 << 17)

    def test_one_degree_keeps_table_order(self):
        for arr in (MN_4_2, construct_ext_general(3, 2, 3, 2)):
            cells, slots, classes = simulate._cell_table(arr).degree_classes
            assert cells is None and slots is None and len(classes) == 1

    def test_classes_cover_slots_by_degree(self):
        arr = PdaArray.from_rows([[1, 2, 2], [3, 1, "*"], [1, 4, 4]])
        cells, slots, classes = simulate._cell_table(arr).degree_classes
        # degrees 3, 2, 1, 2: slot 3 first, then slots 2 and 4, then slot 1
        assert slots.tolist() == [2, 1, 3, 0]
        assert [(g, s.start, s.stop, c.start, c.stop)
                for g, s, c in classes] == [(1, 0, 1, 0, 1), (2, 1, 3, 1, 5),
                                             (3, 3, 4, 5, 8)]
        assert cells.tolist() == [5, 3, 4, 6, 7, 0, 1, 2]


def drop_pool() -> None:
    """Shut down the gather's pool, if one was made, and forget it."""
    if simulate._workers.cache_info().currsize:
        simulate._workers().shutdown()
    simulate._workers.cache_clear()


@contextlib.contextmanager
def split_among(workers: int):
    """Gathers that cut every degree class of n slots into min(workers, n)
    slices, as on a machine of that many usable CPUs, on a pool of their
    own that is shut down on exit."""
    drop_pool()
    with mock.patch.multiple(simulate, _SPLIT_BYTES=0, _SLICE_TERM_BYTES=1,
                             _usable_cpus=lambda: workers):
        try:
            yield
        finally:
            drop_pool()


def gathered(arr: PdaArray, store: PacketStore, demand) -> np.ndarray:
    return simulate._gather(store, *simulate._prepare(arr, store, demand))


def thrown_in(thread: str, delay: float = 0.0):
    """A store whose takes raise RuntimeError(thread) on the "caller" or
    on a "worker" thread; each take on the other side first sleeps delay
    seconds.  Returns the store and the list of takes still running."""
    running = []

    class Throwing(np.ndarray):
        def take(self, indices, axis=None, **kwargs):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (thread == "caller"):
                raise RuntimeError(thread)
            token = object()
            running.append(token)
            time.sleep(delay)
            out = np.asarray(self).take(indices, axis=axis, **kwargs)
            running.remove(token)
            return out

    plain = PacketStore.synthetic(2, MN_4_2.f, 8, seed=0)
    return PacketStore(2, plain.f, 8, 0, plain.data.view(Throwing)), running


class TestSplitGather:
    """A class that gathers enough bytes is cut into one contiguous slice
    of slots per usable CPU; the calling thread and the pool's workers
    work the slices at once, each into its own rows of the XORs."""

    @settings(max_examples=60, deadline=None)
    @given(uneven_grids(), st.integers(1, 4), st.sampled_from([1, 3, 8, 256]),
           st.integers(0, 2**31 - 1))
    def test_split_equals_one_slice(self, grid, workers, size, seed):
        arr = PdaArray(grid)
        store = PacketStore.synthetic(3, arr.f, size, seed=seed)
        demand = np.random.default_rng(seed).integers(1, 4, size=arr.k)
        whole = gathered(arr, store, demand)
        with split_among(workers):
            split = gathered(arr, store, demand)
            log = deliver(arr, store, demand)
        assert split.tobytes() == whole.tobytes()
        assert log.payload.tobytes() == whole.tobytes()

    def test_split_equals_one_slice_over_several_classes(self):
        # degrees 1, 2 and 3, and a class of four slots of degree 2
        arr = PdaArray.from_rows([[1, 2, 2, 5], [3, 1, "*", 6],
                                  [1, 4, 4, 5], [7, 7, 6, 8]])
        assert len(simulate._cell_table(arr).degree_classes[2]) == 3
        store = PacketStore.synthetic(4, arr.f, 24, seed=5)
        whole = gathered(arr, store, [1, 2, 3, 4])
        for workers in (2, 3, 4):
            with split_among(workers):
                split = gathered(arr, store, [1, 2, 3, 4])
            assert split.tobytes() == whole.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(uneven_grids(), st.integers(2, 4))
    def test_takes_bounded_per_slice(self, grid, workers):
        # a slice of m slots of degree g is read in at most min(g, m)
        # takes of at most m + g packets, on one thread, each term once
        shapes = []
        arr = PdaArray(grid)
        plain = PacketStore.synthetic(2, arr.f, 8, seed=0)
        store = recorded(plain, shapes,
                         lambda i: (threading.get_ident(), np.shape(i)))
        demand = [1 + u % 2 for u in range(arr.k)]
        with split_among(workers):
            totals = gathered(arr, store, demand)
        assert np.array_equal(totals, gathered(arr, plain, demand))
        _, _, classes = simulate._cell_table(arr).degree_classes
        for g, in_slots, _ in classes:
            n = in_slots.stop - in_slots.start
            parts = min(workers, n)
            # the class's takes, read before the next class's, per thread
            by_thread, cells = {}, 0
            while cells < g * n:
                thread, (cols, rows) = shapes.pop(0)
                by_thread.setdefault(thread, []).append((cols, rows))
                cells += cols * rows
            assert cells == g * n
            sizes = []
            for takes in by_thread.values():
                while takes:
                    m = takes[0][1]
                    read = count = 0
                    while read < g:
                        cols, rows = takes.pop(0)
                        assert rows == m and rows * cols <= m + g
                        read += cols
                        count += 1
                    assert read == g and count <= min(g, m)
                    sizes.append(m)
            assert sorted(sizes) == sorted(
                n * (i + 1) // parts - n * i // parts for i in range(parts))
        assert shapes == []

    def test_concurrent_callers_on_more_workers_than_cpus(self):
        # four callers at once, each splitting among six workers, with the
        # interpreter switching threads as often as it can
        arr = construct_mn(8, 2)
        store = PacketStore.synthetic(3, arr.f, 16, seed=6)
        rng = np.random.default_rng(6)
        demands = [rng.integers(1, 4, size=arr.k) for _ in range(4)]
        wants = [gathered(arr, store, d).tobytes() for d in demands]
        got = [[] for _ in demands]

        def caller(i):
            for _ in range(25):
                got[i].append(gathered(arr, store, demands[i]).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with split_among(6):
                callers = [threading.Thread(target=caller, args=(i,))
                           for i in range(len(demands))]
                for t in callers:
                    t.start()
                for t in callers:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in callers)
                pools = simulate._workers.cache_info().currsize
        finally:
            sys.setswitchinterval(interval)
        assert pools == 1
        assert got == [[want] * 25 for want in wants]

    def test_worker_exception_reaches_caller(self):
        store, running = thrown_in("worker")
        with split_among(2):
            with pytest.raises(RuntimeError, match="worker"):
                gathered(MN_4_2, store, [1, 2, 1, 2])
            # the pool is still usable
            plain = PacketStore.synthetic(2, MN_4_2.f, 8, seed=0)
            assert np.array_equal(gathered(MN_4_2, plain, [1, 2, 1, 2]),
                                  deliver(MN_4_2, plain, [1, 2, 1, 2])
                                  .payload.reshape(-1, 8))

    def test_caller_exception_waits_for_workers(self):
        # the caller's slice fails at once; its slow workers' slices are
        # all over before the exception reaches the caller
        store, running = thrown_in("caller", delay=0.05)
        with split_among(3):
            with pytest.raises(RuntimeError, match="caller"):
                gathered(MN_4_2, store, [1, 2, 1, 2])
            assert running == []

    def test_one_usable_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(simulate, "_SPLIT_BYTES", 0)
        monkeypatch.setattr(simulate, "_SLICE_TERM_BYTES", 1)
        drop_pool()
        assert simulate._usable_cpus() == 1
        threads = set(threading.enumerate())
        arr = construct_mn(8, 2)
        store = PacketStore.synthetic(3, arr.f, 64, seed=2)
        assert run_simulation(arr, store, [1, 2, 3] * 2 + [1, 2]).success
        assert simulate._workers.cache_info().misses == 0
        assert set(threading.enumerate()) == threads

    def test_pool_made_once(self):
        # a one-slice gather makes no pool; split gathers share one
        arr = construct_mn(8, 2)
        store = PacketStore.synthetic(3, arr.f, 64, seed=3)
        demand = [1, 2, 3] * 2 + [1, 2]
        with split_among(1):
            whole = gathered(arr, store, demand).tobytes()
            assert simulate._workers.cache_info().misses == 0
        with split_among(3):
            for _ in range(4):
                assert gathered(arr, store, demand).tobytes() == whole
            deliver(arr, store, demand)
            info = simulate._workers.cache_info()
            assert info.misses == 1 and info.hits > 0

    def test_usable_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert simulate._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simulate._usable_cpus() == 1

    @pytest.mark.parametrize("g, n, size, cpus, want", [
        # mn(60, 1)'s shape, 1770 slots of degree 2: 1 MiB at 297 bytes
        (2, 1770, 64, 4, 1), (2, 1770, 296, 4, 1), (2, 1770, 297, 4, 4),
        (2, 1770, 297, 2, 2), (2, 1770, 297, 1, 1),
        # 2 MiB in few slots: each slice keeps 64 KiB of packets per term
        (1024, 4, 512, 4, 1), (1024, 255, 512, 4, 1),
        (1024, 256, 512, 4, 2), (1024, 512, 512, 4, 4),
        # never more slices than slots
        (2, 3, 1 << 20, 4, 3),
    ])
    def test_split_rule(self, monkeypatch, g, n, size, cpus, want):
        # slot j fills column j of a (g, n) grid
        arr = PdaArray(np.tile(np.arange(1, n + 1, dtype=np.int32), (g, 1)))
        store = PacketStore.synthetic(1, arr.f, size, seed=0)
        slices = []
        monkeypatch.setattr(simulate, "_run",
                            lambda jobs: slices.append(len(jobs)))
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        gathered(arr, store, [1] * arr.k)
        assert slices == [want]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
    def test_forked_child_gathers_on_its_own_pool(self):
        arr = construct_mn(8, 2)
        store = PacketStore.synthetic(3, arr.f, 64, seed=4)
        demand = [1, 2, 3] * 2 + [1, 2]
        whole = gathered(arr, store, demand).tobytes()
        with split_among(2):
            assert gathered(arr, store, demand).tobytes() == whole
            assert simulate._workers.cache_info().currsize == 1
            parent_pool = simulate._workers()
            with warnings.catch_warnings():
                # Python 3.12 and later warn that forking a process with
                # threads may deadlock the child
                warnings.filterwarnings(
                    "ignore", "This process .* is multi-threaded",
                    DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    # a child that hangs is ended by the alarm
                    signal.alarm(30)
                    fresh = simulate._workers.cache_info().currsize == 0
                    ok = gathered(arr, store, demand).tobytes() == whole
                    made = (simulate._workers.cache_info().currsize == 1
                            and simulate._workers() is not parent_pool)
                    code = 0 if fresh and ok and made else 1
                finally:
                    os._exit(code)
            _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestGatherMemo:
    """The provenance rule: decode_and_verify trusts a log, and gathers
    nothing for it, only when deliver made it for the same cell table, the
    same store object and an equal demand.  Any other log, one with the
    same bytes included, is gathered for again and compared in full, and
    the log holds nothing alive once it is dropped."""

    ARRAYS = {
        "mn": MN_4_2.grid,
        "ext-general": construct_ext_general(3, 2, 3, 2).grid,
        "faulty": [[1, 2], [2, 1]],
        "uneven": [[1, 2, 2], [3, 1, 0], [1, 4, 4]],
    }

    @pytest.mark.parametrize("name", sorted(ARRAYS))
    def test_decode_after_deliver_gathers_nothing(self, name):
        arr = PdaArray(self.ARRAYS[name])
        shapes = []
        store = recorded(PacketStore.synthetic(3, arr.f, 8, seed=6), shapes)
        demand = [1 + u % 3 for u in range(arr.k)]
        log = deliver(arr, store, demand)
        assert shapes
        shapes.clear()
        report = decode_and_verify(arr, store, demand, log)
        assert shapes == []
        assert report == decode_and_verify(PdaArray(arr.grid), store, demand,
                                           log)

    @pytest.mark.parametrize("change", ["demand", "store", "dropped",
                                        "array"])
    def test_other_inputs_gather_again(self, change):
        arr = PdaArray(construct_ext_general(3, 2, 3, 2).grid)
        shapes = []
        plain = PacketStore.synthetic(3, arr.f, 8, seed=8)
        store = recorded(plain, shapes)
        demand = [1 + u % 3 for u in range(arr.k)]
        log = deliver(arr, store, demand)
        if change == "demand":
            demand = demand[::-1]
        elif change == "store":
            store = recorded(plain, shapes)
        elif change == "array":
            # same grid, but another array and so another cell table
            arr = PdaArray(arr.grid)
        else:
            # same bytes, but the delivered payload is gone
            copy = log_of(slots(log), log.packet_size)
            del log
            gc.collect()
            log = copy
        shapes.clear()
        report = decode_and_verify(arr, store, demand, log)
        assert shapes
        assert report == decode_and_verify(PdaArray(arr.grid), store, demand,
                                           log)
        assert report.success == (change != "demand")

    def test_memo_keeps_nothing_alive(self):
        arr = PdaArray(MN_4_2.grid)
        store = PacketStore.synthetic(6, 6, 8, seed=1)
        log = deliver(arr, store, [1, 2, 3, 4])
        assert decode_and_verify(arr, store, [1, 2, 3, 4], log).success
        refs = weakref.ref(store), weakref.ref(log.payload.base)
        del store, log
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    @given(uneven_grids(), st.data())
    def test_flipped_payload_decoded_while_hot(self, grid, data):
        arr = PdaArray(grid)
        shapes = []
        store = recorded(PacketStore.synthetic(2, arr.f, 4, seed=3), shapes)
        demand = [1 + u % 2 for u in range(arr.k)]
        log = deliver(arr, store, demand)
        if not log.symbols.size:
            return
        tampered = flipped(log, data.draw(st.integers(0, log.symbols.size
                                                      - 1)))
        shapes.clear()
        report = decode_and_verify(arr, store, demand, tampered)
        assert not report.success
        assert report == decode_and_verify(PdaArray(grid), store, demand,
                                           tampered)


def _stacked(*grids):
    """The rows of several K-column grids, one under another, each grid's
    symbols shifted past the previous ones: valid when each grid is."""
    rows, offset = [], 0
    for grid in grids:
        grid = np.asarray(grid)
        rows += [["*" if v == 0 else int(v) + offset for v in row]
                 for row in grid]
        offset += int(grid.max())
    return rows


def _diagonal(k, slots):
    """A k x k grid of stars whose diagonal is split into ``slots`` runs,
    run i holding symbol i + 1: ``slots`` slots of degree about k/slots."""
    grid = np.zeros((k, k), dtype=np.int32)
    grid[np.arange(k), np.arange(k)] = 1 + np.arange(k) * slots // k
    return grid


DEGENERATE = {
    # n = 1: one take of all g = 12 terms
    "one-slot": _stacked(_diagonal(12, 1)),
    # g = 1 throughout: one take of n = 12 rows
    "all-degree-1": _stacked(np.arange(1, 13).reshape(3, 4)),
    # g = 5 > n = 2: takes of 3 then 2 term columns
    "uneven-chunks": _stacked(_diagonal(10, 2)),
    # one wide slot of degree 6 over narrow classes of degree 1, 2 and 3
    "wide-and-narrow": _stacked(_diagonal(6, 1),
                                np.arange(1, 13).reshape(2, 6),
                                construct_mn(6, 1).grid,
                                construct_mn(6, 2).grid),
}


def degenerate_grids():
    return st.sampled_from(sorted(DEGENERATE)).map(
        lambda name: PdaArray.from_rows(DEGENERATE[name]).grid)


class TestTrace:
    @given(st.one_of(uneven_grids(), degenerate_grids()),
           st.sampled_from([1, 3, 8, 256]), st.sampled_from([1, 2, None]),
           st.integers(0, 2**31 - 1))
    def test_trace_matches_naive_loop(self, grid, size, block, seed):
        # block None: one chunk holds every slot
        arr = PdaArray(grid)
        store = PacketStore.synthetic(3, arr.f, size, seed=seed)
        demand = np.random.default_rng(seed).integers(1, 4, size=arr.k)
        log = deliver(arr, store, demand)
        block = log.symbols.size + 1 if block is None else block
        with mock.patch.object(simulate, "TRACE_BLOCK", block):
            assert "".join(log.trace()) == naive_trace(log)


class TestDegenerateClasses:
    @pytest.mark.parametrize("size", [1, 3, 8, 256])
    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_matches_naive_xor(self, name, size):
        rows = DEGENERATE[name]
        arr = PdaArray.from_rows(rows)
        assert verify_pda(arr).valid
        store = PacketStore.synthetic(arr.k, arr.f, size, seed=size)
        demand = [1 + (3 * u) % arr.k for u in range(arr.k)]
        files = [[p.tobytes() for p in file] for file in store.data]
        want = naive_deliver(rows, files, demand)
        log = deliver(arr, store, demand)
        assert {s: p for s, _, p in slots(log)} == want
        assert log.symbols.tolist() == sorted(want)
        report = decode_and_verify(arr, store, demand, log)
        assert report.success and report.problems == ()
        for u, got in zip(report.users, naive_decode(rows, files, demand,
                                                     want)):
            assert u.ok and u.problems == ()
            assert u.decoded_hash == u.expected_hash == (
                hashlib.sha256(got).hexdigest())

    @pytest.mark.parametrize("size", [1, 3])
    def test_tampered_slot_matches_naive_decode(self, size):
        rows = DEGENERATE["wide-and-narrow"]
        arr = PdaArray.from_rows(rows)
        store = PacketStore.synthetic(arr.k, arr.f, size, seed=7)
        demand = list(range(arr.k, 0, -1))
        files = [[p.tobytes() for p in file] for file in store.data]
        payloads = naive_deliver(rows, files, demand)
        # symbol 1 is the wide slot: every user holds one of its terms
        payloads[1] = bytes([payloads[1][0] ^ 1]) + payloads[1][1:]
        log = log_of([(s, terms, payloads[s]) for s, terms, _ in
                      slots(deliver(arr, store, demand))], size)
        report = decode_and_verify(arr, store, demand, log)
        assert not report.success and report.problems == ()
        for u, got in zip(report.users, naive_decode(rows, files, demand,
                                                     payloads)):
            assert not u.ok
            assert u.decoded_hash == hashlib.sha256(got).hexdigest()


def _copied(log: TransmissionLog) -> TransmissionLog:
    """log over copies of all six of its columns."""
    return TransmissionLog(
        log.packet_size, *(getattr(log, n).copy() for n in simulate._COLUMNS))


class TestDeliveredLogShortcut:
    """A copy of a delivered log's columns was not made by deliver, so
    decode_and_verify does not trust it: it gathers again, compares the
    copy in full and reports just what it reports for the delivered log.
    A log whose term bounds were moved is flagged, even when it shares
    the delivered log's term columns."""

    @staticmethod
    def check_copy_decodes_alike(arr, store, demand):
        log = deliver(arr, store, demand)
        copy = _copied(log)
        assert copy.cols is not log.cols and copy.starts is not log.starts
        report = decode_and_verify(arr, store, demand, log)
        other = decode_and_verify(arr, store, demand, copy)
        assert report == other and repr(report) == repr(other)

    @given(uneven_grids(), st.integers(1, 3), st.integers(0, 2**31 - 1))
    def test_copied_columns_decode_alike(self, grid, files, seed):
        arr = PdaArray(grid)
        store = PacketStore.synthetic(files, arr.f, 4, seed=seed)
        demand = np.random.default_rng(seed).integers(1, files + 1,
                                                      size=arr.k)
        self.check_copy_decodes_alike(arr, store, demand)

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_copied_columns_decode_alike_degenerate(self, name):
        arr = PdaArray.from_rows(DEGENERATE[name])
        store = PacketStore.synthetic(arr.k, arr.f, 3, seed=2)
        self.check_copy_decodes_alike(arr, store,
                                      [1 + (5 * u) % arr.k
                                       for u in range(arr.k)])

    @pytest.mark.parametrize("moved", [-1, 1])
    @pytest.mark.parametrize("slot", [1, 2, 3])
    def test_moved_boundary_with_shared_terms_flagged(self, slot, moved):
        store = PacketStore.synthetic(6, 6, 8, seed=4)
        log = deliver(MN_4_2, store, [1, 2, 3, 4])
        starts = log.starts.copy()
        starts[slot] += moved
        columns = [getattr(log, n) for n in simulate._COLUMNS]
        columns[1] = starts
        bent = TransmissionLog(log.packet_size, *columns)
        assert bent.cols is log.cols and bent.rows is log.rows
        report = decode_and_verify(MN_4_2, store, [1, 2, 3, 4], bent)
        symbol = log.symbols[slot - 1]
        assert not report.success
        assert report.problems == (
            f"log entry for symbol {symbol} does not match the array",)


def _with_payload(log: TransmissionLog, payload) -> TransmissionLog:
    """log with its payload column replaced."""
    columns = [getattr(log, n) for n in simulate._COLUMNS]
    columns[simulate._COLUMNS.index("payload")] = payload
    return TransmissionLog(log.packet_size, *columns)


class TestPayloadIdentitySkip:
    """Only the log deliver made for the same table, store and demand
    goes uncompared.  A log with any other payload, a copy of the delivered
    bytes or a view over their memory included, is gathered for and
    compared byte for byte, and decodes as a log rebuilt from its slots
    does."""

    @staticmethod
    def check_skip_is_exact(arr, store, demand):
        log = deliver(arr, store, demand)
        delivered = decode_and_verify(arr, store, demand, log)
        copy = log_of(slots(log), log.packet_size)
        other = decode_and_verify(arr, store, demand, copy)
        assert delivered == other and repr(delivered) == repr(other)
        if not log.symbols.size:
            return
        payload = log.payload
        assert not decode_and_verify(arr, store, demand,
                                     flipped(log, 0)).success
        changed = payload.copy()
        changed[0] ^= 1
        # the owner's bytes read backwards, or its first byte repeated:
        # same memory and size, other bytes in general
        repeated = np.ndarray(payload.shape, np.uint8, buffer=payload.base,
                              strides=(0,))
        for variant in (payload.copy(), changed, payload[::-1], repeated):
            bent = _with_payload(log, variant)
            report = decode_and_verify(arr, store, demand, bent)
            other = decode_and_verify(arr, store, demand,
                                      log_of(slots(bent), log.packet_size))
            assert report == other and repr(report) == repr(other)
            if np.array_equal(variant, payload):
                assert report == delivered
            else:
                assert not report.success

    @given(uneven_grids(), st.integers(1, 3), st.sampled_from([1, 3, 8]),
           st.integers(0, 2**31 - 1))
    def test_own_payload_decodes_as_its_copy(self, grid, files, size, seed):
        arr = PdaArray(grid)
        store = PacketStore.synthetic(files, arr.f, size, seed=seed)
        demand = np.random.default_rng(seed).integers(1, files + 1,
                                                      size=arr.k)
        self.check_skip_is_exact(arr, store, demand)

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_own_payload_decodes_as_its_copy_degenerate(self, name):
        arr = PdaArray.from_rows(DEGENERATE[name])
        store = PacketStore.synthetic(arr.k, arr.f, 3, seed=5)
        self.check_skip_is_exact(arr, store, [1 + (7 * u) % arr.k
                                              for u in range(arr.k)])


class TestUserDecodeResult:
    def test_repr_pinned(self):
        assert repr(simulate.UserDecodeResult(1, 2, True, "ab", None, ())) \
            == ("UserDecodeResult(user=1, demanded=2, ok=True, "
                "expected_hash='ab', decoded_hash=None, problems=())")

    def test_immutable(self):
        result = simulate.UserDecodeResult(1, 2, True, "ab", None, ())
        with pytest.raises(AttributeError):
            result.ok = False


class TestDeferredDigests:
    """A report hashes no file until its users are first read; then each
    demanded file is hashed once, the users are kept and the store is let
    go.  The per-user view (demanded, failures) needs no digest."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        """The files hashed through PacketStore.file_hash, in call order,
        and the count of every SHA-256 made in simulate."""
        files, digests = [], []
        file_hash = PacketStore.file_hash

        def counted_file_hash(store, i):
            files.append(i)
            return file_hash(store, i)

        def counted_sha256(*args):
            digests.append(1)
            return hashlib.sha256(*args)

        monkeypatch.setattr(PacketStore, "file_hash", counted_file_hash)
        monkeypatch.setattr(simulate, "hashlib",
                            SimpleNamespace(sha256=counted_sha256))
        return files, digests

    def test_successful_decode_hashes_nothing(self, hashed):
        store = PacketStore.synthetic(6, 6, 8, seed=1)
        report = run_simulation(MN_4_2, store, [2, 5, 2, 6])
        assert report.success
        assert report.demanded == (2, 5, 2, 6) and report.failures == {}
        assert hashed == ([], [])

    def test_first_read_hashes_each_demanded_file_once(self, hashed):
        files, digests = hashed
        store = PacketStore.synthetic(6, 6, 8, seed=1)
        report = run_simulation(MN_4_2, store, [2, 5, 2, 6])
        users = report.users
        assert sorted(files) == [2, 5, 6] and len(digests) == 3
        # a second read hashes nothing
        assert report.users is users
        assert sorted(files) == [2, 5, 6] and len(digests) == 3
        assert [u.expected_hash for u in users] == [
            hashlib.sha256(store.data[i - 1].tobytes()).hexdigest()
            for i in (2, 5, 2, 6)]

    def test_simulate_command_hashes_nothing(self, hashed, capsys):
        assert main(["simulate", str(FIXTURES / "mn_k4_t2.pda"),
                     "--random-demands", "20"]) == 0
        assert capsys.readouterr().out.count("decode=ok\n") == 20
        assert hashed == ([], [])

    @pytest.mark.parametrize("case", ["honest", "flipped", "faulty"])
    def test_repr_and_equality_ignore_read_order(self, case):
        arr = PdaArray([[1, 2], [2, 1]]) if case == "faulty" else MN_4_2
        store = PacketStore.synthetic(3, arr.f, 4, seed=2)
        demand = [1 + u % 3 for u in range(arr.k)]
        log = deliver(arr, store, demand)
        if case == "flipped":
            log = flipped(log, 0)

        def pair():
            # two equal reports: the first one's users are read now, the
            # other's only by the comparison
            read = decode_and_verify(arr, store, demand, log)
            read.users
            return read, decode_and_verify(arr, store, demand, log)

        read, unread = pair()
        assert repr(read) == repr(unread)
        read, unread = pair()
        assert unread == read
        read, unread = pair()
        assert hash(unread) == hash(read)
        assert read.success == (case == "honest")
        assert read.demanded == tuple(u.demanded for u in read.users)
        assert read.failures == {u.user: u.problems for u in read.users
                                 if not u.ok}

    def test_read_report_lets_the_store_go(self):
        store = PacketStore.synthetic(6, 6, 8, seed=1)
        report = run_simulation(MN_4_2, store, [1, 2, 3, 4])
        ref = weakref.ref(store)
        del store
        gc.collect()
        # until its users are read, the report needs the store
        assert ref() is not None
        assert report.users
        gc.collect()
        assert ref() is None


class TestByteCap:
    @pytest.mark.parametrize("n, f, size", [
        (10**12, 6, 64), (4, 6, 10**12), (1, 10**12, 1), (10**12, 10**12,
                                                          10**12),
        (1, 1, simulate.BYTE_CAP + 1)])
    def test_store_over_cap_refused_before_allocating(self, n, f, size):
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError) as info:
                PacketStore.synthetic(n, f, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            f"the packet store would hold {n * f * size} bytes, above the "
            f"cap of {simulate.BYTE_CAP}")
        assert peak < 1 << 16

    def test_store_size_too_long_to_print(self):
        # 10^6000 bytes: past Python's int-to-text limit
        with pytest.raises(SizeCapError, match=r"hold more than 10\^5999 "):
            PacketStore.synthetic(10**3000, 10**3000, 1)

    @pytest.mark.parametrize("size", [simulate.BYTE_CAP, 10**12])
    def test_gather_over_cap_refused_before_allocating(self, size):
        class Untouched:
            @property
            def data(self):
                raise AssertionError("packets read")
        store = Untouched()
        store.f, store.n_files, store.packet_size = 6, 4, size
        tracemalloc.start()
        try:
            for call in (lambda: deliver(MN_4_2, store, [1, 2, 3, 4]),
                         lambda: decode_and_verify(MN_4_2, store,
                                                   [1, 2, 3, 4], None)):
                with pytest.raises(SizeCapError) as info:
                    call()
                assert str(info.value) == (
                    f"the gathered packets would hold {12 * size} bytes, "
                    f"above the cap of {simulate.BYTE_CAP}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_caps_are_inclusive(self, monkeypatch):
        # MN_4_2 has 12 cells: one file of 6 8-byte packets gathers 96 bytes
        monkeypatch.setattr(simulate, "BYTE_CAP", 96)
        assert PacketStore.synthetic(2, 6, 8).data.nbytes == 96
        with pytest.raises(SizeCapError):
            PacketStore.synthetic(2, 6, 9)
        store = PacketStore.synthetic(1, 6, 8)
        assert run_simulation(MN_4_2, store, [1, 1, 1, 1]).success
        monkeypatch.setattr(simulate, "BYTE_CAP", 95)
        with pytest.raises(SizeCapError, match="gathered packets"):
            deliver(MN_4_2, store, [1, 1, 1, 1])

    def test_cap_admits_largest_array_at_default_size(self):
        # general(10,6,5,1) holds 10^7 cells, the cell cap, with N = K
        k, f, z, _ = theorem_params(
            Family.GENERAL, ConstructionParams(10, 6, 5, 1)).as_tuple()
        size = simulate.DEFAULT_PACKET_SIZE
        assert f * k == 10**7
        assert k * f * size <= simulate.BYTE_CAP
        assert (f - z) * k * size <= simulate.BYTE_CAP

"""Placement, delivery, decoding against hand-computed byte oracles."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from helpers import fixture_text
from pdakit import (PacketStore, PdaArray, TransmissionLog, _kernels,
                    construct_ext_general, construct_general,
                    construct_special, decode_and_verify, deliver, parse,
                    run_simulation, simulate, verify_pda)

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

    def test_packets_equal_length(self):
        store = PacketStore.synthetic(2, 3, 8)
        assert {store.packet(i, j).nbytes for i in (1, 2) for j in (1, 2, 3)} \
            == {8}

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
        assert len(log.transmissions) == 1
        t = log.transmissions[0]
        assert t.terms == ((1, 2), (2, 1))
        want = xor(store.packet(1, 2), store.packet(2, 1))
        assert t.payload == want.tobytes()

    def test_known_trace(self):
        store = PacketStore.synthetic(6, 6)
        log = deliver(MN_4_2, store, [1, 2, 3, 4])
        terms = ["terms=" + ";".join(f"({k},{j})" for k, j in t.terms)
                 for t in log.transmissions]
        assert terms == [
            "terms=(1,4);(2,2);(3,1)",
            "terms=(1,5);(2,3);(4,1)",
            "terms=(1,6);(3,3);(4,2)",
            "terms=(2,6);(3,5);(4,4)",
        ]
        # payload of slot 1 is W[1,4] ^ W[2,2] ^ W[3,1]
        want = xor(store.packet(1, 4), store.packet(2, 2), store.packet(3, 1))
        assert log.transmissions[0].payload == want.tobytes()
        assert log.bytes_sent == 4 * store.packet_size

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 6, 8, 12, 256])
    def test_payloads_match_bytewise_xor(self, size):
        # every word width the reduction picks from the packet size
        store = PacketStore.synthetic(6, 6, size, seed=size)
        demand = [3, 1, 6, 3]
        log = deliver(MN_4_2, store, demand)
        for t in log.transmissions:
            want = xor(*(store.packet(demand[k - 1], j) for k, j in t.terms))
            assert t.payload == want.tobytes()

    def test_payload_count_and_order(self):
        arr = construct_special(3, 2, 2)
        store = PacketStore.synthetic(9, arr.f)
        log = deliver(arr, store, list(range(1, 10)))
        assert [t.symbol for t in log.transmissions] == list(range(1, 10))

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
        line = log.trace_lines()[0]
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
        t0 = log.transmissions[0]
        flipped = bytes([t0.payload[0] ^ 1]) + t0.payload[1:]
        tampered = type(log)(
            (type(t0)(t0.symbol, t0.terms, flipped),) + log.transmissions[1:],
            log.packet_size)
        report = decode_and_verify(MN_4_2, store, [1, 2, 3, 4], tampered)
        assert not report.success

    @pytest.mark.parametrize("size", [2, 8])
    def test_failing_hash_matches_naive_replay(self, size):
        store = PacketStore.synthetic(6, 6, size, seed=11)
        demand = [2, 5, 2, 6]
        log = deliver(MN_4_2, store, demand)
        sent = list(log.transmissions)
        t = sent[1]
        sent[1] = type(t)(t.symbol, t.terms,
                          bytes([t.payload[0] ^ 0x80]) + t.payload[1:])
        tampered = type(log)(tuple(sent), log.packet_size)
        report = decode_and_verify(MN_4_2, store, demand, tampered)
        # each decoded row is the payload XOR the other terms' originals;
        # star rows are the user's own copies
        files = [store.data[i - 1].copy() for i in demand]
        for slot in tampered.transmissions:
            payload = np.frombuffer(slot.payload, dtype=np.uint8)
            for k, j in slot.terms:
                others = [store.packet(demand[k2 - 1], j2)
                          for k2, j2 in slot.terms if k2 != k]
                files[k - 1][j - 1] = xor(payload, *others)
        for u, got in zip(report.users, files):
            assert u.decoded_hash == hashlib.sha256(got.tobytes()).hexdigest()
            assert u.ok == (u.user not in {k for k, _ in t.terms})

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
        repeated = type(log)(log.transmissions + log.transmissions[:1],
                             log.packet_size)
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
        t = log.transmissions[2]
        flipped = type(log)(log.transmissions[:2] + (type(t)(
            t.symbol, t.terms, bytes([t.payload[0] ^ 4]) + t.payload[1:]),)
            + log.transmissions[3:], log.packet_size)
        logs = (log, flipped, log)
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
    def test_no_transmission_objects_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Transmission built")
        monkeypatch.setattr(simulate, "Transmission", refuse)
        for arr in (PdaArray(MN_4_2.grid), construct_ext_general(3, 2, 3, 2)):
            store = PacketStore.synthetic(arr.k, arr.f, 8, seed=1)
            assert run_simulation(arr, store, range(1, arr.k + 1)).success

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

    def test_object_view_round_trips(self):
        store = PacketStore.synthetic(6, 6, 4, seed=9)
        log = deliver(MN_4_2, store, [4, 1, 1, 6])
        again = TransmissionLog(log.transmissions, log.packet_size)
        assert again == log
        assert again.trace_lines() == log.trace_lines()
        assert np.array_equal(again.cols, log.cols)
        assert TransmissionLog(log.transmissions[1:], 4) != log

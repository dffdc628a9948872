"""Command-line behavior: outputs, presets, exit codes."""

import ctypes
import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import pytest

import pdakit
from helpers import FIXTURES, fixture_text
from pdakit import _kernels, analysis, cli, construct_mn, save, simulate
from pdakit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_special_header(self, capsys):
        code, out, err = run(capsys, "construct", "--family", "special",
                             "--q", "3", "--z", "2", "--m", "2")
        assert code == 0
        assert out.splitlines()[0] == "9 18 12 9"
        assert "(K,F,Z,S)=(9, 18, 12, 9)" in err
        assert "M/N=2/3" in err and "R=1/2" in err

    def test_mn_header(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "mn",
                           "--k", "4", "--t", "2")
        assert code == 0
        assert out.splitlines()[0] == "4 6 3 4"

    def test_domain_violation_exit_2(self, capsys):
        code, _, err = run(capsys, "construct", "--family", "general",
                           "--q", "3", "--z", "2", "--m", "2", "--t", "2")
        assert code == 2
        assert "t must" in err

    def test_special_family_given_t_exit_2(self, capsys):
        code, out, err = run(capsys, "construct", "--family", "special",
                             "--q", "3", "--z", "2", "--m", "2", "--t", "2")
        assert code == 2
        assert out == ""
        assert "fixes t = 1" in err

    def test_cap_exit_3(self, capsys):
        # F*K = 2*3^14 * 45, above the fixed 10^7-cell cap
        code, _, err = run(capsys, "construct", "--family", "special",
                           "--q", "3", "--z", "2", "--m", "14")
        assert code == 3
        assert "cap" in err

    @pytest.mark.parametrize("argv", [
        ["--family", "mn", "--k", "600000", "--t", "300000"],
        ["--family", "general", "--q", "2", "--z", "1", "--m", "200000",
         "--t", "100000"],
    ], ids=["mn", "general"])
    def test_count_too_long_to_print_exit_3(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, "construct", *argv)
        assert time.perf_counter() - start < 2
        assert (code, out) == (3, "")
        assert err == ("too large: array would hold more than 10^4300 cells, "
                       "above the cap of 10000000\n")

    def test_output_file_and_determinism(self, capsys, tmp_path):
        target = tmp_path / "out.pda"
        for _ in range(2):
            code, _, _ = run(capsys, "construct", "--family", "ext-general",
                             "--q", "3", "--z", "2", "--m", "2", "--t", "1",
                             "--out", str(target))
            assert code == 0
        first = target.read_text()
        assert first.splitlines()[0] == "12 9 6 9"

    def test_construct_verify_round_trip(self, capsys, tmp_path):
        target = tmp_path / "x.pda"
        run(capsys, "construct", "--family", "general", "--q", "4", "--z", "3",
            "--m", "3", "--t", "2", "--out", str(target))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == 0 and out.startswith("valid")

    def test_construct_verify_round_trip_full_sweep(self, capsys, tmp_path):
        from pdakit import standard_sweep
        target = str(tmp_path / "sweep.pda")
        for family, p in standard_sweep():
            argv = ["construct", "--family", family.value, "--q", str(p.q),
                    "--z", str(p.z), "--m", str(p.m), "--t", str(p.t),
                    "--out", target]
            assert main(argv) == 0, (family, p)
            assert main(["verify", "--out", "-", target]) == 0, (family, p)
            capsys.readouterr()


class TestVerify:
    def test_valid_file(self, capsys):
        code, out, _ = run(capsys, "verify", str(FIXTURES / "mn_k4_t2.pda"))
        assert code == 0
        assert "(4, 6, 3, 4)" in out

    def test_corrupted_star_reports_c1_c2(self, capsys, tmp_path):
        text = fixture_text("mn_k4_t2.pda").replace("* * 1 2", "5 * 1 2", 1)
        bad = tmp_path / "bad.pda"
        bad.write_text(text)
        code, out, _ = run(capsys, "verify", str(bad))
        assert code == 1
        assert "C1" in out and "C2" in out

    def test_out_file_holds_report(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        valid = FIXTURES / "special_q3_z2_m2.pda"
        invalid = corrupted(tmp_path, "mn_k4_t2.pda", [(4, 1, "2")])
        for path, want in ((valid, 0), (invalid, 1)):
            code, out, _ = run(capsys, "verify", str(path), "--out",
                               str(target))
            assert code == want and out == ""
            _, stdout_report, _ = run(capsys, "verify", str(path))
            assert target.read_text() == stdout_report
        assert stdout_report.startswith("invalid: 2 violation(s)\n")

    def test_huge_declared_s_is_bounded(self, capsys, tmp_path):
        path = tmp_path / "huge_s.pda"
        path.write_text(f"2 2 1 {10**30}\n* 1\n1 *\n")
        code, out, _ = run(capsys, "verify", str(path))
        lines = out.splitlines()
        assert code == 1
        assert lines[0] == "invalid: 1001 violation(s)"
        assert lines[-1] == f"  C2 {10**30 - 1001} more symbols never occur"

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "junk.pda"
        bad.write_text("not a header\n")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2 and "parse error" in err

    def test_oversized_symbol_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "big.pda"
        bad.write_text("2 2 1 1\n* 3000000000\n1 *\n")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert "parse error: line 2, token 2" in err

    def test_header_above_cell_cap_exit_3(self, capsys, tmp_path):
        path = tmp_path / "huge.pda"
        path.write_text("100000 1000 0 1\n")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (3, "")
        assert "cap of 10000000" in err

    def test_huge_header_token_quoted_short_exit_2(self, capsys, tmp_path):
        path = tmp_path / "huge.pda"
        path.write_text("1" * 100_000 + " 1 0 1\n")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert len(err) < 200 and "(100000 characters)" in err

    def test_header_count_too_long_to_print_exit_3(self, capsys, tmp_path):
        path = tmp_path / "huge.pda"
        path.write_text(f"{10**3000} {10**3000} 0 1\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(path))
        assert time.perf_counter() - start < 2
        assert (code, out) == (3, "")
        assert err.startswith("too large: header declares more than 10^5999 "
                              "cells")

    def test_empty_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "empty.pda"
        bad.write_text("")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "absent.pda"))
        assert code == 2 and "error" in err

    def test_unread_options_exit_2(self, capsys):
        # --format and --seed belong to the subcommands that read them, and
        # the cell cap is fixed, not an option
        path = str(FIXTURES / "mn_k4_t2.pda")
        for argv in (["verify", path, "--format", "csv"],
                     ["verify", path, "--seed", "9"],
                     ["construct", "--family", "mn", "--k", "4", "--t", "2",
                      "--seed", "1"],
                     ["construct", "--family", "special", "--q", "3", "--z",
                      "2", "--m", "2", "--max-cells", "10"],
                     ["simulate", path, "--format", "csv"]):
            assert main(argv) == 2
        # construct refuses the options its family does not read
        capsys.readouterr()
        for argv, message in (
                (["--family", "mn", "--k", "5", "--t", "2", "--q", "3",
                  "--z", "1", "--m", "9"],
                 "construct: mn takes no --q, --z or --m\n"),
                (["--family", "mn", "--k", "5", "--t", "2", "--m", "9"],
                 "construct: mn takes no --q, --z or --m\n"),
                (["--family", "general", "--q", "3", "--z", "2", "--m", "2",
                  "--t", "1", "--k", "5"],
                 "construct: vector families take no --k\n"),
                (["--family", "ext-special", "--q", "3", "--z", "2", "--m",
                  "2", "--k", "5"],
                 "construct: vector families take no --k\n")):
            assert run(capsys, "construct", *argv) == (2, "", message)


def _no_store(*args, **kwargs):
    raise AssertionError("the packet store was built")


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["construct", "--family", "mn", "--t", "2"],
         "construct: mn needs --k and --t\n"),
        (["construct", "--family", "general", "--q", "3", "--z", "2"],
         "construct: vector families need --q, --z and --m\n"),
        (["compare", "--baseline", "szg", "--q", "20"],
         "compare: szg baseline needs --t\n"),
        (["enumerate", "--k", "405"],
         "enumerate: need --k and --ratio (or --table-iii)\n"),
        (["enumerate", "--k", "405", "--ratio", "1/0"],
         "pda enumerate: error: argument --ratio: ratio '1/0' has a zero "
         "denominator\n"),
        (["enumerate", "--k", "405", "--ratio", "1/x"],
         "pda enumerate: error: argument --ratio: ratio a/b must be two "
         "integers, got '1/x'\n"),
        (["simulate", str(FIXTURES / "mn_k4_t2.pda"), "--demand", "1,x,3,4"],
         "error: demand entries must be integers: '1,x,3,4'\n"),
    ], ids=["mn-no-k", "vector-no-m", "szg-no-t", "enumerate-no-ratio",
            "ratio-zero-denominator", "ratio-not-integer",
            "demand-not-integer"])
    def test_exit_2_with_own_message(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.endswith(message)

    @pytest.mark.parametrize("argv, message", [
        (["compare", "--baseline", "szg"],
         "compare: need --baseline and --q (or a preset)\n"),
        (["compare", "--baseline", "yctc", "--q", "5", "--t", "3"],
         "compare: yctc baseline fixes t = 1\n"),
        (["simulate", str(FIXTURES / "mn_k4_t2.pda"), "--demand", "1,2,3,4",
          "--random-demands", "2"],
         "simulate: --demand and --random-demands are exclusive\n"),
        (["simulate", str(FIXTURES / "mn_k4_t2.pda"), "--random-demands", "0"],
         "simulate: --random-demands must be at least 1\n"),
    ], ids=["compare-no-q", "yctc-t", "demand-exclusive",
            "random-demands-zero"])
    def test_refusal_exact(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", message)

    def test_help_returns_0(self, capsys):
        code, out, err = run(capsys, "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: pda ")

    def test_unknown_command_returns_2(self, capsys):
        code, out, err = run(capsys, "nosuch")
        assert (code, out) == (2, "")
        assert err.endswith("error: argument command: invalid choice: "
                            "'nosuch' (choose from 'construct', 'verify', "
                            "'simulate', 'compare', 'enumerate')\n")


class TestSimulate:
    def test_known_demand_trace(self, capsys):
        code, out, _ = run(capsys, "simulate", str(FIXTURES / "mn_k4_t2.pda"),
                           "--files", "6", "--demand", "1,2,3,4")
        assert code == 0
        assert "s=1 terms=(1,4);(2,2);(3,1)" in out
        assert "rate=2/3" in out
        assert out.count(": ok") == 4
        assert "decode=ok" in out

    def test_random_demands(self, capsys):
        code, out, _ = run(capsys, "simulate", str(FIXTURES / "mn_k4_t2.pda"),
                           "--random-demands", "5", "--seed", "3")
        assert code == 0
        assert out.count("decode=ok") == 5

    def test_random_demands_scan_pairs_once(self, capsys, monkeypatch):
        # the C3 audit is part of the array's delivery plan, not the demand
        calls = []
        scan = _kernels.c3_pair_scan
        monkeypatch.setattr(_kernels, "c3_pair_scan",
                            lambda *args: calls.append(1) or scan(*args))
        code, out, _ = run(capsys, "simulate", str(FIXTURES / "mn_k4_t2.pda"),
                           "--random-demands", "5", "--seed", "3")
        assert code == 0 and out.count("decode=ok") == 5
        assert len(calls) == 1

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_random_demands_not_positive_exit_2(self, capsys, monkeypatch,
                                                count):
        # refused before the packet store is allocated
        monkeypatch.setattr(simulate.PacketStore, "synthetic", _no_store)
        code, out, err = run(capsys, "simulate",
                             str(FIXTURES / "mn_k4_t2.pda"),
                             "--random-demands", count)
        assert code == 2
        assert out == ""
        assert "--random-demands must be at least 1" in err

    @pytest.mark.parametrize("path", [FIXTURES / "mn_k4_t2.pda",
                                      FIXTURES / "absent.pda"],
                             ids=["fixture", "absent"])
    @pytest.mark.parametrize("argv, message", [
        (["--random-demands", "0", "--files", "0"],
         "simulate: --random-demands must be at least 1\n"),
        (["--files", "0", "--packet-size", "0", "--seed", "-1"],
         "simulate: --files must be at least 1\n"),
        (["--packet-size", "-5", "--seed", "-1"],
         "simulate: --packet-size must be at least 1\n"),
        (["--seed", "-1"], "simulate: --seed must be at least 0\n"),
    ], ids=["random-demands", "files", "packet-size", "seed"])
    def test_option_minimum_exit_2(self, capsys, monkeypatch, path, argv,
                                   message):
        # refused before the file is read or the packet store allocated
        monkeypatch.setattr(simulate.PacketStore, "synthetic", _no_store)
        assert run(capsys, "simulate", str(path), *argv) == (2, "", message)

    def test_demand_and_random_demands_exclusive_exit_2(self, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(simulate.PacketStore, "synthetic", _no_store)
        code, out, err = run(capsys, "simulate",
                             str(FIXTURES / "mn_k4_t2.pda"),
                             "--demand", "1,2,3,4", "--random-demands", "2")
        assert (code, out) == (2, "")
        assert "--demand and --random-demands are exclusive" in err

    def test_demand_beyond_int64_exit_2(self, capsys):
        code, out, err = run(capsys, "simulate",
                             str(FIXTURES / "mn_k4_t2.pda"),
                             "--demand", "99999999999999999999,1,1,1")
        assert (code, out) == (2, "")
        assert err == "error: demand entries must lie in [1, 4]\n"

    def test_demand_out_of_range_exit_2(self, capsys):
        code, _, err = run(capsys, "simulate", str(FIXTURES / "mn_k4_t2.pda"),
                           "--files", "6", "--demand", "1,2,3,7")
        assert code == 2

    def test_demand_wrong_length_exit_2(self, capsys):
        code, out, err = run(capsys, "simulate",
                             str(FIXTURES / "mn_k4_t2.pda"), "--demand", "1,2")
        assert (code, out) == (2, "")
        assert err == "error: demand must list 4 file indices\n"

    def test_corrupt_array_exit_1(self, capsys, tmp_path):
        text = fixture_text("mn_k4_t2.pda").replace("1 * * 4", "2 * * 4", 1)
        bad = tmp_path / "bad.pda"
        bad.write_text(text)
        code, out, _ = run(capsys, "simulate", str(bad), "--files", "6",
                           "--demand", "1,2,3,4")
        assert code == 1
        assert "decode=FAIL" in out

    @pytest.mark.parametrize("option, value", [
        ("--packet-size", 10**9), ("--packet-size", 10**12),
        ("--files", 10**9), ("--files", 10**12)])
    def test_over_byte_cap_exit_3(self, capsys, option, value):
        # N * F * packet_size is refused before the store is allocated
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "simulate",
                                 str(FIXTURES / "mn_k4_t2.pda"), option,
                                 str(value))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, size = (4, value) if option == "--packet-size" else (value, 64)
        assert (code, out) == (3, "")
        assert err == (f"too large: the packet store would hold "
                       f"{n * 6 * size} bytes, above the cap of "
                       f"{simulate.BYTE_CAP}\n")
        assert peak < 1 << 20

    def test_refused_demand_creates_no_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out, err = run(capsys, "simulate",
                             str(FIXTURES / "mn_k4_t2.pda"), "--demand",
                             "1,2", "--out", str(target))
        assert (code, out) == (2, "")
        assert err == "error: demand must list 4 file indices\n"
        assert not target.exists()

    def test_random_demands_streamed(self, capsys, tmp_path):
        # each demand's block is written when it is decoded, so the traced
        # peak does not grow with the number of demands
        target = str(tmp_path / "out.txt")

        def peak(count):
            tracemalloc.start()
            try:
                code = main(["simulate", str(FIXTURES / "mn_k4_t2.pda"),
                             "--random-demands", str(count), "--out",
                             target])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # first use builds the cell table, imports and caches
        assert peak(1)[0] == 0
        (code, few), (code_many, many) = peak(2000), peak(10000)
        assert code == code_many == 0
        with open(target, encoding="ascii") as fh:
            assert sum(line == "decode=ok\n" for line in fh) == 10000
        assert many <= few + (1 << 17)

    def test_trace_streamed(self, tmp_path, monkeypatch):
        # the trace of mn(60, 1), 1770 slots of 1 KB payloads from one
        # 60 KB file, is written in blocks of 8 slots
        path, target = tmp_path / "mn.pda", tmp_path / "out.txt"
        save(construct_mn(60, 1), path)
        argv = ["simulate", str(path), "--files", "1", "--packet-size",
                "1024", "--out", str(target)]
        monkeypatch.setattr(simulate, "TRACE_BLOCK", 8)
        trace, held = simulate.TransmissionLog.trace, []

        def measured(log):
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            yield from trace(log)

        monkeypatch.setattr(simulate.TransmissionLog, "trace", measured)
        assert main(argv) == 0  # first use: imports and caches
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        store, payload = 60 * 1024, 1770 * 1024
        text = target.stat().st_size
        block = 8 * text // 1770
        assert text > 30 * store
        # past the store and the payload, nothing trace-sized is held when
        # the trace starts, and a few blocks are made while it is written
        assert held[-1] - store - payload < text // 8
        assert peak - held[-1] < 8 * block

    def test_deterministic_output(self, capsys):
        args = ("simulate", str(FIXTURES / "special_q3_z2_m2.pda"),
                "--random-demands", "3", "--seed", "11")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


def corrupted(tmp_path, fixture, edits):
    """Copy a fixture with cells (row, column) set to new tokens, 1-based."""
    lines = fixture_text(fixture).splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    for row, col, token in edits:
        cells = lines[body[row]].split()  # body[0] is the header
        cells[col - 1] = token
        lines[body[row]] = " ".join(cells)
    path = tmp_path / fixture
    path.write_text("\n".join(lines) + "\n")
    return path


# corrupted arrays for the C3 gate: each breaks C3 in one way
C3_CASES = {
    "special-row": ("special_q3_z2_m2.pda", [(1, 8, "3")]),
    "special-column": ("special_q3_z2_m2.pda", [(3, 2, "5")]),
    "special-star": ("special_q3_z2_m2.pda", [(1, 1, "1")]),
    "special-two-cross": ("special_q3_z2_m2.pda", [(1, 3, "4")]),
    "mn-row": ("mn_k4_t2.pda", [(1, 3, "2")]),
    "mn-column": ("mn_k4_t2.pda", [(1, 3, "3")]),
}
C3_COMMANDS = {
    "verify": (),
    "simulate": ("--seed", "3"),
    "random": ("--seed", "3", "--random-demands", "3"),
}
# SHA-256 of the stdout of each (case, command), recorded before the
# verifier and the decoder shared one C3 classifier
C3_DIGESTS = {
    ("mn-column", "random"):
        "ccc7b31f03284acff9351e0060bfac97d8f20d825f17cdc2683e93dbc8235d9a",
    ("mn-column", "simulate"):
        "1cefbb1c59d9a1c39c201a81adb897ee132f8d99a0da3a838934d061aae4b419",
    ("mn-column", "verify"):
        "1af248e5cbe1ca3207b55f6c2e5338fbbd56de59b0456309da1ace50c95b05df",
    ("mn-row", "random"):
        "c4038a2d30a083d2fa5f966b541ca2af7f4fec48fd58919f6c9e02a71a9f6e95",
    ("mn-row", "simulate"):
        "1914087b74d074587c652d465c7bbf1fd5e8a1b560d65504bf003784dee38588",
    ("mn-row", "verify"):
        "dc1ca3dda2e2e99c04b3acdbd46e0c79b3bee3ca2fb0067d5201354a8f61af7b",
    ("special-column", "random"):
        "ffc90eb77d4c0e6b926d2234f6eae60cc8078d0a01d91eec809b49584f57db71",
    ("special-column", "simulate"):
        "b915569453a516d90737eb2ab8389b1928fb65d29a639fb93800d6614ed50ef2",
    ("special-column", "verify"):
        "2ccc99606789f2504afb883452f84f902b563336b83eac805737e037db5803a0",
    ("special-row", "random"):
        "e7c6b512dd5794c6f0e892c33e0fb5f315124d0f51e2e6f2b273ddc9d062655c",
    ("special-row", "simulate"):
        "d532d0420ca1d0b5e2984d03f027890146bd8cc5649c16a95022a3d0c7884f95",
    ("special-row", "verify"):
        "0fc624bd52d7418f78857ea86ec99983d1e7abedc8d6b56df619758dd07bc07b",
    ("special-star", "random"):
        "6fff4b5b6cc3ffed07167840c55aee92317e05a317dd5550d7214053bcdd5a01",
    ("special-star", "simulate"):
        "b24f67510a3d1636c7b9a67e30b9f7b8bd3795efd9643bab49f3bc07181f4b7f",
    ("special-star", "verify"):
        "50c22b79564bf9b5921a3521b77616aa0913735c80ca13f5b1e9474dcb658204",
    ("special-two-cross", "random"):
        "692ab27477a38edc165f68913d32c0c89dfe7d40758d8a48e8adf9c0f3cc1ab4",
    ("special-two-cross", "simulate"):
        "7f2f90c3498b3d8790d1e08b1c6f2a22bab3f4cb37667e9c3c36060253ee3ee2",
    ("special-two-cross", "verify"):
        "fa072271da4a628b059bc2e1c24d117d89203f3d0e5a9a6f93f5bac95575e6f6",
}


class TestC3Gate:
    @pytest.mark.parametrize("case", sorted(C3_CASES))
    @pytest.mark.parametrize("command", sorted(C3_COMMANDS))
    def test_output_unchanged(self, capsys, tmp_path, case, command):
        path = corrupted(tmp_path, *C3_CASES[case])
        sub = "verify" if command == "verify" else "simulate"
        code, out, _ = run(capsys, sub, str(path), *C3_COMMANDS[command])
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == \
            C3_DIGESTS[case, command]

    def test_changed_cell_output(self, capsys, tmp_path):
        # mn(4,2) with cell (4,1) changed from 1 to 2
        path = corrupted(tmp_path, "mn_k4_t2.pda", [(4, 1, "2")])
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert out.splitlines() == [
            "invalid: 2 violation(s)",
            "  C3a (4,1) (5,1) symbol 2 repeats in column 1",
            "  C3b (4,1) (1,4) symbol 2: cross cell(s) (4,4) not a star",
        ]
        code, out, _ = run(capsys, "simulate", str(path), "--seed", "3")
        assert code == 1
        assert out.splitlines() == [
            "seed=3 N=4 packet_size=64",
            "demand=1,2,3,4",
            "s=1 terms=(2,2);(3,1) "
            "payload=d869d5cbba86d10182a762cb342ef65457c43e283b3b23e22bedcd"
            "7030274c12331c3720496f35557999a1fcf2667536bde2f794700dba066f0a"
            "912b0741e2f5",
            "s=2 terms=(1,4);(1,5);(2,3);(4,1) "
            "payload=a850aeb8322e1748b523063b08fb6471ef02b646a41cdfb1c270d6"
            "1e3a085d08abf679f99fa388eb1a8aa382280e13af95aa7f96cc0f01f56a03"
            "00cff1cb1337",
            "s=3 terms=(1,6);(3,3);(4,2) "
            "payload=5443bc8a66e47fadb0360aa4160d049bdfbed1aea7c6d47e4fce15"
            "387f286d24b1df6b482f40b21928443de9fa4a1d0d0a9ac32827ed73f9af11"
            "53c1c91ed745",
            "s=4 terms=(2,6);(3,5);(4,4) "
            "payload=41b86987a13fd29d19434046bbf1f1477630889a80daf0c33d227d"
            "0e03686b6b39163bbecee72d6459357d80b8593ef2f5044caf92ab3b6e068d"
            "d06e51fac2a8",
            "bytes_sent=256 rate=2/3",
            "user 1 file 1: FAIL symbol 2 occurs twice in column 1 (rows "
            "4, 5): own packets collide",
            "user 2 file 2: ok",
            "user 3 file 3: ok",
            "user 4 file 4: FAIL packet (file 1, row 4) needed for symbol "
            "2 is not cached: cell (4,4) is not a star",
            "decode=FAIL",
        ]
        code, out, _ = run(capsys, "simulate", str(path), "--seed", "3",
                           "--random-demands", "3")
        assert code == 1
        assert out.splitlines() == [
            "seed=3 N=4 packet_size=64",
            "demand=4,1,1,1",
            "bytes_sent=256 rate=2/3",
            "user 1 file 4: FAIL symbol 2 occurs twice in column 1 (rows "
            "4, 5): own packets collide",
            "user 2 file 1: ok",
            "user 3 file 1: ok",
            "user 4 file 1: FAIL packet (file 4, row 4) needed for symbol "
            "2 is not cached: cell (4,4) is not a star",
            "decode=FAIL",
            "demand=1,4,4,3",
            "bytes_sent=256 rate=2/3",
            "user 1 file 1: FAIL symbol 2 occurs twice in column 1 (rows "
            "4, 5): own packets collide",
            "user 2 file 4: ok",
            "user 3 file 4: ok",
            "user 4 file 3: FAIL packet (file 1, row 4) needed for symbol "
            "2 is not cached: cell (4,4) is not a star",
            "decode=FAIL",
            "demand=1,1,2,2",
            "bytes_sent=256 rate=2/3",
            "user 1 file 1: FAIL symbol 2 occurs twice in column 1 (rows "
            "4, 5): own packets collide",
            "user 2 file 1: ok",
            "user 3 file 2: ok",
            "user 4 file 2: FAIL packet (file 1, row 4) needed for symbol "
            "2 is not cached: cell (4,4) is not a star",
            "decode=FAIL",
        ]


class TestCompare:
    def test_preset_general_table(self, capsys):
        code, out, _ = run(capsys, "compare", "--table-iv")
        assert code == 0
        assert "0.0137174211248285" in out
        assert "0.00462962962962963" in out
        assert len(out.splitlines()) == 2 + 8  # header rows + z=11..18

    def test_preset_t1_table(self, capsys):
        code, out, _ = run(capsys, "compare", "--table-v")
        assert code == 0
        assert "0.0246913580246914" in out and "0.45" in out

    def test_explicit_sweep_matches_preset(self, capsys):
        _, preset, _ = run(capsys, "compare", "--table-v")
        _, manual, _ = run(capsys, "compare", "--baseline", "yctc",
                           "--q", "20", "--lambda", "0.5")
        assert preset == manual

    def test_single_z_csv(self, capsys):
        code, out, _ = run(capsys, "compare", "--baseline", "szg", "--q", "20",
                           "--z", "14", "--t", "3", "--lambda", "0.1",
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "z,r_bound,f_ratio"
        assert lines[1].startswith("14,0.0137174211248285,")

    def test_domain_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "compare", "--baseline", "szg", "--q", "20",
                         "--z", "25", "--t", "3", "--lambda", "0.1")
        assert code == 2

    def test_missing_args_exit_2(self, capsys):
        code, _, _ = run(capsys, "compare", "--baseline", "szg")
        assert code == 2

    def test_yctc_given_t_other_than_1_exit_2(self, capsys):
        code, out, err = run(capsys, "compare", "--baseline", "yctc",
                             "--q", "5", "--t", "3")
        assert code == 2
        assert out == ""
        assert "t = 1" in err
        _, with_t1, _ = run(capsys, "compare", "--baseline", "yctc",
                            "--q", "20", "--t", "1")
        _, preset, _ = run(capsys, "compare", "--table-v")
        assert with_t1 == preset

    @pytest.mark.parametrize("argv, same_as, message", [
        (["--baseline", "szg", "--q", "-5", "--t", "1"], None,
         "error: q must be at least 2\n"),
        (["--baseline", "szg", "--q", "3", "--t", "0"],
         ["--baseline", "szg", "--q", "20", "--t", "0"],
         "error: t must be at least 1\n"),
        (["--baseline", "yctc", "--q", "3", "--lambda", "1"],
         ["--baseline", "yctc", "--q", "20", "--lambda", "1"],
         "error: lambda must lie strictly between 0 and 1\n"),
        (["--baseline", "szg", "--q", "2", "--t", "0", "--lambda", "nan"],
         ["--baseline", "szg", "--q", "20", "--t", "0", "--lambda", "nan"],
         "error: t must be at least 1\n"),
    ], ids=["q", "t", "lambda", "t-before-lambda"])
    def test_empty_sweep_refused_as_a_full_one(self, capsys, argv, same_as,
                                               message):
        # q = 3 and below sweep no z; the refusal is the one the first z
        # of a full sweep gives
        assert run(capsys, "compare", *argv) == (2, "", message)
        if same_as is not None:
            assert run(capsys, "compare", *same_as) == (2, "", message)

    @pytest.mark.parametrize("argv", [
        ["--baseline", "szg", "--q", "20", "--t", "2000", "--z", "19"],
        ["--baseline", "szg", "--q", "30", "--t", "400"],
        ["--baseline", "szg", "--q", "2", "--t", "999999999999"],
        ["--baseline", "szg", "--q", "3163", "--t", "2"],
        ["--baseline", "yctc", "--q", "10000001"],
        ["--baseline", "yctc", "--q", "10" * 20, "--z", "3"],
    ], ids=["t-2000", "t-400", "t-1e12", "q-squared", "q", "q-single-z"])
    def test_q_to_the_t_above_the_cell_cap_exit_3(self, capsys, argv):
        start = time.perf_counter()
        assert run(capsys, "compare", *argv) == (
            3, "", "too large: an array over Z_q with subsets of size t "
                   "holds at least q^t cells, above the cap of 10000000\n")
        assert time.perf_counter() - start < 2

    def test_cap_is_inclusive(self, capsys, monkeypatch):
        # 5^2 = 25 at the cap sweeps z = 3; 26^1 is one above it
        monkeypatch.setattr(analysis, "CELL_CAP", 25)
        code, out, _ = run(capsys, "compare", "--baseline", "szg",
                           "--q", "5", "--t", "2")
        assert code == 0 and out.splitlines()[2].split()[0] == "3"
        code, _, err = run(capsys, "compare", "--baseline", "yctc",
                           "--q", "26")
        assert code == 3 and err.endswith("above the cap of 25\n")

    def test_refused_z_creates_no_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, _, err = run(capsys, "compare", "--baseline", "szg", "--q", "20",
                           "--z", "25", "--t", "3", "--out", str(target))
        assert (code, err) == (2, "error: z must satisfy 1 <= z <= q-1\n")
        assert not target.exists()

    def test_table_streamed_in_blocks(self, capsys, monkeypatch):
        # the rows are written a block at a time, as they are made
        monkeypatch.setattr(cli, "COMPARE_BLOCK", 4)
        write, chunks = cli._write, []

        def recorded(target, text):
            write(target, (chunks.append(c) or c for c in text))

        monkeypatch.setattr(cli, "_write", recorded)
        code, out, _ = run(capsys, "compare", "--table-iv")
        assert code == 0 and "".join(chunks) == out
        assert [c.count("\n") for c in chunks] == [4, 4, 2]

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_empty_sweep_writes_its_header(self, capsys, q):
        # no z lies in q/2 < z < q - 1: the table is its header alone
        argv = ["compare", "--baseline", "szg", "--q", str(q), "--t", "1"]
        assert run(capsys, *argv) == (0, (
            f"baseline=szg q={q} t=1 lambda=0.1\n"
            f"{'z':>4} {'R_ratio<':>22} {'F_ratio':>22}\n"), "")
        assert run(capsys, *argv, "--format", "csv") == (
            0, "z,r_bound,f_ratio\n", "")

    def test_sweep_memory_does_not_grow_with_q(self, tmp_path):
        target = str(tmp_path / "out.csv")

        def peak(q):
            tracemalloc.start()
            try:
                code = main(["compare", "--baseline", "yctc", "--q", str(q),
                             "--format", "csv", "--out", target])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 10^4 rows against 3 * 10^4: a table held whole costs hundreds of
        # bytes a row, a streamed one a few blocks of 4096 rows either way
        assert peak(8)[0] == 0  # first use: imports and caches
        (code, few), (code_many, many) = peak(20000), peak(60000)
        assert code == code_many == 0
        assert many <= few + (1 << 19)


class TestEnumerate:
    def test_preset_rows(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--table-iii")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("K=405")
        assert "13 scheme(s)" in lines[0]
        assert len(lines) == 2 + 13
        assert "147.9072" in out and "4.9053" in out

    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "405",
                           "--ratio", "2/3", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "family,q,z,m,t,R_num,R_den,lnF"
        assert lines[1].startswith("special,3,2,134,1,1,2,")

    def test_include_dominated_superset(self, capsys):
        _, small, _ = run(capsys, "enumerate", "--k", "405", "--ratio", "2/3",
                          "--format", "csv")
        _, full, _ = run(capsys, "enumerate", "--k", "405", "--ratio", "2/3",
                         "--format", "csv", "--include-dominated")
        assert set(small.splitlines()) <= set(full.splitlines())
        assert len(full.splitlines()) > len(small.splitlines())

    def test_ratio_must_be_fraction(self, capsys):
        assert main(["enumerate", "--k", "4", "--ratio", "0.5"]) == 2

    def test_empty_result_ok(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "3", "--ratio", "1/2")
        assert code == 0
        assert "0 scheme(s)" in out


def _no_library():
    raise OSError("no C library")


class TestAllocatorPin:
    @pytest.fixture(autouse=True)
    def unpinned(self):
        # each test starts as a fresh process would, and leaves the next
        # main() to pin the real allocator again
        cli._pin_allocator.cache_clear()
        yield
        cli._pin_allocator.cache_clear()

    def test_thresholds_pinned_once_per_process(self, capsys, monkeypatch):
        calls = []
        libc = types.SimpleNamespace(
            mallopt=lambda param, value: calls.append((param, value)) or 1)
        monkeypatch.setattr(cli, "_libc", lambda: libc)
        for _ in range(2):
            run(capsys, "verify", str(FIXTURES / "mn_k4_t2.pda"))
        assert calls == [(-3, 16 << 20), (-1, 32 << 20)]
        assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)

    def test_import_pins_nothing(self):
        code = ("import pdakit, pdakit.cli; "
                "print(pdakit.cli._pin_allocator.cache_info().currsize)")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(pdakit.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout == "0\n"

    @pytest.mark.parametrize("lookup", [types.SimpleNamespace, _no_library],
                             ids=["no-mallopt", "no-library"])
    def test_same_results_without_mallopt(self, capsys, monkeypatch,
                                          tmp_path, lookup):
        bad = corrupted(tmp_path, "mn_k4_t2.pda", [(4, 1, "2")])
        commands = [
            ["verify", str(FIXTURES / "mn_k4_t2.pda")],
            ["verify", str(bad)],
            ["simulate", str(bad), "--seed", "3"],
            ["construct", "--family", "special", "--q", "3", "--z", "2",
             "--m", "2"],
            ["verify", str(tmp_path / "missing.pda")]]
        pinned = [run(capsys, *argv) for argv in commands]
        cli._pin_allocator.cache_clear()
        monkeypatch.setattr(cli, "_libc", lookup)
        assert [run(capsys, *argv) for argv in commands] == pinned
        assert [code for code, _, _ in pinned] == [0, 1, 1, 0, 2]

"""Size limits: every refusal, its full message and its exit code."""

import contextlib
import io
import os
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdakit
from helpers import c3_heavy_text
from pdakit import (PacketStore, SizeCapError, _kernels,
                    construct_ext_general, construct_general, construct_mn,
                    construct_special, decode_and_verify, deliver,
                    enumerate_schemes, parse, simulate, verify_pda)
from pdakit import analysis, constructions, core
from pdakit.cli import main
from pdakit.core import _cell_table

BIG = 10**3000


def _gather_over_lowered_cap(monkeypatch):
    # mn(4, 2) has 12 non-star cells: 12 packets of 8 bytes are gathered
    monkeypatch.setattr(simulate, "BYTE_CAP", 95)
    deliver(construct_mn(4, 2), PacketStore.synthetic(1, 6, 8), [1] * 4)


REFUSALS = [
    ("vector", lambda mp: construct_general(3, 2, 12, 1),
     "array would hold 38263752 cells, above the cap of 10000000"),
    ("vector-unprintable",
     lambda mp: construct_general(2, 1, 200_000, 100_000),
     "array would hold more than 10^4300 cells, above the cap of 10000000"),
    ("mn", lambda mp: construct_mn(5000, 2),
     "array would hold 62487500000 cells, above the cap of 10000000"),
    ("mn-unprintable", lambda mp: construct_mn(30_000, 15_000),
     "array would hold more than 10^4300 cells, above the cap of 10000000"),
    ("header", lambda mp: parse("100000 1000 0 1\n* 1\n"),
     "header declares 100000000 cells (F=1000, K=100000), above the cap of "
     "10000000"),
    ("header-unprintable", lambda mp: parse(f"{BIG} {BIG} 0 1\n* 1\n"),
     f"header declares more than 10^5999 cells (F={BIG}, K={BIG}), above "
     "the cap of 10000000"),
    ("store", lambda mp: PacketStore.synthetic(10**12, 6, 64),
     "the packet store would hold 384000000000000 bytes, above the cap of "
     "1073741824"),
    ("store-unprintable", lambda mp: PacketStore.synthetic(BIG, BIG, 1),
     "the packet store would hold more than 10^5999 bytes, above the cap "
     "of 1073741824"),
    ("gather", _gather_over_lowered_cap,
     "the gathered packets would hold 96 bytes, above the cap of 95"),
]


@pytest.mark.parametrize("refuse, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refusal_text(monkeypatch, refuse, message):
    with pytest.raises(SizeCapError) as info:
        refuse(monkeypatch)
    assert str(info.value) == message


def run_limited(*argv, timeout=60, program=("-m", "pdakit.cli")):
    """Run ``pda``, or another ``program`` given as Python's options, as a
    child process under a 2 GiB address-space limit and a timeout, both
    set on the child only: (exit code, stdout, stderr, seconds)."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    env = dict(os.environ, PYTHONPATH=str(Path(pdakit.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *program, *argv],
                          capture_output=True, text=True, env=env,
                          preexec_fn=limit, timeout=timeout)
    return (proc.returncode, proc.stdout, proc.stderr,
            time.perf_counter() - start)


class TestC3WorkCap:
    def test_cap_is_inclusive(self, monkeypatch):
        # mn(4, 2): 4 symbols of 3 cells gather 4 * 3^2 = 36 cross cells
        monkeypatch.setattr(core, "C3_WORK_CAP", 36)
        assert verify_pda(construct_mn(4, 2)).valid
        monkeypatch.setattr(core, "C3_WORK_CAP", 35)
        with pytest.raises(SizeCapError) as info:
            verify_pda(construct_mn(4, 2))
        assert str(info.value) == ("the C3 pair scan would gather 36 "
                                   "cross-cell entries, above the cap of 35")

    def test_refused_before_the_scan(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("pair scan ran")
        monkeypatch.setattr(_kernels, "c3_pair_scan", refuse)
        monkeypatch.setattr(core, "C3_WORK_CAP", 35)
        arr = construct_mn(4, 2)
        store = PacketStore.synthetic(1, 6, 8)
        for check in (lambda: verify_pda(arr),
                      lambda: decode_and_verify(
                          arr, store, [1] * 4, deliver(arr, store, [1] * 4))):
            with pytest.raises(SizeCapError, match="cross-cell entries"):
                check()

    def test_cap_admits_heaviest_constructible_array(self):
        # general(2,1,12,3): 4096 symbols of 220 cells each
        starts = _cell_table(construct_general(2, 1, 12, 3)).starts
        g = np.diff(starts)
        assert int(g @ g) == 198_246_400 <= core.C3_WORK_CAP

    def test_all_ones_file_exits_3_in_seconds(self, tmp_path):
        # one symbol of 2*10^5 cells: 4*10^10 cross cells
        path = tmp_path / "ones.pda"
        path.write_text("200 1000 0 1\n" + ("1 " * 199 + "1\n") * 1000)
        code, _, err, seconds = run_limited("verify", str(path))
        assert (code, err) == (3, (
            "too large: the C3 pair scan would gather 40000000000 "
            "cross-cell entries, above the cap of 1073741824\n"))
        assert seconds < 5


    def test_c3_heavy_file_exits_1_in_seconds(self, tmp_path):
        # 2.01e7 bad pairs under the work cap: the report lists 1000 of
        # them and counts the rest
        path = tmp_path / "heavy.pda"
        path.write_text(c3_heavy_text())
        code, out, err, seconds = run_limited("verify", str(path))
        assert (code, err) == (1, "")
        assert len(out.encode()) < 200 << 10
        assert out.splitlines()[-1] == (
            "  C3 20125848 more pairs break C3: 612995 C3a, 19512853 C3b")

    def test_one_column_of_ones_exits_1_in_bounded_memory(self, tmp_path):
        # one symbol of 32768 cells in one column: 2^30 cross cells, exactly
        # the work cap, and 536854528 bad pairs, none of them kept beyond
        # the listed 1000
        path = tmp_path / "column.pda"
        path.write_text("1 32768 0 1\n" + "1\n" * 32768)
        code, out, err, _ = run_limited("verify", str(path))
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert lines[0] == "invalid: 1001 violation(s)"
        assert lines[1] == "  C3a (1,1) (2,1) symbol 1 repeats in column 1"
        assert lines[-1] == ("  C3 536853528 more pairs break C3: "
                             "536853528 C3a, 0 C3b")


class TestUserCountCap:
    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(analysis, "CELL_CAP", 405)
        assert enumerate_schemes(405, Fraction(2, 3))
        with pytest.raises(SizeCapError) as info:
            enumerate_schemes(406, Fraction(2, 3))
        assert str(info.value) == ("an array for K users holds at least K "
                                   "cells, above the cap of 405")

    def test_huge_k_exits_3_at_once(self, capsys):
        start = time.perf_counter()
        code = main(["enumerate", "--k", "7" * 4000, "--ratio", "1/2"])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 2
        assert (code, captured.out) == (3, "")
        assert captured.err == ("too large: an array for K users holds at "
                                "least K cells, above the cap of 10000000\n")


NINES = 10**600 - 1
_GENERAL = constructions.theorem_params(
    "general", constructions.ConstructionParams(17, 1, 780, 1))
_MN = constructions.mn_params(3000, 1500)
# refusals of 964-, 905- and 1200-digit counts, and the d of the bound
# "more than 10^d" each is written as under a 640-digit int-to-str limit:
# (argv, count, d, claim), where "{}" in argv is a file whose header
# declares K = F = NINES
LONG_COUNTS = [
    (["construct", "--family", "general", "--q", "17", "--z", "1",
      "--m", "780"], _GENERAL.k * _GENERAL.f, 963,
     "array would hold {} cells"),
    (["construct", "--family", "mn", "--k", "3000", "--t", "1500"],
     _MN.k * _MN.f, 904, "array would hold {} cells"),
    (["verify", "{}"], NINES * NINES, 1199,
     f"header declares {{}} cells (F={NINES}, K={NINES})"),
]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str limit")
class TestLoweredIntStrLimit:
    # a count with more digits than the process's int-to-str limit allows
    # is written as a bound, as a count from 10^4300 up is
    @staticmethod
    def refusal(capsys, tmp_path, argv):
        path = tmp_path / "nines.pda"
        path.write_text(f"{NINES} {NINES} 0 1\n")
        code = main([a.format(path) for a in argv])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    @pytest.mark.parametrize("argv, count, d, claim", LONG_COUNTS,
                             ids=["general", "mn", "header"])
    def test_bound_under_a_640_digit_limit(self, capsys, tmp_path, argv,
                                           count, d, claim):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, err = self.refusal(capsys, tmp_path, argv)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, err) == (
            3, f"too large: {claim.format(f'more than 10^{d}')}, "
               "above the cap of 10000000\n")
        # under the default limit the count is written in full
        assert len(str(count)) == d + 1
        assert self.refusal(capsys, tmp_path, argv) == (
            3, f"too large: {claim.format(count)}, "
               "above the cap of 10000000\n")

    def test_bound_in_a_process(self, monkeypatch):
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "640")
        code, out, err, _ = run_limited(*LONG_COUNTS[1][0])
        assert (code, out, err) == (
            3, "", "too large: array would hold more than 10^904 cells, "
                   "above the cap of 10000000\n")


def usage_error(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects an option's type
        code = exc.code
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err.splitlines()[-1]


SEVENS = "7" * 5000
EXES = "x" * 5000
FIXTURE = str(Path(__file__).parent / "fixtures" / "mn_k4_t2.pda")
QUOTED = f"'{SEVENS[:32]}'... (5000 characters)"


class TestBoundedEchoes:
    @pytest.mark.parametrize("argv, message", [
        (["enumerate", "--k", "405", "--ratio", f"1/{SEVENS}"],
         f"pda enumerate: error: argument --ratio: {QUOTED} has more than "
         "4300 digits"),
        (["enumerate", "--k", "405", "--ratio", f"1/x{SEVENS}"],
         "pda enumerate: error: argument --ratio: ratio a/b must be two "
         f"integers, got '1/x{SEVENS[:29]}'... (5003 characters)"),
        (["enumerate", "--k", "405", "--ratio", SEVENS],
         "pda enumerate: error: argument --ratio: ratio must be an exact "
         f"fraction a/b, got {QUOTED}"),
        (["enumerate", "--k", "405", "--ratio", f"1/{'0' * 40}"],
         f"pda enumerate: error: argument --ratio: ratio '1/{'0' * 30}'... "
         "(42 characters) has a zero denominator"),
        (["enumerate", "--k", SEVENS, "--ratio", "1/2"],
         f"pda enumerate: error: argument --k: {QUOTED} has more than 4300 "
         "digits"),
        (["enumerate", "--k", "x" + SEVENS, "--ratio", "1/2"],
         f"pda enumerate: error: argument --k: invalid int value: "
         f"'x{SEVENS[:31]}'... (5001 characters)"),
        (["simulate", FIXTURE, "--files", SEVENS],
         f"pda simulate: error: argument --files: {QUOTED} has more than "
         "4300 digits"),
        (["simulate", FIXTURE, "--demand", f"1,2,3,x{SEVENS}"],
         "error: demand entries must be integers: "
         f"'1,2,3,x{SEVENS[:25]}'... (5007 characters)"),
        (["simulate", FIXTURE, "--demand", f"1,2,3,{SEVENS}"],
         f"error: {QUOTED} has more than 4300 digits"),
        (["compare", "--baseline", "szg", "--q", "20", "--t", "3",
          "--lambda", "x" + SEVENS],
         "pda compare: error: argument --lambda: invalid float value: "
         f"'x{SEVENS[:31]}'... (5001 characters)"),
        (["enumerate", "--table-iii", "--format", SEVENS],
         f"pda enumerate: error: argument --format: invalid choice: "
         f"{QUOTED} (choose from 'text', 'csv')"),
        (["compare", "--baseline", SEVENS, "--q", "20"],
         f"pda compare: error: argument --baseline: invalid choice: "
         f"{QUOTED} (choose from 'szg', 'yctc')"),
        (["construct", "--family", SEVENS],
         f"pda construct: error: argument --family: invalid choice: "
         f"{QUOTED} (choose from 'mn', 'general', 'special', "
         "'ext-general', 'ext-special')"),
        (["verify", SEVENS],
         f"error: [Errno 36] File name too long: {QUOTED}"),
        (["verify", "/" + "7" * 40],
         "error: [Errno 2] No such file or directory: "
         f"'/{SEVENS[:31]}'... (41 characters)"),
        ([SEVENS],
         f"pda: error: argument command: invalid choice: {QUOTED} (choose "
         "from 'construct', 'verify', 'simulate', 'compare', 'enumerate')"),
        (["verify", FIXTURE, EXES],
         f"pda: error: unrecognized arguments: '{EXES[:32]}'... (5000 "
         "characters)"),
        (["verify", FIXTURE, "--" + EXES],
         f"pda: error: unrecognized arguments: '--{EXES[:30]}'... (5002 "
         "characters)"),
    ], ids=["ratio-long-digits", "ratio-long-text", "ratio-no-slash",
            "ratio-long-zero", "k-long-digits", "k-long-text",
            "files-long-digits", "demand-long-text", "demand-long-digits",
            "lambda-long-text", "format-long-choice", "baseline-long-choice",
            "family-long-choice", "verify-long-path", "verify-missing-path",
            "long-subcommand", "long-extra-argument", "long-extra-option"])
    def test_long_text_is_quoted_with_its_length(self, capsys, argv,
                                                 message):
        code, last = usage_error(capsys, *argv)
        assert (code, last) == (2, message)

    @pytest.mark.parametrize("argv", [
        ["compare", "--baseline", "szg", "--q", "20", "--t", "3",
         "--lambda", "x" * 5000],
        ["enumerate", "--table-iii", "--format", "x" * 5000],
        ["verify", "x" * 5000],
        ["x" * 5000],
        ["verify", FIXTURE, EXES],
        ["verify", FIXTURE, "--" + EXES],
        ["enumerate", "--k", "405", "--ratio", f"1/{SEVENS}"]])
    def test_long_echo_in_a_process_stays_short(self, argv):
        code, _, err, _ = run_limited(*argv)
        assert code == 2 and "Traceback" not in err
        assert len(err.encode()) < 500

    @pytest.mark.parametrize("argv, message", [
        (["compare", "--baseline", "szg", "--q", "20", "--t", "3",
          "--lambda", "1/2"],
         "pda compare: error: argument --lambda: invalid float value: "
         "'1/2'"),
        (["enumerate", "--table-iii", "--format", "tsv"],
         "pda enumerate: error: argument --format: invalid choice: 'tsv' "
         "(choose from 'text', 'csv')"),
        (["verify", "no-such.pda"],
         "error: [Errno 2] No such file or directory: 'no-such.pda'"),
        (["verify2"],
         "pda: error: argument command: invalid choice: 'verify2' (choose "
         "from 'construct', 'verify', 'simulate', 'compare', 'enumerate')")])
    def test_short_text_keeps_its_message(self, capsys, argv, message):
        assert usage_error(capsys, *argv) == (2, message)

    def test_short_extra_arguments_are_quoted_whole(self, capsys):
        assert usage_error(capsys, "verify", FIXTURE, "x", "--y") == (
            2, "pda: error: unrecognized arguments: 'x --y'")

    @pytest.mark.parametrize("text", ["x", "1.5", "+-5", " ", "1 2"])
    def test_short_int_text_keeps_argparse_message(self, capsys, text):
        code, last = usage_error(capsys, "enumerate", "--k", text,
                                 "--ratio", "1/2")
        assert (code, last) == (2, "pda enumerate: error: argument --k: "
                                   f"invalid int value: {text!r}")

    def test_header_count_too_long_to_convert(self):
        with pytest.raises(pdakit.PdaFormatError) as info:
            parse(f"{SEVENS} 1 0 1\n1\n")
        assert str(info.value) == f"line 1, token 1: K {QUOTED} has more " \
                                  "than 4300 digits"


# -- fuzzed files: every edit of a fixture ends in a documented exit ---

FIXTURE_BYTES = [path.read_bytes() for path in
                 sorted((Path(__file__).parent / "fixtures").glob("*.pda"))]
# a NUL, carriage returns, comment marks, non-ASCII text, separators,
# tokens and 5000-digit runs
EDIT_BYTES = (b"\x00", b"\r", b"\r\n", b"#", b"# c\n", "é".encode(),
              b"\xff", b"\x0c", b"\t", b" ", b"\n", b"*", b"0", b"-", b"+",
              b"x", b"7" * 5000, b"0" * 5000)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIXTURE_BYTES),
       st.lists(st.tuples(st.sampled_from(("insert", "delete", "replace")),
                          st.integers(0, 10**6), st.sampled_from(EDIT_BYTES)),
                min_size=1, max_size=4))
def test_verify_of_fuzzed_fixture_ends_in_an_exit_code(data, edits):
    for kind, pos, piece in edits:
        i = pos % (len(data) + 1)
        if kind == "insert":
            data = data[:i] + piece + data[i:]
        elif kind == "delete":
            data = data[:i] + data[i + len(piece):]
        else:
            data = data[:i] + piece + data[i + len(piece):]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.pda"
        path.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["verify", str(path)])
    assert code in (0, 1, 2, 3)
    assert len(err.getvalue().encode()) < 1024


# -- fuzzed options: every extreme value ends in a documented exit -------

SIMULATE_OPTIONS = ("--packet-size", "--files", "--random-demands")


# --lambda values out of (0, 1), at its edges and inside it
LAMBDAS = ("0", "1", "-0.5", "1.5", "nan", "inf", "-inf", "1e308", "5e-324",
           "1e-300", "0.5", "0.999999")


@st.composite
def extreme_argv(draw):
    """simulate with up to three of its size options, construct of any
    family, or compare, at integers up to 10^12, half of them small, and
    --lambda in and out of (0, 1); one run in five has one value replaced
    by 5000 characters of text."""
    value = st.one_of(st.integers(-2, 100), st.integers(-2, 10**12)).map(str)
    kind = draw(st.sampled_from(("simulate", "mn", "vector", "compare")))
    if kind == "simulate":
        options = draw(st.lists(st.tuples(st.sampled_from(SIMULATE_OPTIONS),
                                          value), min_size=1, max_size=3))
        argv = ["simulate", FIXTURE, *(a for o in options for a in o)]
    elif kind == "mn":
        argv = ["construct", "--family", "mn", "--k", draw(value), "--t",
                draw(st.sampled_from(["1", "2", "3"]))]
    elif kind == "vector":
        # small values too, so that some arrays are built
        value = st.one_of(st.integers(-1, 6).map(str), value)
        family = draw(st.sampled_from(constructions.VECTOR_FAMILIES))
        argv = ["construct", "--family", family.value, "--q", draw(value),
                "--z", draw(value), "--m", draw(value)]
        if draw(st.booleans()):
            argv += ["--t", draw(value)]
    else:
        baseline = draw(st.sampled_from(["szg", "yctc"]))
        argv = ["compare", "--baseline", baseline, "--q", draw(value)]
        for option, values in (("--z", value), ("--t", value),
                               ("--lambda", st.sampled_from(LAMBDAS))):
            if draw(st.booleans()):
                argv += [option, draw(values)]
    if draw(st.integers(0, 4)) == 0:
        # the values follow the options: simulate's from the fourth
        # argument on, the others' from the fifth
        at = draw(st.sampled_from(range(3 + (kind != "simulate"),
                                        len(argv), 2)))
        argv[at] = draw(st.sampled_from([SEVENS, EXES, "-" + SEVENS]))
    return argv


def stderr_bound(argv):
    """Bytes the stderr of a run of ``argv`` stays under.  A vector family
    refused over the cell cap writes its cell count in full up to 4300
    digits, as README's resource limits say, so 4300 more bytes."""
    vector = argv[0] == "construct" and argv[2] != "mn"
    return 1024 + 4300 * vector


@settings(max_examples=200, deadline=None)
@given(extreme_argv())
def test_extreme_option_values_end_in_an_exit_code(argv):
    # the caps are lowered so that every admitted run is small: at the real
    # caps a run just under one fills a 1 GiB store or a 10^7-cell array,
    # or sweeps 5 * 10^6 z, and the over-cap refusals are pinned in full
    # above
    err = io.StringIO()
    start = time.perf_counter()
    with mock.patch.object(simulate, "BYTE_CAP", 1 << 20), \
            mock.patch.object(core, "DEMAND_WORK_CAP", 10**5), \
            mock.patch.object(constructions, "CELL_CAP", 10**5), \
            mock.patch.object(analysis, "CELL_CAP", 10**5), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an option's type
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().encode()) < stderr_bound(argv)
    assert time.perf_counter() - start < 5


# pda with the caps lowered as above, for a child process
LOWERED_CAPS = """
import sys
from unittest import mock
from pdakit import analysis, constructions, core, simulate
from pdakit.cli import main
with mock.patch.object(simulate, "BYTE_CAP", 1 << 20), \\
        mock.patch.object(core, "DEMAND_WORK_CAP", 10**5), \\
        mock.patch.object(constructions, "CELL_CAP", 10**5), \\
        mock.patch.object(analysis, "CELL_CAP", 10**5):
    sys.exit(main(sys.argv[1:]))
"""


@settings(max_examples=6, deadline=None)
@given(extreme_argv())
def test_extreme_option_values_end_in_an_exit_code_in_a_process(argv):
    # a few of the cases above, each in a child process under the
    # address-space limit, so a traceback, a crash or a run away is seen
    # as the shell sees it
    code, _, err, seconds = run_limited(*argv, timeout=30,
                                        program=("-c", LOWERED_CAPS))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert len(err.encode()) < stderr_bound(argv)
    assert seconds < 10


class TestDemandWorkCap:
    # mn(4, 2) has 12 non-star cells and 4 users: with the fixed cost of
    # 1000, 1016 per demand

    def test_cap_is_inclusive(self, monkeypatch, capsys):
        monkeypatch.setattr(core, "DEMAND_WORK_CAP", 3048)
        assert main(["simulate", FIXTURE, "--random-demands", "3"]) == 0
        assert capsys.readouterr().out.count("decode=ok") == 3
        code = main(["simulate", FIXTURE, "--random-demands", "4"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == ("too large: the random demands would work "
                                "through 4064 cells and users, above the "
                                "cap of 3048\n")

    def test_huge_count_exits_3_before_store_and_draws(self, monkeypatch,
                                                       capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("store made or demand drawn")
        monkeypatch.setattr(PacketStore, "synthetic", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        start = time.perf_counter()
        code = main(["simulate", FIXTURE, "--random-demands", "10" * 6])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 2
        assert (code, captured.out) == (3, "")
        assert captured.err == ("too large: the random demands would work "
                                "through 102626262626160 cells and users, "
                                "above the cap of 20001000\n")

    # the work counts from 2^63 / 1016 up would wrap in int64, and from
    # 2^64 not fit; with no store to make, a wrapped count fails at once
    # rather than running its demands
    @pytest.mark.parametrize("count", [2**63 - 1, 2**64])
    def test_count_past_int64_exits_3(self, monkeypatch, capsys, count):
        monkeypatch.setattr(PacketStore, "synthetic", None)
        code = main(["simulate", FIXTURE, "--random-demands", str(count)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == ("too large: the random demands would work "
                                f"through {count * 1016} cells and users, "
                                "above the cap of 20001000\n")

    def test_cap_admits_every_ci_run(self):
        # the --random-demands runs of ci/steps.sh
        runs = [
            (construct_special(3, 2, 2), 200),
            (construct_ext_general(5, 3, 4, 2), 20),
            (construct_mn(24, 4), 2),
        ]
        for arr, count in runs:
            work = count * (np.count_nonzero(arr.grid) + arr.k
                            + core.DEMAND_FIXED_WORK)
            assert work <= core.DEMAND_WORK_CAP
        # one demand on any array: at most CELL_CAP cells and CELL_CAP users
        assert (2 * core.CELL_CAP + core.DEMAND_FIXED_WORK
                <= core.DEMAND_WORK_CAP)

    def test_cell_free_array_pays_the_fixed_cost(self, tmp_path, capsys):
        # a 1x1 all-star array has no cells: each demand still counts 1001
        path = tmp_path / "star.pda"
        path.write_text("1 1 1 0\n*\n")
        assert main(["simulate", str(path), "--random-demands", "3"]) == 0
        assert capsys.readouterr().out.count("decode=ok") == 3
        code = main(["simulate", str(path), "--random-demands", "20000000"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == ("too large: the random demands would work "
                                "through 20020000000 cells and users, "
                                "above the cap of 20001000\n")

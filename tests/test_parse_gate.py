"""Gate on parse outcomes over a corpus of mutated fixture files.

Each case's parse result is hashed in order: the exception type, message,
line and token of a failure, or the grid bytes and header of a success.
So is the exit code of `pda verify` on the same bytes.  The digests were
recorded before the numpy text codec replaced the per-token loop, so any
change in what a file parses to, or in how an error is worded or placed,
shows here.  A property test then checks the parser against the naive
reference in `helpers.naive_parse` on random grids and random edits, and
another on files of several row blocks, edited in a block after the first.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import fixture_text, naive_parse
from pdakit import PdaArray, emit, textio
from pdakit.cli import main
from pdakit.core import SizeCapError
from pdakit.textio import PdaFormatError, parse_with_header

FIXTURE_NAMES = ("mn_k4_t2.pda", "special_q3_z2_m2.pda",
                 "general_q3_z2_m2_t1.pda", "ext_special_q3_z2_m2.pda",
                 "ext_general_q3_z2_m2_t1.pda")

# replacements for one body token; "" deletes the token
BODY_TOKENS = ("x", "**", "1*", "*1", "0", "00", "-3", "-0", "007",
               "12345678901", "00000000001", "2147483647", "2147483648",
               "9999999999", "1.5", "#", "1#", "a1", "")
HEADER_TOKENS = ("x", "0", "-1", "007", "*", "")
# separators that stand for one space between two tokens
SEPARATORS = ("\t", "  ", " \t ", "\x0b", "\x0c", "\x1f", "\r",
              " ", " ", " ")


def _lines(text):
    return text.split("\n")[:-1]


def _join(lines):
    return "\n".join(lines) + "\n"


def _with_token(lines, row, col, tok):
    toks = lines[row].split(" ")
    toks[col] = tok
    out = list(lines)
    out[row] = " ".join(t for t in toks if t)
    return out


def _mutations(text):
    """(name, text) cases derived from one well-formed file."""
    yield "as is", text
    lines = [line for line in _lines(text) if not line.startswith("#")]
    text = _join(lines)
    f, k = len(lines) - 1, len(lines[0].split())
    spots = {(1, 0), (1 + f // 2, k // 2), (f, k - 1)}
    for row, col in sorted(spots):
        for tok in BODY_TOKENS:
            yield (f"token {row},{col}={tok!r}",
                   _join(_with_token(lines, row, col, tok)))
    for col in range(4):
        # an 11-digit K or F is over the cell cap, whose error is not gated
        for tok in HEADER_TOKENS + (("12345678901",) if col > 1 else ()):
            yield (f"header {col}={tok!r}",
                   _join(_with_token(lines, 0, col, tok)))
    yield "header +token", _join([lines[0] + " 1"] + lines[1:])
    for row in sorted({1, 1 + f // 2, f}):
        yield f"short row {row}", _join(_with_token(lines, row, k - 1, ""))
        yield f"long row {row}", _join(
            lines[:row] + [lines[row] + " 1"] + lines[row + 1:])
        yield f"missing row {row}", _join(lines[:row] + lines[row + 1:])
        yield f"extra row {row}", _join(lines[:row + 1] + lines[row:])
        for extra in ("# note", "   # indented", "", " \t "):
            yield (f"line {extra!r} before {row}",
                   _join(lines[:row] + [extra] + lines[row:]))
        for sep in SEPARATORS:
            yield (f"separator {sep!r} in row {row}",
                   _join(lines[:row] + [lines[row].replace(" ", sep, 1)]
                         + lines[row + 1:]))
        yield (f"padded row {row}",
               _join(lines[:row] + ["\t " + lines[row] + " \t"]
                     + lines[row + 1:]))
    yield "comment first", "# heading\n\n" + text
    yield "comment last", text + "# end\n\n"
    yield "tabs", text.replace(" ", "\t")
    yield "crlf", text.replace("\n", "\r\n")
    yield "cr", text.replace("\n", "\r")
    yield "no trailing newline", text[:-1]
    yield "header only", lines[0] + "\n"
    yield "body only", _join(lines[1:])


def _big_text():
    """A 2500x40 file, four conversion blocks (819 rows each at
    `textio._BLOCK_CELLS` = 2^15, the last one 43), with 1- to 10-digit
    tokens.

    Symbols hardly repeat, so `pda verify` has few cell pairs to scan.
    """
    rows = []
    for r in range(2500):
        rows.append(" ".join(
            "*" if (r * 7 + c * 3) % 5 == 0
            else str((r * 40 + c + 1) * (21473 if c % 7 == 0 else 1))
            for c in range(40)))
    return "40 2500 500 2147300000\n" + _join(rows)


def _big_cases():
    text = _big_text()
    lines = _lines(text)
    yield "big clean", text
    yield "big bad last token", _join(_with_token(lines, 2500, 39, "x"))
    yield "big padded symbol", _join(
        _with_token(lines, 2000, 5, "00000000001"))
    yield "big comment", _join(lines[:1800] + ["# mid", ""] + lines[1800:])
    yield "big short row", _join(_with_token(lines, 2400, 0, ""))
    yield "big unit separator", _join(
        lines[:2200] + [lines[2200].replace(" ", "\x1f", 3)]
        + lines[2201:])
    yield "big tabs", text.replace(" ", "\t")
    yield "big two errors", _join(_with_token(
        _with_token(lines, 1900, 3, "0"), 100, 3, "2147483648"))


def corpus():
    cases = [("empty", ""), ("blank", "\n\n"), ("comments only", "# a\n#\n"),
             ("single cell", "1 1 0 1\n1\n")]
    for name in FIXTURE_NAMES:
        cases += [(f"{name}: {case}", text) for case, text in
                  _mutations(fixture_text(name))]
    return cases + list(_big_cases())


def outcome(text):
    try:
        arr, header = parse_with_header(text)
    except (PdaFormatError, SizeCapError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    grid = arr.grid
    return (hashlib.sha256(grid.tobytes()).hexdigest(), grid.shape,
            str(grid.dtype), tuple(header))


def test_parse_outcomes_unchanged():
    h = hashlib.sha256()
    cases = corpus()
    for name, text in cases:
        h.update(repr((name, outcome(text))).encode())
    assert (len(cases), h.hexdigest()) == (
        762,
        "61f2e9348f46ece3f60d5856953e32edef1636c3ba08d5a51d02d5e4c5b63393")


def test_verify_exit_codes_unchanged(capsys, tmp_path):
    path = tmp_path / "case.pda"
    codes = []
    for _, text in corpus():
        path.write_bytes(text.encode("utf-8"))
        codes.append(main(["verify", str(path)]))
        capsys.readouterr()
    digest = hashlib.sha256(repr(codes).encode()).hexdigest()
    assert (len(codes), digest) == (
        762,
        "15e68b4e9c92e262f6b19d5b0fa3ea81d38683b2918f7c46ba26bc0183ee5354")


# -- against the naive reference parser --------------------------------

def reference_outcome(text):
    try:
        arr, header = parse_with_header(text)
    except PdaFormatError as exc:
        return ("error", exc.line, exc.column)
    except SizeCapError:
        return ("cap",)
    return ("ok", tuple(header), arr.to_rows())


cells = st.one_of(st.just("*"), st.integers(1, 2**31 - 1))
grids = st.integers(1, 6).flatmap(
    lambda k: st.lists(st.lists(cells, min_size=k, max_size=k),
                       min_size=1, max_size=6))


@given(grids)
def test_random_grids_round_trip(rows):
    text = emit(PdaArray.from_rows(rows))
    assert reference_outcome(text) == naive_parse(text)
    assert naive_parse(text)[2] == rows


# "+", "_" and non-ASCII digits are not decimal tokens, though int() takes them
EDIT_CHARS = "0123456789* \t\n#x-+_\u0663"


@settings(max_examples=300)
@given(grids, st.lists(st.tuples(st.sampled_from(("insert", "delete",
                                                   "replace")),
                                 st.integers(0, 10**6),
                                 st.sampled_from(EDIT_CHARS)),
                       min_size=1, max_size=4))
def test_random_edits_match_reference(rows, edits):
    text = emit(PdaArray.from_rows(rows))
    for kind, pos, ch in edits:
        i = pos % (len(text) + 1)
        if kind == "insert":
            text = text[:i] + ch + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + ch + text[i + 1:]
    assert reference_outcome(text) == naive_parse(text)


# -- the byte path at its block edges ----------------------------------

BLOCK = textio._BLOCK_CELLS
# one fault for a body token; "" deletes the token, "1 1" adds one
FAULTS = ("x", "0", "00", "1*", "*1", "**", "-3", "1.5", "", "1 1",
          "12345678901")


@st.composite
def block_texts(draw, edit):
    """A file of two or three row blocks, wide (K above the block size,
    one row a block) or tall (several rows a block), with ``edit`` put in
    place of one token of a block after the first."""
    blocks = draw(st.integers(2, 3))
    if draw(st.booleans()):
        k = draw(st.integers(BLOCK + 1, BLOCK + 40))
        step, f = 1, blocks
    else:
        k = draw(st.integers(1, 3))
        step = BLOCK // k
        f = (blocks - 1) * step + draw(st.integers(1, 40))
    top = draw(st.sampled_from((2, 1000, 2**31 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.integers(0, top, size=(f, k), endpoint=True, dtype=np.int32)
    lines = _lines(emit(PdaArray(grid)))
    if edit == "fault":
        edit = draw(st.sampled_from(FAULTS))
    if edit is not None:
        row = 1 + draw(st.integers(step, f - 1))
        lines = _with_token(lines, row, draw(st.integers(0, k - 1)), edit)
    return _join(lines)


def _variants(text, draw):
    """The same file with CRLF line ends, or with a comment line, a blank
    line or leading tabs at a body line.  All but the tabs, which are
    separators like any other, send it to the line reader."""
    lines = _lines(text)
    at = draw(st.integers(1, len(lines) - 1))
    yield "crlf", text.replace("\n", "\r\n")
    yield "comment", _join(lines[:at] + ["# note"] + lines[at:])
    yield "blank", _join(lines[:at] + [""] + lines[at:])
    yield "tabs", _join(lines[:at] + ["\t\t" + lines[at]] + lines[at + 1:])


# 2^32 + 1 would read as 1 if its ten digits were summed in int32
@pytest.mark.parametrize("edit", [None, "2147483647", "2147483648",
                                  "4294967297", "fault"])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_byte_path_blocks_match_reference(edit, data):
    text = data.draw(block_texts(edit))
    with mock.patch.object(textio, "_read_lines",
                           wraps=textio._read_lines) as line_reader:
        outcome = reference_outcome(text)
    assert outcome == naive_parse(text)
    # a plain body, faulty or not, is read from its bytes until a block
    # fails; only then does the line reader name the fault
    assert line_reader.called == (outcome[0] == "error")
    if edit in (None, "2147483647"):
        assert outcome[0] == "ok"
    if edit in ("2147483648", "4294967297"):
        assert outcome[0] == "error"
    for name, variant in _variants(text, data.draw):
        with mock.patch.object(textio, "_read_lines",
                               wraps=textio._read_lines) as line_reader:
            got = reference_outcome(variant)
        assert line_reader.called == (name != "tabs" or got[0] == "error")
        if name == "crlf":
            assert got == outcome
        elif outcome[0] == "ok":
            assert got == outcome, name

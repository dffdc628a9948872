"""Plain-text interchange format for placement delivery arrays.

Line 1 holds the four counted parameters ``K F Z S``; the next F lines hold
K whitespace-separated tokens each, a token being ``*`` or a symbol.  Every
number is a run of ASCII decimal digits: leading zeros are allowed, a sign,
an underscore or a non-ASCII digit is not.  Lines starting with ``#`` are
comments and skipped, and a trailing newline is required.  Example::

    # smallest subset-family array
    2 2 1 1
    * 1
    1 *

A header declaring more than ``CELL_CAP`` cells (F*K) raises
``SizeCapError`` before the body is read.  A plain body, exactly F
newline-ended rows of ASCII tokens separated by spaces and tabs, is
converted straight from its bytes in numpy, a block of rows at a time.
The converter's byte passes find and check every token, but only the
symbol tokens get digit passes: a star, most of the cells of a
high-memory array, is just a zero of the block.  Any other body
(comments, blank lines, CR or CRLF line ends, other separators, non-ASCII
text) or any fault sends the whole file to the line reader: its content
lines go through the same converter a block at a time, a block it refuses
is read token by token, and only that reader raises ``PdaFormatError``,
naming the line and token of the first fault.  ``load`` reads a file as
ASCII, each other byte as U+FFFD, so a non-ASCII byte is skipped in a
comment and is a fault anywhere else.

The parser checks shape and token syntax only; cross-checking the declared
Z and S against the cell contents is the verifier's job, so an invalid file
can still be loaded and diagnosed.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from .core import CELL_CAP, STAR, SYMBOL_MAX, PdaArray, _check_cap


class PdaFormatError(ValueError):
    """Parse failure, carrying 1-based line and token positions when known."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", token {column}"
            where += ": "
        super().__init__(where + message)


# body rows are converted and emitted in blocks of about this many cells,
# which bounds the temporary arrays; converting a whole 1 MB body at once
# was 2-3 times slower, and 2^15 parsed the round-trip arrays about 3%
# faster than 2^16 and emitted them as fast
_BLOCK_CELLS = 1 << 15


class PdaHeader(NamedTuple):
    k: int
    f: int
    z: int
    s: int


def _quoted(tok: str) -> str:
    """``tok`` as a parse error quotes it: at most 32 characters."""
    cut = f"... ({len(tok)} characters)" if len(tok) > 32 else ""
    return repr(tok[:32]) + cut


def _too_long(tok: str) -> str:
    """Why int() refuses ``tok``, a run of digits: it is longer than
    sys.get_int_max_str_digits()."""
    return (f"{_quoted(tok)} has more than {sys.get_int_max_str_digits()} "
            "digits")


def _int_token(tok: str, lineno: int, col: int, what: str, minimum: int,
               maximum: int | None = None) -> int:
    digits = tok[1:] if tok.startswith("-") else tok
    # int() alone would also take "+", underscores and non-ASCII digits
    if not (digits.isascii() and digits.isdigit()):
        raise PdaFormatError(f"{what} {_quoted(tok)} is not an integer",
                             lineno, col)
    try:
        value = int(tok, 10)
    except ValueError:
        # too many digits: a header count is said to be too long, a symbol
        # is not an integer the grid holds
        why = (f"{_quoted(tok)} is not an integer" if maximum is not None
               else _too_long(tok))
        raise PdaFormatError(f"{what} {why}", lineno, col) from None
    if value < minimum:
        raise PdaFormatError(
            f"{what} {_quoted(tok)} must be at least {minimum}", lineno, col)
    if tok.startswith("-"):
        # "-0": numbers are bare digits
        raise PdaFormatError(f"{what} {_quoted(tok)} must not carry a sign",
                             lineno, col)
    if maximum is not None and value > maximum:
        raise PdaFormatError(
            f"{what} {_quoted(tok)} must be at most {maximum}", lineno, col)
    return value


def _content(lines: list[str], first_lineno: int) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line that is not blank or a
    comment."""
    return [(n, s) for n, line in enumerate(lines, first_lineno)
            if (s := line.strip()) and s[0] != "#"]


def _split_header(text: str) -> tuple[int, str, list[str], int]:
    """Find the first content line without splitting the rest of the text.

    Returns its line number and stripped text, the lines that followed it
    within its newline-terminated piece (a piece may hold several lines,
    since ``str.splitlines`` also breaks at carriage returns and other
    separators), and the offset where the unread text starts.
    """
    lineno = start = 0
    while start < len(text):
        end = text.index("\n", start) + 1
        lines = text[start:end].splitlines()
        content = _content(lines, lineno + 1)
        if content:
            n, stripped = content[0]
            return n, stripped, lines[n - lineno:], end
        lineno += len(lines)
        start = end
    raise PdaFormatError("empty file: header line `K F Z S` missing")


def parse_with_header(text: str) -> tuple[PdaArray, PdaHeader]:
    """Parse a PDA file, returning the grid and the declared header."""
    if text and not text.endswith("\n"):
        raise PdaFormatError("trailing newline required")
    lineno, header_line, rest, offset = _split_header(text)
    toks = header_line.split()
    if len(toks) != 4:
        raise PdaFormatError(
            f"header must be `K F Z S` (4 integers), got {len(toks)} token(s)",
            lineno)
    k = _int_token(toks[0], lineno, 1, "K", 1)
    f = _int_token(toks[1], lineno, 2, "F", 1)
    z = _int_token(toks[2], lineno, 3, "Z", 0)
    s = _int_token(toks[3], lineno, 4, "S", 0)
    header = PdaHeader(k, f, z, s)
    _check_cap(f * k, CELL_CAP, f"header declares {{}} cells (F={f}, K={k})")

    grid = np.empty((f, k), dtype=np.int32)
    if rest or not _convert_bytes(text, offset, k, grid):
        _read_lines(rest + text[offset:].splitlines(), lineno, k, grid)
    return PdaArray._owned(grid), header


def _blocks(f: int, k: int) -> range:
    """First rows of the row blocks of about ``_BLOCK_CELLS`` cells."""
    return range(0, f, max(1, _BLOCK_CELLS // k))


def _ascii(text: str) -> np.ndarray:
    """The bytes of ``text``, one per character: a character ASCII lacks
    becomes ``?``, which the converter refuses."""
    return np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)


def _convert_bytes(text: str, offset: int, k: int, out: np.ndarray) -> bool:
    """Convert the body, ``text[offset:]``, straight from its bytes, a
    block of rows at a time.

    Returns False, leaving ``out`` partly written, when the body is not
    F newline-ended rows or the converter refuses a block of them.
    """
    raw = _ascii(text)[offset:]
    ends = np.flatnonzero(raw == ord("\n")) + 1
    f = len(out)
    if len(ends) != f:
        return False
    blocks = _blocks(f, k)
    for lo in blocks:
        hi = min(lo + blocks.step, f)
        first = ends[lo - 1] if lo else 0
        if not _convert(raw[first:ends[hi - 1]], k, out[lo:hi]):
            return False
    return True


def _read_lines(lines: list[str], lineno: int, k: int,
                out: np.ndarray) -> None:
    """The line reader, for the lines after the header on line ``lineno``:
    their content lines are joined a block at a time for the converter,
    and a block it refuses is read token by token, which names the first
    fault."""
    body = _content(lines, lineno + 1)
    f = len(out)
    if len(body) != f:
        raise PdaFormatError(
            f"expected {f} data rows, found {len(body)}",
            body[-1][0] if body else lineno)
    blocks = _blocks(f, k)
    for lo in blocks:
        rows, block = body[lo:lo + blocks.step], out[lo:lo + blocks.step]
        data = _ascii("\n".join([line for _, line in rows]) + "\n")
        if not _convert(data, k, block):
            _convert_tokens(rows, k, block)


def _convert(raw: np.ndarray, k: int, out: np.ndarray) -> bool:
    """Convert the bytes of ``len(out)`` newline-ended rows into ``out``.

    Byte passes find and check the tokens; the digit passes, one per
    digit place of the widest symbol, run over the symbol tokens alone,
    whose values are then scattered into a block of stars.  Returns
    False, without writing ``out``, when any byte, row length, token or
    value is outside the plain case: tokens of ASCII digits or a lone
    ``*``, separated by spaces and tabs, K to a row.
    """
    # each byte's digit value: 0-9 for a digit, wrapped past 9 otherwise
    value = raw - np.uint8(ord("0"))
    digit = value < 10
    star = raw == ord("*")
    newline = raw == ord("\n")
    token = digit | star
    plain = token | newline
    plain |= raw == ord(" ")
    plain |= raw == ord("\t")
    if not plain.all():
        return False
    # a star is a token on its own: no token byte on either side of it
    if (star[1:] & token[:-1]).any() or (star[:-1] & token[1:]).any():
        return False
    # each token is a run of digit and star bytes; the rows end in "\n"
    edges = np.flatnonzero(np.diff(token, prepend=False))
    starts, ends = edges[0::2].copy(), edges[1::2].copy()
    n = len(out)
    if len(starts) != n * k:
        return False
    # every row holds k tokens: counting from 1, token ik starts before
    # newline i and token ik + 1 after it
    rows = np.flatnonzero(newline)
    if len(rows) != n or (starts[k - 1::k] > rows).any() or \
            (starts[k::k] < rows[:-1]).any():
        return False
    # the symbol tokens, the ones that start with a digit: only they get
    # digit passes, so a star costs byte passes alone
    symbol = np.flatnonzero(digit.take(starts))
    place, before = ends.take(symbol), starts.take(symbol)
    width = int((place - before).max(initial=0))
    if width > len(str(SYMBOL_MAX)):
        return False
    # a symbol's value, right-aligned: its d-th digit from the end is the
    # byte at its end - d, or once d passes its length the separator
    # before it, which reads as 0.  Nine digits fit in int32; ten need
    # int64 until the range check.  The multiply names its dtype: NumPy
    # 1.x would pick a uint8 loop by value
    value *= digit
    dtype = np.int32 if width < len(str(SYMBOL_MAX)) else np.int64
    values = np.zeros(len(symbol), dtype=dtype)
    terms = np.empty_like(values)
    before -= 1
    for d in range(width):
        place -= 1
        np.maximum(place, before, out=place)
        values += np.multiply(value.take(place), 10 ** d, out=terms,
                              dtype=dtype)
    if values.min(initial=1) < 1 or values.max(initial=0) > SYMBOL_MAX:
        return False
    # every other cell holds a star, which is 0: STAR.  ``out`` is rows
    # of a C-contiguous grid, so its flat reshape is a view
    out[...] = STAR
    out.reshape(-1)[symbol] = values
    return True


def _convert_tokens(rows: list[tuple[int, str]], k: int,
                    out: np.ndarray) -> None:
    """Convert body rows token by token, raising at the first bad one."""
    for j, (lno, line) in enumerate(rows):
        toks = line.split()
        if len(toks) != k:
            raise PdaFormatError(
                f"row has {len(toks)} tokens, expected K={k}", lno)
        for c, tok in enumerate(toks):
            if tok == "*":
                out[j, c] = STAR
            else:
                out[j, c] = _int_token(tok, lno, c + 1, "symbol", 1,
                                       SYMBOL_MAX)


def parse(text: str) -> PdaArray:
    return parse_with_header(text)[0]


def emit(arr: PdaArray) -> str:
    """Render an array in the interchange format; inverse of parse.

    The header is written from counted values.  If the array fails C1 the
    first column's star count is written for Z (the verifier will flag the
    mismatch anyway); an all-star array writes S=0.
    """
    grid = arr.grid
    z = int((grid[:, 0] == STAR).sum())
    s = int(grid.max())
    parts = [f"{arr.k} {arr.f} {z} {s}\n"]
    # a table over 0..S is no larger than the grid when S is below the
    # cell count, as in every PDA; otherwise each block gets a table of
    # the symbols it holds
    table = _symbol_table(np.arange(s + 1)) if s < grid.size else None
    blocks = _blocks(arr.f, arr.k)
    for lo in blocks:
        block = grid[lo:lo + blocks.step]
        if table is None:
            symbols, index = np.unique(block, return_inverse=True)
            cells = _symbol_table(symbols).take(index.reshape(block.shape),
                                                axis=0)
        else:
            cells = table.take(block, axis=0)
        cells[:, -1, -1] = ord("\n")
        parts.append(cells.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)


def _symbol_table(symbols: np.ndarray) -> np.ndarray:
    """One byte row per symbol: its text right-aligned after zero bytes of
    padding, then a space.  The star (0) renders as ``*``."""
    width = len(str(int(symbols[-1])))
    table = np.zeros((len(symbols), width + 1), dtype=np.uint8)
    table[:, width] = ord(" ")
    rest = symbols.astype(np.int64)
    for i in range(width):
        table[:, width - 1 - i] = np.where(
            rest > 0, ord("0") + rest % 10, 0)
        rest //= 10
    table[symbols == STAR, width - 1] = ord("*")
    return table


def load(path) -> PdaArray:
    return load_with_header(path)[0]


def load_with_header(path) -> tuple[PdaArray, PdaHeader]:
    """Parse a file's text, read as ASCII with each other byte replaced
    by U+FFFD: such a byte reaches the line reader, which skips it in a
    comment and names its line anywhere else."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return parse_with_header(fh.read())


def save(arr: PdaArray, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(emit(arr))

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

A header declaring more than ``DEFAULT_CELL_CAP`` cells (F*K) raises
``SizeCapError`` before the body is split.  The body is converted in numpy,
a block of rows at a time; a block holding anything but well-formed tokens
is read again token by token, and only that reader raises
``PdaFormatError``, naming the line and token of the first fault.

The parser checks shape and token syntax only; cross-checking the declared
Z and S against the cell contents is the verifier's job, so an invalid file
can still be loaded and diagnosed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .constructions import DEFAULT_CELL_CAP, SizeCapError
from .core import STAR, PdaArray


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


# symbols are stored as int32
SYMBOL_MAX = int(np.iinfo(np.int32).max)

# body rows are converted and emitted in blocks of about this many cells,
# which bounds the temporary arrays
_BLOCK_CELLS = 1 << 16

# byte classes of the body fast path; tokens are runs of the first two
_DIGIT, _STAR, _SPACE, _NEWLINE, _OTHER = range(5)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[ord("0"):ord("9") + 1] = _DIGIT
_BYTE_CLASS[ord("*")] = _STAR
_BYTE_CLASS[[ord(" "), ord("\t")]] = _SPACE
_BYTE_CLASS[ord("\n")] = _NEWLINE


class PdaHeader(NamedTuple):
    k: int
    f: int
    z: int
    s: int


def _int_token(tok: str, lineno: int, col: int, what: str, minimum: int,
               maximum: int | None = None) -> int:
    digits = tok[1:] if tok.startswith("-") else tok
    try:
        # int() alone would also take "+", underscores and non-ASCII digits
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(tok)
        # and it refuses more digits than sys.get_int_max_str_digits()
        value = int(tok, 10)
    except ValueError:
        raise PdaFormatError(f"{what} {tok!r} is not an integer", lineno, col)
    if value < minimum:
        raise PdaFormatError(
            f"{what} {tok!r} must be at least {minimum}", lineno, col)
    if maximum is not None and value > maximum:
        raise PdaFormatError(
            f"{what} {tok!r} must be at most {maximum}", lineno, col)
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
    if f * k > DEFAULT_CELL_CAP:
        raise SizeCapError(
            f"header declares {f * k} cells (F={f}, K={k}), above the cap "
            f"of {DEFAULT_CELL_CAP}")

    body = _content(rest + text[offset:].splitlines(), lineno + 1)
    if len(body) != f:
        raise PdaFormatError(
            f"expected {f} data rows, found {len(body)}",
            body[-1][0] if body else lineno)

    grid = np.empty((f, k), dtype=np.int32)
    step = max(1, _BLOCK_CELLS // k)
    for lo in range(0, f, step):
        rows, out = body[lo:lo + step], grid[lo:lo + step]
        if not _convert_rows(rows, k, out):
            _convert_tokens(rows, k, out)
    return PdaArray(grid), header


def _convert_rows(rows: list[tuple[int, str]], k: int,
                  out: np.ndarray) -> bool:
    """Convert body rows into ``out`` in numpy.

    Returns False, leaving ``out`` partly written, when any byte, row
    length, token or value is outside the plain case; the per-token loop
    then reads the rows again and names the first error, if there is one.
    """
    try:
        data = ("\n".join([line for _, line in rows]) + "\n").encode("ascii")
    except UnicodeEncodeError:
        return False
    raw = np.frombuffer(data, dtype=np.uint8)
    cls = _BYTE_CLASS.take(raw)
    if cls.max() == _OTHER:
        return False
    # each token is a run of digit and star bytes; the text ends in "\n"
    edges = np.flatnonzero(np.diff(cls <= _STAR, prepend=False))
    starts, ends = edges[0::2], edges[1::2]
    n = len(rows)
    if len(starts) != n * k:
        return False
    # tokens before each row's newline: k, 2k, ... when every row holds k
    newlines = np.flatnonzero(cls == _NEWLINE)
    if not np.array_equal(np.searchsorted(starts, newlines),
                          np.arange(k, (n + 1) * k, k)):
        return False
    length = ends - starts
    star = raw[starts] == ord("*")
    if (length[star] != 1).any() or \
            np.count_nonzero(cls == _STAR) != np.count_nonzero(star):
        return False
    width = int(length.max())
    if width > len(str(SYMBOL_MAX)):
        return False
    values = np.zeros(len(starts), dtype=np.int64)
    for d in range(width):
        digit = np.take(raw, starts + d, mode="clip").astype(np.int64)
        values = np.where(length > d, values * 10 + digit - ord("0"), values)
    values[star] = STAR
    if ((values < 1) & ~star).any() or values.max() > SYMBOL_MAX:
        return False
    out[...] = values.reshape(n, k)
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
    step = max(1, _BLOCK_CELLS // arr.k)
    for lo in range(0, arr.f, step):
        block = grid[lo:lo + step]
        if table is None:
            symbols, index = np.unique(block, return_inverse=True)
            cells = _symbol_table(symbols)[index.reshape(block.shape)]
        else:
            cells = table[block]
        cells[:, -1, -1] = ord("\n")
        parts.append(cells[cells != 0].tobytes().decode("ascii"))
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
    with open(path, "r", encoding="ascii") as fh:
        return parse(fh.read())


def load_with_header(path) -> tuple[PdaArray, PdaHeader]:
    with open(path, "r", encoding="ascii") as fh:
        return parse_with_header(fh.read())


def save(arr: PdaArray, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(emit(arr))

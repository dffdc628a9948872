"""Plain-text interchange format for placement delivery arrays.

Line 1 holds the four counted parameters ``K F Z S`` as space-separated
decimals; the next F lines hold K whitespace-separated tokens each, a token
being ``*`` or a decimal symbol.  Lines starting with ``#`` are comments and
skipped, and a trailing newline is required.  Example::

    # smallest subset-family array
    2 2 1 1
    * 1
    1 *

The parser checks shape and token syntax only; cross-checking the declared
Z and S against the cell contents is the verifier's job, so an invalid file
can still be loaded and diagnosed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

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


class PdaHeader(NamedTuple):
    k: int
    f: int
    z: int
    s: int


def _int_token(tok: str, lineno: int, col: int, what: str, minimum: int,
               maximum: int | None = None) -> int:
    try:
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


def parse_with_header(text: str) -> tuple[PdaArray, PdaHeader]:
    """Parse a PDA file, returning the grid and the declared header."""
    if text and not text.endswith("\n"):
        raise PdaFormatError("trailing newline required")
    content: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        content.append((lineno, stripped))
    if not content:
        raise PdaFormatError("empty file: header line `K F Z S` missing")

    lineno, header_line = content[0]
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

    body = content[1:]
    if len(body) != f:
        raise PdaFormatError(
            f"expected {f} data rows, found {len(body)}",
            body[-1][0] if body else lineno)

    grid = np.empty((f, k), dtype=np.int32)
    for j, (lno, line) in enumerate(body):
        toks = line.split()
        if len(toks) != k:
            raise PdaFormatError(
                f"row has {len(toks)} tokens, expected K={k}", lno)
        for c, tok in enumerate(toks):
            if tok == "*":
                grid[j, c] = STAR
            else:
                grid[j, c] = _int_token(tok, lno, c + 1, "symbol", 1,
                                        SYMBOL_MAX)
    return PdaArray(grid), header


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
    lines = [f"{arr.k} {arr.f} {z} {s}"]
    for row in grid:
        lines.append(" ".join("*" if v == STAR else str(v)
                              for v in row.tolist()))
    return "\n".join(lines) + "\n"


def load(path) -> PdaArray:
    with open(path, "r", encoding="ascii") as fh:
        return parse(fh.read())


def load_with_header(path) -> tuple[PdaArray, PdaHeader]:
    with open(path, "r", encoding="ascii") as fh:
        return parse_with_header(fh.read())


def save(arr: PdaArray, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(emit(arr))

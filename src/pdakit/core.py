"""Placement delivery arrays: data model, validity checker, canonical form.

A placement delivery array (PDA) is an F x K grid whose cells are either a
star or one of S positive integer symbols.  Columns index users, rows index
packet positions.  A star at (j, k) means user k caches packet j of every
file; a symbol s means packet j of user k's demand is served in broadcast
slot s.  The grid is a valid PDA when

  C1  every column holds the same number Z of stars,
  C2  the symbols present are exactly 1..S with no gaps,
  C3  two cells carrying the same symbol lie in distinct rows and distinct
      columns (C3a) and the two opposite corners of the rectangle they span
      are both stars (C3b).

C3 is what makes every slot simultaneously useful: each user served in slot
s has cached everything else that was XORed into it.  A valid grid yields a
caching scheme with memory ratio M/N = Z/F and delivery rate R = S/F; both
are kept as exact rationals throughout.

Internally stars are stored as 0 in a read-only numpy int32 grid, so 0 is
never a symbol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _kernels

STAR = 0
# verify_pda names at most this many missing symbols, then counts the rest
C2_LISTED = 1000


class PdaError(ValueError):
    """Malformed grid or parameter domain violation."""


@dataclass(frozen=True)
class PdaParams:
    """Counted parameters (K, F, Z, S) of a valid array."""

    k: int
    f: int
    z: int
    s: int

    def __post_init__(self):
        if self.k < 1 or self.f < 1:
            raise PdaError("K and F must be positive")
        if not 0 <= self.z <= self.f:
            raise PdaError("Z must lie in [0, F]")
        if self.s < 1:
            raise PdaError("S must be at least 1")

    @property
    def ratio(self) -> Fraction:
        """Memory ratio M/N = Z/F."""
        return Fraction(self.z, self.f)

    @property
    def rate(self) -> Fraction:
        """Delivery rate R = S/F."""
        return Fraction(self.s, self.f)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.k, self.f, self.z, self.s)


@dataclass(frozen=True)
class Violation:
    condition: str  # "C1" | "C2" | "C3a" | "C3b"
    locations: tuple[tuple[int, int], ...]  # 1-based (row, column) pairs
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


class PdaArray:
    """Immutable F x K grid over {star} | {1..S}; star stored as 0."""

    # _cells holds the array's _CellTable, built by _cell_table on first use
    __slots__ = ("grid", "_cells")

    def __init__(self, grid):
        g = np.asarray(grid)
        if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
            raise PdaError("grid must be a 2-D array with at least one row and column")
        # _by_symbol keys a cell's place in 32 bits
        if g.size >> 32:
            raise PdaError("grid holds 2^32 or more cells")
        if not np.issubdtype(g.dtype, np.integer):
            raise PdaError("grid cells must be integers (0 encodes the star)")
        if g.size and int(g.min()) < 0:
            raise PdaError("symbols must be positive; 0 encodes the star")
        if g.size and int(g.max()) > np.iinfo(np.int32).max:
            raise PdaError("symbol values exceed the int32 grid range")
        # always a private copy: the caller keeps no handle to write through
        g = np.array(g, dtype=np.int32, order="C")
        g.flags.writeable = False
        object.__setattr__(self, "grid", g)

    @classmethod
    def _owned(cls, grid: np.ndarray) -> "PdaArray":
        """Wrap a freshly built int32 C-contiguous grid of cells >= 0 that
        no one else holds: no copy and no value scan."""
        arr = cls.__new__(cls)
        grid.flags.writeable = False
        object.__setattr__(arr, "grid", grid)
        return arr

    def __setattr__(self, name, value):
        raise AttributeError("PdaArray is immutable")

    @property
    def f(self) -> int:
        return self.grid.shape[0]

    @property
    def k(self) -> int:
        return self.grid.shape[1]

    @classmethod
    def from_rows(cls, rows) -> "PdaArray":
        """Build from row lists whose cells are '*', None, or positive ints."""
        coded = [
            [STAR if c in ("*", None) else int(c) for c in row]
            for row in rows
        ]
        widths = {len(r) for r in coded}
        if len(widths) != 1:
            raise PdaError("rows have unequal lengths")
        return cls(np.array(coded, dtype=np.int32))

    def to_rows(self) -> list[list[object]]:
        return [
            ["*" if v == STAR else int(v) for v in row]
            for row in self.grid
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PdaArray):
            return NotImplemented
        return self.grid.shape == other.grid.shape and bool(
            np.array_equal(self.grid, other.grid)
        )

    def __hash__(self):
        return hash((self.grid.shape, self.grid.tobytes()))

    def __repr__(self) -> str:
        return f"PdaArray(F={self.f}, K={self.k})"


def _by_symbol(vals: np.ndarray, place: np.ndarray):
    """Sort cells by (symbol, place) for a distinct ``place`` per cell that
    the caller picks: the sorted places, the sorted symbols, and the index
    where each symbol's run opens in them.

    It is one sort of the int64 key ``symbol << 32 | place``: symbols are
    below 2^31, and PdaArray keeps places below 2^32.
    """
    key = vals.astype(np.int64)
    key <<= 32
    key |= place
    key.sort()
    place = key & 0xFFFFFFFF
    key >>= 32
    heads = np.ones(vals.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=heads[1:])
    return place, key, np.flatnonzero(heads)


class _CellTable:
    """The non-star cells of a grid, which depend on nothing else.

    ``rows`` and ``cols`` hold the cells sorted by (symbol, column, row),
    one ``_by_symbol`` sort on the place col * F + row; ``symbols`` holds
    the symbols present, ascending, and ``starts`` bounds each symbol's run
    of cells; ``slot_of`` maps a cell to the index of its symbol, and
    ``faults`` lists the pairs breaking C3.  The arrays are read-only; the
    last two are built on first use.
    """

    def __init__(self, grid: np.ndarray):
        self.grid = grid
        f, k = grid.shape
        cells = np.flatnonzero(grid)
        vals = grid.take(cells)
        place = cells % k * f
        place += cells // k
        del cells
        place, vals, heads = _by_symbol(vals, place)
        vals = vals[heads]
        cols, rows = np.divmod(place, f)
        cells = (rows, cols, vals, np.append(heads, place.size))
        for a in cells:
            a.flags.writeable = False
        self.rows, self.cols, self.symbols, self.starts = cells

    @cached_property
    def slot_of(self) -> np.ndarray:
        slot_of = np.repeat(np.arange(self.symbols.size), np.diff(self.starts))
        slot_of.flags.writeable = False
        return slot_of

    @cached_property
    def faults(self) -> tuple:
        """(symbol, (j1, k1), (j2, k2), uncached) per pair breaking C3.

        Pairs come in the table's order: by symbol, then by the (column,
        row) of the first cell, then of the second.  ``uncached`` lists the
        cross cells (j1, k2) and (j2, k1) that are not stars, in that order.
        A star at (j1, k2) is user k2 caching the packet of the term at
        (j1, k1), so one list serves the verifier and the decoder's cache
        audit.  All indices are 0-based.
        """
        grid = self.grid
        return tuple(
            (int(grid[r1, c1]), (r1, c1), (r2, c2),
             tuple(cell for cell in ((r1, c2), (r2, c1))
                   if grid[cell] != STAR))
            for r1, c1, r2, c2 in _kernels.c3_pair_scan(
                grid, self.rows, self.cols, self.starts))


def _cell_table(arr: PdaArray) -> _CellTable:
    """The array's cell table, built on first use and kept on the array."""
    if not hasattr(arr, "_cells"):
        object.__setattr__(arr, "_cells", _CellTable(arr.grid))
    return arr._cells


def _missing_symbols(present: np.ndarray, s_ref: int):
    """Yield 1..s_ref absent from the sorted ``present``, gap by gap."""
    bounds = np.concatenate(([0], present))
    for i in np.flatnonzero(np.diff(bounds) > 1).tolist():
        yield from range(int(bounds[i]) + 1, int(bounds[i + 1]))
    yield from range(int(bounds[-1]) + 1, s_ref + 1)


def verify_pda(arr: PdaArray, *, declared_z: int | None = None,
               declared_s: int | None = None) -> VerificationReport:
    """Check C1-C3 and report every violation, not just the first.

    ``declared_z`` / ``declared_s`` let a caller (e.g. the file verifier)
    check against header-declared values instead of counted ones; left to
    None, Z is the most common column star count and S the largest symbol
    present.  C2 names at most C2_LISTED missing symbols, then one
    "<n> more symbols never occur" holds the exact count of the rest, so a
    huge declared S stays cheap.  The C3 pass gathers, for each symbol of
    g cells, the g x g block of its cross cells: sum over symbols of g^2
    cells, in bounded chunks, never (F*K)^2.
    """
    grid = arr.grid
    violations: list[Violation] = []

    # C1: uniform star count per column
    star_counts = (grid == STAR).sum(axis=0)
    if declared_z is not None:
        z_ref = declared_z
    else:
        z_ref = int(np.bincount(star_counts).argmax())
    for k in np.flatnonzero(star_counts != z_ref):
        violations.append(Violation(
            "C1", (),
            f"column {k + 1} has {int(star_counts[k])} stars, expected Z={z_ref}",
        ))

    # C2: symbols present are exactly 1..S
    table = _cell_table(arr)
    uniq, starts = table.symbols, table.starts
    if uniq.size == 0:
        violations.append(Violation("C2", (), "array contains no integer symbols"))
    else:
        s_ref = declared_s if declared_s is not None else int(uniq[-1])
        # uniq[:n_in] lie in 1..S; S may exceed the int64 range
        n_in = (uniq.size if s_ref >= int(uniq[-1])
                else int(np.searchsorted(uniq, s_ref, side="right")))
        missing = _missing_symbols(uniq[:n_in], s_ref)
        for s in itertools.islice(missing, C2_LISTED):
            violations.append(Violation("C2", (), f"symbol {s} never occurs"))
        if s_ref - n_in > C2_LISTED:
            violations.append(Violation(
                "C2", (), f"{s_ref - n_in - C2_LISTED} more symbols never occur"))
        # symbols above S own the tail of the sorted cells; list them row-major
        lo = int(starts[n_in])
        r, c = table.rows[lo:], table.cols[lo:]
        r, c = np.divmod(_by_symbol(grid[r, c], r * arr.k + c)[0], arr.k)
        r, c = (r + 1).tolist(), (c + 1).tolist()
        ends = (starts[n_in:] - lo).tolist()
        for s, a, b in zip(uniq[n_in:].tolist(), ends, ends[1:]):
            violations.append(Violation("C2", tuple(zip(r[a:b], c[a:b])),
                                        f"symbol {s} exceeds S={s_ref}"))

    # C3: same-symbol pair scan
    c3 = []
    for s, (r1, c1), (r2, c2), uncached in table.faults:
        loc = ((r1 + 1, c1 + 1), (r2 + 1, c2 + 1))
        if r1 == r2 or c1 == c2:
            axis = "row" if r1 == r2 else "column"
            n = (r1 if r1 == r2 else c1) + 1
            c3.append(Violation("C3a", loc, f"symbol {s} repeats in {axis} {n}"))
        else:
            missing = ", ".join(f"({r + 1},{c + 1})" for r, c in uncached)
            c3.append(Violation(
                "C3b", loc, f"symbol {s}: cross cell(s) {missing} not a star"))
    c3.sort(key=lambda v: (v.condition, v.locations))
    violations.extend(c3)
    return VerificationReport(tuple(violations))


def params_of(arr: PdaArray) -> PdaParams:
    """Count (K, F, Z, S); rejects arrays whose columns disagree on Z."""
    grid = arr.grid
    star_counts = (grid == STAR).sum(axis=0)
    if star_counts.size and (star_counts != star_counts[0]).any():
        raise PdaError(
            "Z is undefined: column star counts are "
            + ", ".join(str(int(c)) for c in star_counts)
        )
    s = int(grid.max())
    if s == 0:
        raise PdaError("array contains no integer symbols, S must be at least 1")
    return PdaParams(k=arr.k, f=arr.f, z=int(star_counts[0]), s=s)


def canonicalize(arr: PdaArray) -> PdaArray:
    """Renumber symbols to 1..S by first appearance in row-major order.

    The star pattern is untouched and the map is a bijection, so validity and
    counted parameters are preserved; the operation is idempotent.  With
    the row-major cell index as the place, each symbol's ``_by_symbol`` run
    opens on its first appearance.
    """
    flat = arr.grid.ravel()
    cells = np.flatnonzero(flat)
    cells, heads = _by_symbol(flat.take(cells), cells)[::2]
    rank = np.empty(heads.size, dtype=np.int32)
    rank[np.argsort(cells[heads])] = np.arange(1, heads.size + 1,
                                               dtype=np.int32)
    out = np.zeros(flat.size, dtype=np.int32)
    out[cells] = np.repeat(rank, np.diff(np.append(heads, cells.size)))
    return PdaArray._owned(out.reshape(arr.grid.shape))


def equivalent(a: PdaArray, b: PdaArray) -> bool:
    """True when b is a under some bijective relabeling of its symbols:
    the canonical form is a complete invariant of relabeling."""
    return canonicalize(a) == canonicalize(b)

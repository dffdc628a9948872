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

The size limits live here, and each refuses through the one check
_check_cap, which raises SizeCapError: CELL_CAP bounds the cells of an array
that construct builds or a .pda header declares, and the users of an
enumerate target; C3_WORK_CAP bounds the cross cells the C3 pair scan
gathers; DEMAND_WORK_CAP bounds the demands of a random-demands run times
the non-star cells and users of its array plus DEMAND_FIXED_WORK, a
demand's fixed cost.  simulate keeps its BYTE_CAP on
packet bytes and passes it to the same check.  SYMBOL_MAX, the int32 bound
on a symbol, is a format limit: a larger symbol is malformed input.

One rule bounds every list a report makes, here and in the decoder's cache
audit: a list names at most LISTED entries and closes with one entry that
counts the rest exactly.  The C3 faults are one scan per array that the
verifier and the decoder both read: exact counts, and only the pairs that
the two reports can list.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _kernels

STAR = 0
# symbols are stored as int32
SYMBOL_MAX = int(np.iinfo(np.int32).max)
# each list of a verify or decode report names at most this many entries,
# then one closing entry counts the rest
LISTED = 1000
# the one cell limit (F*K) of construct and of the .pda parser
CELL_CAP = 10_000_000
# the most cross cells, sum of g^2 over symbols of g cells, the C3 pair
# scan gathers; the heaviest array construct writes needs about 1.98e8
C3_WORK_CAP = 1 << 30
# a demand's fixed cost, about 30 us, counted as cells and users, which cost
# 20 to 120 ns each at 64- to 256-byte packets (2-CPU x86-64 Xeon)
DEMAND_FIXED_WORK = 1000
# the most demands * (non-star cells + K + DEMAND_FIXED_WORK) one
# `pda simulate --random-demands` run works through: one demand on any array
# is admitted
DEMAND_WORK_CAP = 2 * CELL_CAP + DEMAND_FIXED_WORK

# Python refuses by default to write an int of more than 4300 digits as
# text, so counts from here up are written as a bound (as are counts past a
# lower limit the process has set).  Exact closed forms that large can take
# seconds, so construct refuses an array once a lower bound on its cells
# reaches this; it is over the cap either way.
_UNPRINTABLE = 10**4300


class PdaError(ValueError):
    """Malformed grid or parameter domain violation."""


class SizeCapError(RuntimeError):
    """A count of cells, bytes or work exceeds its cap."""


def _count_text(n: int) -> str:
    """n in decimal, or a power of ten below it when n is too long to
    print: from 10^4300 up, or past the process's int-to-str limit."""
    # 0 is no limit; Python before 3.10.7 has neither limit nor call
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if n < _UNPRINTABLE and not (limit and n >= 10**limit):
        return str(n)
    # n >= 2^(bits - 1) > 10^d, as 0.30102 < log10(2)
    return f"more than 10^{(n.bit_length() - 1) * 30102 // 100000}"


def _check_cap(count: int, cap: int, claim: str) -> None:
    """Refuse ``count`` above ``cap``: the message is ``claim`` with the
    count in place of its ``{}``, if it has one, then the cap."""
    if count > cap:
        raise SizeCapError(f"{claim.format(_count_text(count))}, "
                           f"above the cap of {cap}")


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
    # "C1" | "C2" | "C3a" | "C3b", or "C3" for the count closing the C3 list
    condition: str
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
        if g.size and int(g.max()) > SYMBOL_MAX:
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
    of cells; ``slot_of`` maps a cell to the index of its symbol,
    ``faults`` counts the pairs breaking C3 and keeps the listed ones, and
    ``degree_classes`` groups the slots by cell count.  The arrays are
    read-only; the last three are built on first use.
    """

    def __init__(self, grid: np.ndarray):
        self.grid = grid
        f, k = grid.shape
        # nonzero reads a one-byte mask about three times as fast as int32
        cells = np.flatnonzero(grid != STAR)
        vals = grid.take(cells)
        row, place = np.divmod(cells, k)
        del cells
        place *= f
        place += row
        del row
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
    def degree_classes(self) -> tuple:
        """The slots grouped by degree g, a slot's cell count: (cells,
        slots, classes).

        ``slots`` is one stable argsort of the slot degrees, and ``cells``
        lists the table's cells in that slot order; each class is
        (g, slots of the class, cells of the class), two slices into that
        order, ascending in g.  When every slot has one degree, ``cells``
        and ``slots`` are None: the table's own order is already sorted.
        """
        deg = np.diff(self.starts)
        slots = np.argsort(deg, kind="stable")
        deg = deg.take(slots)
        ends = np.concatenate(([0], np.cumsum(deg)))
        heads = np.flatnonzero(np.diff(deg, prepend=0)).tolist()
        bounds = zip(heads, heads[1:] + [deg.size])
        classes = tuple((int(deg[a]), slice(a, b),
                         slice(int(ends[a]), int(ends[b])))
                        for a, b in bounds)
        if len(classes) < 2:
            return None, None, classes
        # a slot's cells keep their order, from its table start onwards
        cells = np.repeat(self.starts.take(slots) - ends[:-1], deg)
        cells += np.arange(cells.size)
        for a in (cells, slots):
            a.flags.writeable = False
        return cells, slots, classes

    @cached_property
    def faults(self) -> _kernels.PairScan:
        """The pairs breaking C3, counted exactly, with a few of them kept.

        It holds the C3a and C3b counts, the decoder's cache-audit notes per
        user, and three lists of at most LISTED pairs each: the C3a and the
        C3b pairs with the smallest row-major keys, which the verifier
        lists, and the first pairs in the table's order (by symbol, then by
        the (column, row) of the first cell, then of the second), which the
        decoder lists; ``fault_rows`` reads them.  A star at the cross cell
        (r1, c2) is user c2 caching the packet of the term at (r1, c1), so
        one scan serves the verifier and the decoder's cache audit.  The
        scan gathers the g x g cross cells of each symbol of g cells; their
        sum is held to C3_WORK_CAP.  It gathers them from the transient
        one-byte mask ``grid != STAR`` (F * K bytes), not from the int32
        grid.  Its clean check, all a valid array gets, runs in tiles of at
        most _kernels.CLEAN_CELLS entries; the pair work of a chunk that
        fails it runs in tiles of at most _kernels.CHUNK_CELLS entries and
        keeps no bad pair beyond the listed ones, so its memory is one tile
        plus the lists however many pairs are bad.
        """
        g = np.diff(self.starts).astype(np.uint64)
        # exact: the sum is below (cells)^2 < 2^64
        _check_cap(int(g @ g), C3_WORK_CAP,
                   "the C3 pair scan would gather {} cross-cell entries")
        scan = _kernels.c3_pair_scan(self.grid != STAR, self.rows, self.cols,
                                     self.starts, LISTED)
        for a in (scan.notes, scan.first, *scan.by_place):
            a.flags.writeable = False
        return scan

    def fault_rows(self, cells) -> list:
        """The pairs of an (m, 4) array of (r1, c1, r2, c2) as Python tuples
        (symbol, r1, c1, r2, c2, u1, u2): u1 and u2 flag the cross cells
        (r1, c2) and (r2, c1) that are not stars.  All indices are 0-based.
        """
        r1, c1, r2, c2 = cells.T
        grid = self.grid
        return list(zip(grid[r1, c1].tolist(), r1.tolist(), c1.tolist(),
                        r2.tolist(), c2.tolist(),
                        (grid[r1, c2] != STAR).tolist(),
                        (grid[r2, c1] != STAR).tolist()))


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


def _close(violations: list, condition: str, total: int, what: str) -> None:
    """Close a list of ``total`` entries that names the first LISTED: one
    violation counts the rest, "<n> more " then ``what``."""
    if total > LISTED:
        violations.append(Violation(condition, (),
                                    f"{total - LISTED} more {what}"))


def verify_pda(arr: PdaArray, *, declared_z: int | None = None,
               declared_s: int | None = None) -> VerificationReport:
    """Check C1-C3 and report every violation, not just the first.

    ``declared_z`` / ``declared_s`` let a caller (e.g. the file verifier)
    check against header-declared values instead of counted ones; left to
    None, Z is the most common column star count and S the largest symbol
    present.  The report holds four lists: the C1 columns, the C2 missing
    symbols, the C2 symbols above S and the C3 pairs.  Each names at most
    LISTED entries, in that order (columns and symbols ascending, C3 pairs
    by condition, then locations), and closes with one violation that
    holds the exact count of the rest, so a huge declared S or a grid of
    many bad pairs stays cheap to report.  The C3 list and its closing
    counts come from the cell table's ``faults``: the exact C3a and C3b
    counts and, per condition, the LISTED pairs with the smallest packed
    row-major keys, kept while the pairs are scanned, so no list of every
    bad pair is ever made.  The C3 pass gathers, for each symbol of g
    cells, the g x g block of its cross cells: sum over symbols of g^2
    cells, in tiles of bounded size, never (F*K)^2.  Above C3_WORK_CAP such
    cells it raises SizeCapError before gathering any.
    """
    grid = arr.grid
    violations: list[Violation] = []

    # C1: uniform star count per column
    star_counts = (grid == STAR).sum(axis=0)
    if declared_z is not None:
        z_ref = declared_z
    else:
        z_ref = int(np.bincount(star_counts).argmax())
    bad = np.flatnonzero(star_counts != z_ref)
    for k in bad[:LISTED].tolist():
        violations.append(Violation(
            "C1", (),
            f"column {k + 1} has {int(star_counts[k])} stars, expected Z={z_ref}",
        ))
    _close(violations, "C1", bad.size, f"columns do not have Z={z_ref} stars")

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
        for s in itertools.islice(missing, LISTED):
            violations.append(Violation("C2", (), f"symbol {s} never occurs"))
        _close(violations, "C2", s_ref - n_in, "symbols never occur")
        # symbols above S own the tail of the sorted cells; list the cells
        # of the first LISTED of them row-major
        top = min(n_in + LISTED, uniq.size)
        lo = int(starts[n_in])
        r, c = table.rows[lo:starts[top]], table.cols[lo:starts[top]]
        r, c = np.divmod(_by_symbol(grid[r, c], r * arr.k + c)[0], arr.k)
        r, c = (r + 1).tolist(), (c + 1).tolist()
        ends = (starts[n_in:top + 1] - lo).tolist()
        for s, a, b in zip(uniq[n_in:top].tolist(), ends, ends[1:]):
            violations.append(Violation("C2", tuple(zip(r[a:b], c[a:b])),
                                        f"symbol {s} exceeds S={s_ref}"))
        _close(violations, "C2", uniq.size - n_in, f"symbols exceed S={s_ref}")

    # C3: the first LISTED of the cell table's kept pairs, by (condition,
    # locations)
    faults = table.faults
    shared, crossed = faults.by_place
    shared = shared[:LISTED]
    crossed = crossed[:LISTED - len(shared)]
    for s, j1, k1, j2, k2, u1, u2 in table.fault_rows(
            np.concatenate((shared, crossed))):
        loc = ((j1 + 1, k1 + 1), (j2 + 1, k2 + 1))
        if j1 == j2 or k1 == k2:
            axis = "row" if j1 == j2 else "column"
            n = (j1 if j1 == j2 else k1) + 1
            violations.append(Violation(
                "C3a", loc, f"symbol {s} repeats in {axis} {n}"))
        else:
            missing = ", ".join(f"({r + 1},{c + 1})" for (r, c), u in
                                (((j1, k2), u1), ((j2, k1), u2)) if u)
            violations.append(Violation(
                "C3b", loc, f"symbol {s}: cross cell(s) {missing} not a star"))
    _close(violations, "C3", len(faults),
           f"pairs break C3: {faults.c3a - len(shared)} C3a, "
           f"{faults.c3b - len(crossed)} C3b")
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
    cells = np.flatnonzero(flat != STAR)
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

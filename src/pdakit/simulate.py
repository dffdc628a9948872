"""End-to-end caching simulation driven by a placement delivery array.

Placement: user k caches packet row j of every file whenever cell (j, k) is
a star, so each of the K caches holds exactly N*Z packets (memory ratio
Z/F).  Delivery: given a demand vector d, the server walks the symbols in
ascending order and broadcasts, for each symbol s, the byte-wise XOR p_s of
W[d_k, j] over all cells (j, k) labeled s.  Decoding: the user at term
(k, j) of slot s XORs the broadcast with its cached copies of every other
term's packet; the validity conditions guarantee those copies are cached,
and what remains is W[d_k, j].

decode_and_verify checks that procedure on synthetic packet bytes: every
cancellation term is first looked up in the decoder's cache (a missing
packet is reported, never skipped).  Once all terms are cached, the packet
decoded at term c is p_s XOR (the other terms) = W_c XOR (p_s XOR all
terms), so every packet decoded from slot s equals its original exactly
when p_s equals the XOR of the slot's terms; one comparison per slot
decides it.  The star rows are the user's own copies, so a file is exact iff
all its decoded packets are, and the measured traffic is exactly S packets,
i.e. rate S/F.

The slots, their terms and the cache audit depend on the array alone: they
are the array's cell table (core), built once and kept on the array, so a
demand only gathers packets from the flat (N*F, packet_size) store and XORs
them.  The table groups the slots by degree g, their term count (every
constructed array has a single degree).  The n slots of a degree are cut
into contiguous slices, one per usable CPU (os.sched_getaffinity, else
os.cpu_count) when the degree gathers at least 1 MiB and each slice keeps
at least 64 KiB of packets per term, else one slice; the calling thread
and a pool of worker threads, made by the first split gather and made
anew in a forked child, work the slices at once.  A slice of m slots is worked
term-major: their store rows form a C-contiguous (g, m) index whose row a
holds term a of every slot, and each take reads the next ceil(g / m)
rows, XORs them and XORs the result into the m slots' running payloads;
the first take of a slice writes those payloads.  That is at most
min(g, m) takes per slice, none larger than m + g packets, and each taken
block is dropped before the next take, so a delivery holds at most one
block per worker, the calling thread counted, besides its payloads, never
all its gathered packets at once.  Each slice writes only its own
payloads, so they do not depend on the split.  A store's
N*F*packet_size bytes and a delivery's gathered (non-star
cells)*packet_size bytes are both held to BYTE_CAP, checked before
anything is allocated.  A TransmissionLog is columns over that table: the
slot symbols and term bounds and the terms themselves are the table's own
read-only arrays, and the payloads are one flat byte array; these six
columns are the log's only form, and its one constructor takes them.  Its
trace is streamed from them in chunks of TRACE_BLOCK slots, each chunk
made with one pass over the block's terms, one hex conversion of its
payloads and one join, so the whole trace text is never held.  A
synthetic PacketStore is its seed's raw 64-bit generator words retyped in
place as bytes, one owned allocation: the same bytes as
rng.integers(0, 256, dtype=uint8), which a test pins, drawn without the
per-byte work of integers.  Its data is read-only, so each file's SHA-256
is computed once per store and remembered.  A DecodeReport says which
users decode, and what each demanded, without a digest; the digests of
the demanded files are made when the report's users are first read, and
a decoded file is put together and hashed, at once, only when a packet
differs.

A delivery is fully determined by the array, the store and the demand, so
a log that deliver made for exactly the inputs decode_and_verify is given
needs no second gather and no comparison.  deliver records in the log the
cell table, the store object and the demand's int64 bytes it was made for,
and a TransmissionLog is immutable, so its columns are still the ones
deliver made.  decode_and_verify trusts a log whose origin is its own
table, the same store object and an equal demand, and does only the
demand's work; any other log, a copy or a tampered log included, is
gathered for and compared byte for byte.  The cache audit runs only when
the array has C3 faults, and the users that decode wrongly are looked up
only when some slot's payload differs.  A user's result is a
UserDecodeResult named tuple, made with the others on the first read of
the report's users.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from . import core
from .core import PdaArray, _cell_table, _check_cap

DEFAULT_PACKET_SIZE = 64
# the most bytes a packet store (N*F*packet_size) or a delivery's gathered
# packets (non-star cells * packet_size) may hold
BYTE_CAP = 1 << 30
# A degree class is split among the usable CPUs only when it gathers at
# least _SPLIT_BYTES (slots x degree x packet_size), and into no more
# slices than leave each slice _SLICE_TERM_BYTES of packets per term (its
# slots x packet_size, the least a take of it reads).  Below either,
# handing a slice to a worker, or passing the GIL between small takes,
# costs more than overlapping the reads saves (measured; see CHANGES.md).
_SPLIT_BYTES = 1 << 20
_SLICE_TERM_BYTES = 1 << 16


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@cache
def _workers() -> ThreadPoolExecutor:
    """The gather's worker threads, one per usable CPU but one, made on
    first use and kept.

    Two first calls at once may each make a pool, and the cache keeps one.
    Either is correct: each caller waits on its own futures, and the
    threads of a dropped pool end once their work is done.  A forked child
    has none of its parent's threads, so the cache is cleared in it.
    """
    return ThreadPoolExecutor(max(1, _usable_cpus() - 1), "pdakit-gather")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_workers.cache_clear)


@dataclass(frozen=True, eq=False)
class PacketStore:
    """Synthetic file library: N files split into F packets each.

    data has shape (N, F, packet_size), dtype uint8, reproducible from the
    recorded seed; packet j of file i (both 1-based) is ``data[i - 1,
    j - 1]``.  The store keeps it read-only, copying data that is writable
    or a view of other memory.  A store equals only itself, so it can key a
    dict.
    """

    n_files: int
    f: int
    packet_size: int
    seed: int
    data: np.ndarray
    # file index -> SHA-256 hex digest; data never changes, so neither do they
    _hashes: dict[int, str] = field(default_factory=dict, init=False,
                                    repr=False)

    def __post_init__(self):
        data = self.data
        shape = (self.n_files, self.f, self.packet_size)
        if not (isinstance(data, np.ndarray) and data.dtype == np.uint8
                and data.shape == shape):
            raise ValueError(f"data must be a uint8 array of shape {shape}")
        if data.flags.writeable or data.base is not None:
            data = data.copy()
            data.flags.writeable = False
            object.__setattr__(self, "data", data)

    @classmethod
    def synthetic(cls, n_files: int, f: int,
                  packet_size: int = DEFAULT_PACKET_SIZE,
                  seed: int = 0) -> "PacketStore":
        if n_files < 1 or f < 1 or packet_size < 1:
            raise ValueError("n_files, f and packet_size must be positive")
        shape = (n_files, f, packet_size)
        n = math.prod(shape)
        _check_cap(n, BYTE_CAP, "the packet store would hold {} bytes")
        # the bytes of rng.integers(0, 256, shape, uint8), which reads each
        # 64-bit generator word as 8 little-endian bytes, drawn at the
        # generator's raw speed; tests pin the equality.  Retyped and
        # shrunk in place, the words stay one owned array, which the store
        # keeps without a copy
        data = np.random.default_rng(seed).bit_generator.random_raw(
            -(-n // 8))
        data.dtype = np.uint8
        data.resize(shape, refcheck=False)
        data.flags.writeable = False
        return cls(n_files, f, packet_size, seed, data)

    def file_hash(self, i: int) -> str:
        """SHA-256 of file i (1-based), computed once per store."""
        digest = self._hashes.get(i)
        if digest is None:
            # the read-only C-contiguous file is hashed in place
            digest = hashlib.sha256(self.data[i - 1]).hexdigest()
            self._hashes[i] = digest
        return digest


# the arrays of a TransmissionLog, in the order its constructor takes them
_COLUMNS = ("symbols", "starts", "cols", "rows", "payload", "ends")
# the slots in one chunk of TransmissionLog.trace
TRACE_BLOCK = 4096


class TransmissionLog:
    """The slots of one delivery, in broadcast order, as read-only columns.

    Slot i sends ``symbols[i]``; its terms are the 0-based (user, row) pairs
    (``cols[a]``, ``rows[a]``) for ``starts[i] <= a < starts[i + 1]``, and
    its payload is ``payload[ends[i]:ends[i + 1]]``.  The constructor takes
    the six one-dimensional columns in that order, checks that their bounds
    fit (ValueError otherwise) and makes them read-only; a delivered log
    shares its terms with the array's cell table.  A log is immutable:
    assigning an attribute raises AttributeError.  ``_origin`` is the (cell
    table, store, demand bytes) that deliver made the log for, or None.
    """

    _origin = None

    def __init__(self, packet_size: int, symbols, starts, cols, rows,
                 payload, ends):
        columns = (symbols, starts, cols, rows, payload, ends)
        if any(a.ndim != 1 for a in columns):
            raise ValueError("log columns must be one-dimensional")
        if not len(starts) == len(ends) == len(symbols) + 1:
            raise ValueError("log bounds must hold one entry per slot and one "
                             "more")
        if not (starts[0] == ends[0] == 0 and starts[-1] == len(cols)
                == len(rows) and ends[-1] == len(payload)):
            raise ValueError("log bounds must run from 0 to the lengths of "
                             "their columns")
        for a in columns:
            a.flags.writeable = False
        self.__dict__.update(zip(_COLUMNS, columns), packet_size=packet_size)

    def __setattr__(self, name, value):
        raise AttributeError("TransmissionLog is immutable")

    @property
    def bytes_sent(self) -> int:
        return int(self.ends[-1])

    def trace(self):
        """The trace, one line per slot, as str chunks of TRACE_BLOCK slots:
        ``s=<symbol> terms=(k,j);(k,j) payload=<hex>`` with 1-based user k
        and row j."""
        block = TRACE_BLOCK
        for lo in range(0, self.symbols.size, block):
            s = self.starts[lo:lo + block + 1]
            e = self.ends[lo:lo + block + 1]
            terms = [f"({k},{j})" for k, j in
                     zip((self.cols[s[0]:s[-1]] + 1).tolist(),
                         (self.rows[s[0]:s[-1]] + 1).tolist())]
            hexed = self.payload[e[0]:e[-1]].tobytes().hex()
            # each slot's bounds within the block's terms and hex digits
            s, e = (s - s[0]).tolist(), (2 * (e - e[0])).tolist()
            yield "".join(
                f"s={symbol} terms={';'.join(terms[s[i]:s[i + 1]])} "
                f"payload={hexed[e[i]:e[i + 1]]}\n"
                for i, symbol in enumerate(
                    self.symbols[lo:lo + block].tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransmissionLog):
            return NotImplemented
        return self.packet_size == other.packet_size and all(
            np.array_equal(getattr(self, n), getattr(other, n))
            for n in _COLUMNS)


class UserDecodeResult(NamedTuple):
    """One user's decode: an immutable named tuple, so it also unpacks and
    equals the plain tuple of its fields."""

    user: int
    demanded: int
    ok: bool
    expected_hash: str
    decoded_hash: str | None
    problems: tuple[str, ...]


@dataclass(frozen=True, eq=False, repr=False)
class DecodeReport:
    """The outcome of decode_and_verify.

    ``demanded`` holds each user's file index and ``failures`` maps each
    failing 1-based user to its problems, so they say which users decode
    without a digest.  ``users`` holds one UserDecodeResult per user, with
    the SHA-256 digests of the demanded files: it is made from the store
    the first time it is read and kept, and the report then no longer
    holds the store.  The repr, equality and hash are those of the fields
    success, users, problems, bytes_sent and rate, in that order, so they
    read ``users``; ``demanded`` and ``failures`` take no part in them.
    """

    success: bool
    problems: tuple[str, ...]  # issues not attributable to one user
    bytes_sent: int
    rate: Fraction
    demanded: tuple[int, ...]
    failures: dict[int, tuple[str, ...]]
    # the users, or until their first read the partial that makes them
    _users: tuple[UserDecodeResult, ...] | partial

    @property
    def users(self) -> tuple[UserDecodeResult, ...]:
        users = self._users
        if not isinstance(users, tuple):
            users = users()
            object.__setattr__(self, "_users", users)
        return users

    def _key(self) -> tuple:
        return (self.success, self.users, self.problems, self.bytes_sent,
                self.rate)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(success={self.success!r}, "
                f"users={self.users!r}, problems={self.problems!r}, "
                f"bytes_sent={self.bytes_sent!r}, rate={self.rate!r})")


def _user_results(store: PacketStore, demanded: tuple[int, ...],
                  failures: dict[int, tuple[str, ...]],
                  decoded: dict[int, str]) -> tuple[UserDecodeResult, ...]:
    """The users of a DecodeReport: the store hashes each demanded file
    once; a failing user's decoded digest is in ``decoded``, or None."""
    hashes = {i: store.file_hash(i) for i in set(demanded)}
    return tuple(
        UserDecodeResult(u, i, True, hashes[i], hashes[i], ())
        if u not in failures else
        UserDecodeResult(u, i, False, hashes[i], decoded.get(u), failures[u])
        for u, i in enumerate(demanded, 1))


def _prepare(arr: PdaArray, store: PacketStore, demand):
    """The preamble of deliver and decode_and_verify.

    Checks the store and the demand, whose K entries must be integers in
    [1, N] (ValueError otherwise), and the gather against BYTE_CAP
    (SizeCapError), and returns the demand as int64 and the array's cell
    table.  It reads neither the packets nor a log.
    """
    if store.f != arr.f:
        raise ValueError(
            f"store holds {store.f} packets per file, array has F={arr.f} rows")
    try:
        d = list(map(operator.index, demand))
    except TypeError:
        raise ValueError("demand entries must be integers") from None
    if len(d) != arr.k:
        raise ValueError(f"demand must list {arr.k} file indices")
    # range-checked as Python ints, so the int64 cast cannot overflow
    if d and not 1 <= min(d) <= max(d) <= store.n_files:
        raise ValueError(f"demand entries must lie in [1, {store.n_files}]")
    table = _cell_table(arr)
    _check_cap(table.rows.size * store.packet_size, BYTE_CAP,
               "the gathered packets would hold {} bytes")
    return np.array(d, dtype=np.int64), table


def _gather(store: PacketStore, d: np.ndarray, table) -> np.ndarray:
    """The read-only (S, packet_size) uint8 XOR of each slot's packets of
    the cell table, for the int64 demand d that _prepare returned.

    Each degree class of n slots of degree g is cut into contiguous slices
    of its slots: one slice per usable CPU when the class gathers at least
    _SPLIT_BYTES (n g packet_size bytes), but no more than n packet_size /
    _SLICE_TERM_BYTES slices; otherwise one slice.  The calling
    thread works the first slice and the workers of _workers() the
    others, at once, so a gather of one-slice classes makes no pool;
    numpy's takes and XORs release the GIL, so the slices' reads
    from the store overlap.  Each slice writes only its own rows of the
    XORs, so the bytes do not depend on the split, and the call returns
    once every slice has ended, raising the first slice's exception, in
    slot order, if any raised.  A slice is worked term by term by
    _xor_slots, which holds one take block at a time, so a delivery holds
    at most one block per worker (the calling thread included) besides its
    XORs.  When the slots have several degrees, the XORs come out in class
    order and are put back in slot order.
    """
    cells, slots, classes = table.degree_classes
    # XOR whole machine words, the widest that divides a packet
    words = store.data.reshape(-1, store.packet_size).view(
        f"u{math.gcd(store.packet_size, 8)}")
    # every row is written by the first take of its slice
    totals = np.empty((table.symbols.size, words.shape[1]), words.dtype)
    # cell (j, k) reads row (d_k - 1) F + j of the (N F, packet_size) view
    base = (d - 1) * store.f
    for g, in_slots, in_cells in classes:
        n = in_slots.stop - in_slots.start
        parts = 1
        if n * g * store.packet_size >= _SPLIT_BYTES:
            parts = max(1, min(_usable_cpus(), n, n * store.packet_size
                               // _SLICE_TERM_BYTES))
        jobs = []
        for i in range(parts):
            # the slice's slots, and their cells at g per slot
            lo, hi = n * i // parts, n * (i + 1) // parts
            at = slice(in_cells.start + lo * g, in_cells.start + hi * g)
            jobs.append(partial(
                _xor_slots, words, base, table,
                at if cells is None else cells[at], g,
                totals[in_slots.start + lo:in_slots.start + hi]))
        _run(jobs)
    if slots is not None:
        unsorted = np.empty_like(totals)
        unsorted[slots] = totals
        totals = unsorted
    totals.flags.writeable = False
    return totals.view(np.uint8)


def _xor_slots(words: np.ndarray, base: np.ndarray, table, in_cells, g: int,
               acc: np.ndarray) -> None:
    """Write into acc, one row per slot, the XORs of n slots of degree g
    whose cells are in_cells of the table.

    The slots are worked term by term: their cells' store rows form a
    C-contiguous (g, n) index, built slot-major from the table's columns
    and transposed once, whose row a holds term a of each of the n slots.
    Each take reads b = ceil(g / n) of its rows, whose packets are XORed
    over the b terms; the first take writes acc, and each later one is
    XORed into it.  So the slots cost at most min(g, n) takes, no take
    holds more than n + g packets, and no block is still held when the
    next is taken: the (cells, packet_size) block of all gathered packets
    is never built, and acc needs no zeroing.
    """
    # indexing, not take: take copies a read-only index first, and the
    # table's columns are read-only
    terms = base[table.cols[in_cells]]
    terms += table.rows[in_cells]
    # row a holds term a of each of the n slots
    terms = np.ascontiguousarray(terms.reshape(-1, g).T)
    # b rows per take keep each take within n + g packets and the loop
    # within min(g, n) takes; no take is still bound when the next one is
    # made
    b = -(-g // terms.shape[1])
    np.bitwise_xor.reduce(words.take(terms[:b], axis=0), axis=0, out=acc)
    for a in range(b, g, b):
        acc ^= (np.bitwise_xor.reduce(words.take(terms[a:a + b], axis=0))
                if b > 1 else words.take(terms[a:a + 1], axis=0)[0])


def _run(jobs: list) -> None:
    """Call the jobs at once: the first on this thread, each other on a
    worker of _workers(), so a single job makes no pool.  Returns once
    every job has ended, and raises the first exception, in job order,
    that one raised."""
    futures = [_workers().submit(job) for job in jobs[1:]]
    try:
        jobs[0]()
    finally:
        # no worker may still write into the XORs once the call is over
        wait(futures)
    for future in futures:
        future.result()


def deliver(arr: PdaArray, store: PacketStore, demand) -> TransmissionLog:
    """Broadcast one XOR payload per symbol, ascending symbol order.

    The log records the cell table, the store object and the demand bytes
    it was made for, so decode_and_verify for those same inputs trusts it.
    """
    d, table = _prepare(arr, store, demand)
    size = store.packet_size
    log = TransmissionLog(
        size, table.symbols, table.starts, table.cols, table.rows,
        _gather(store, d, table).reshape(-1),
        np.arange(table.symbols.size + 1) * size)
    object.__setattr__(log, "_origin", (table, store, d.tobytes()))
    return log


def decode_and_verify(arr: PdaArray, store: PacketStore, demand,
                      log: TransmissionLog) -> DecodeReport:
    """Decode every user's file from cache plus log and compare bit-exactly.

    The log is read in order and must hold one slot per symbol, ascending,
    with this array's terms.  Cache membership of every cancellation term is
    audited with the C3 scan the verifier reads: a same-symbol pair whose
    cross cell is not a star is exactly a packet some decoder would need
    but does not hold.  The notes of the first core.LISTED bad pairs in
    the table's order, which the scan keeps, are named, and each user with
    notes from the rest gets one closing "<n> more cache problems": the
    scan's exact count of that user's notes, less the named ones.  No
    user's ``ok`` depends on that bound.  Once every term is
    cached, the packet decoded at term c of slot s is p_s XOR (the other
    terms) = W_c XOR rest_s, where rest_s = p_s XOR (all terms of s).  So
    every packet of slot s decodes exactly iff rest_s is zero, and a user
    fails iff one of its cells lies in a slot with non-zero rest.  Only a
    failing user's file is put together, for its hash: the stored file
    with each of the user's rows XORed by its slot's rest_s, and hashed
    at once, so the report keeps no rest_s.  The store hashes each
    demanded file once, when the report's users are first read; until
    then the report holds the store.

    A log that deliver made for this array's cell table, this store object
    and an equal demand holds exactly the array's slots and the p_s XORs,
    so it is neither gathered for nor compared.  Any other log gets a fresh
    gather of the p_s XORs and a comparison of every column.  The audit
    runs only when the array has C3 faults, and ``success`` is read from
    the same flags as the users' ``ok``.
    """
    d, table = _prepare(arr, store, demand)
    rows, cols, symbols = table.rows, table.cols, table.symbols
    demanded = tuple(d.tolist())

    # the notes of each user that has any
    user_problems: dict[int, list[str]] = {}
    global_problems: list[str] = []
    # the users whose slots' payloads differ from their XORs
    wrong: set[int] = set()

    # a log delivered for these very inputs is what a fresh gather and
    # delivery would make, and it is immutable
    if log._origin != (table, store, d.tobytes()):
        totals = _gather(store, d, table)
        # structural consistency of the log with this array
        if log.packet_size != store.packet_size:
            global_problems.append(f"log packet size {log.packet_size} != "
                                   f"store {store.packet_size}")
        if not np.array_equal(log.symbols, symbols):
            global_problems.append("log symbols do not match the array")
        else:
            bad = np.diff(log.ends) != store.packet_size
            # past the first slot whose term count differs the terms no
            # longer line up, but that slot is flagged first anyway
            n = min(log.cols.size, cols.size)
            moved = (log.cols[:n] != cols[:n]) | (log.rows[:n] != rows[:n])
            bad |= np.diff(log.starts) != np.diff(table.starts)
            bad[table.slot_of[:n][moved]] = True
            if bad.any():
                global_problems.append(f"log entry for symbol "
                                       f"{symbols[bad.argmax()]} "
                                       "does not match the array")
        if not global_problems:
            rest = log.payload.reshape(totals.shape) ^ totals
            differs = rest.any(axis=1)
            if differs.any():
                wrong = set(cols[differs[table.slot_of]].tolist())

    # cache-membership audit: every cancellation term must be held.  The
    # first LISTED bad pairs are named; each user gets one closing count of
    # its notes from the rest
    faults = table.faults
    if len(faults):
        # the notes past the listed pairs, per user
        more = faults.notes.copy()
        for s, j1, k1, j2, k2, u1, u2 in table.fault_rows(
                faults.first[:core.LISTED]):
            if k1 == k2:
                more[k1] -= 1
                user_problems.setdefault(k1, []).append(
                    f"symbol {s} occurs twice in column {k1 + 1} "
                    f"(rows {j1 + 1}, {j2 + 1}): own packets collide")
                continue
            # user c lacks the packet of the pair's other term in row r
            for (r, c), u in (((j1, k2), u1), ((j2, k1), u2)):
                if not u:
                    continue
                if j1 == j2:
                    why = (f"shares row {r + 1} with user {c + 1}'s own "
                           "term: not cached")
                else:
                    why = (f"is not cached: cell ({r + 1},{c + 1}) is not "
                           "a star")
                more[c] -= 1
                user_problems.setdefault(c, []).append(
                    f"packet (file {demanded[k1 if c == k2 else k2]}, "
                    f"row {r + 1}) needed for symbol {s} {why}")
        for u in np.flatnonzero(more).tolist():
            user_problems.setdefault(u, []).append(
                f"{more[u]} more cache problems")

    decodable = not global_problems
    success = decodable and not user_problems and not wrong
    # each failing 1-based user's problems, and the digest of what each
    # wrongly decoding user got
    failures: dict[int, tuple[str, ...]] = {}
    decoded: dict[int, str] = {}
    if not success:
        for u, i in enumerate(demanded):
            problems = user_problems.get(u)
            if problems or not decodable:
                failures[u + 1] = tuple(problems or ())
            elif u in wrong:
                mine = cols == u
                got = store.data[i - 1].copy()
                got[rows[mine]] ^= rest[table.slot_of[mine]]
                decoded[u + 1] = hashlib.sha256(got).hexdigest()
                failures[u + 1] = (f"decoded file differs from file {i}",)

    return DecodeReport(
        success=success,
        problems=tuple(global_problems),
        bytes_sent=log.bytes_sent,
        rate=Fraction(log.symbols.size, arr.f),
        demanded=demanded,
        failures=failures,
        _users=partial(_user_results, store, demanded, failures, decoded),
    )


def run_simulation(arr: PdaArray, store: PacketStore, demand) -> DecodeReport:
    """deliver + decode_and_verify in one call."""
    log = deliver(arr, store, demand)
    return decode_and_verify(arr, store, demand, log)

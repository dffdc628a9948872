"""End-to-end caching simulation driven by a placement delivery array.

Placement: user k caches packet row j of every file whenever cell (j, k) is
a star, so each of the K caches holds exactly N*Z packets (memory ratio
Z/F).  Delivery: given a demand vector d, the server walks the symbols in
ascending order and broadcasts, for each symbol s, the byte-wise XOR of
W[d_k, j] over all cells (j, k) labeled s.  Decoding: the user at term
(k, j) of slot s XORs the broadcast with its cached copies of every other
term's packet; the validity conditions guarantee those copies are cached,
and what remains is W[d_k, j].

decode_and_verify replays that procedure literally on synthetic packet
bytes: every cancellation term is first looked up in the decoder's cache
(a missing packet is reported, never skipped), every decoded packet is
compared byte-for-byte with its original (the star rows are the user's own
copies, so a file is exact iff all its decoded packets are), and the
measured traffic is exactly S packets, i.e. rate S/F.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import STAR, PdaArray, _c3_faults, _nonzero_sorted

DEFAULT_PACKET_SIZE = 64


@dataclass(frozen=True)
class PacketStore:
    """Synthetic file library: N files split into F packets each.

    data has shape (N, F, packet_size), dtype uint8, reproducible from the
    recorded seed.
    """

    n_files: int
    f: int
    packet_size: int
    seed: int
    data: np.ndarray

    @classmethod
    def synthetic(cls, n_files: int, f: int,
                  packet_size: int = DEFAULT_PACKET_SIZE,
                  seed: int = 0) -> "PacketStore":
        if n_files < 1 or f < 1 or packet_size < 1:
            raise ValueError("n_files, f and packet_size must be positive")
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(n_files, f, packet_size),
                            dtype=np.uint8)
        data.flags.writeable = False
        return cls(n_files, f, packet_size, seed, data)

    def packet(self, i: int, j: int) -> np.ndarray:
        """Packet j of file i, both 1-based."""
        return self.data[i - 1, j - 1]

    def file_hash(self, i: int) -> str:
        return hashlib.sha256(self.data[i - 1].tobytes()).hexdigest()


@dataclass(frozen=True)
class CacheState:
    """Per-user cache contents fixed by the star pattern."""

    star_rows: tuple[np.ndarray, ...]  # 0-based row indices per user
    n_files: int
    packet_size: int

    def packets_cached(self, user: int) -> int:
        """Cache occupancy of a user (1-based) in packets; equals N*Z."""
        return self.n_files * int(self.star_rows[user - 1].size)

    def cache_bytes(self, user: int) -> int:
        return self.packets_cached(user) * self.packet_size

    def holds(self, user: int, i: int, j: int) -> bool:
        """Whether user (1-based) caches packet j of file i."""
        return 1 <= i <= self.n_files and (j - 1) in self.star_rows[user - 1]


@dataclass(frozen=True)
class Transmission:
    symbol: int
    terms: tuple[tuple[int, int], ...]  # 1-based (user k, row j), ascending k
    payload: bytes

    def trace_line(self) -> str:
        terms = ";".join(f"({k},{j})" for k, j in self.terms)
        return f"s={self.symbol} terms={terms} payload={self.payload.hex()}"


@dataclass(frozen=True)
class TransmissionLog:
    transmissions: tuple[Transmission, ...]
    packet_size: int

    @property
    def bytes_sent(self) -> int:
        return sum(len(t.payload) for t in self.transmissions)

    def trace_lines(self) -> list[str]:
        return [t.trace_line() for t in self.transmissions]


@dataclass(frozen=True)
class UserDecodeResult:
    user: int
    demanded: int
    ok: bool
    expected_hash: str
    decoded_hash: str | None
    problems: tuple[str, ...]


@dataclass(frozen=True)
class DecodeReport:
    success: bool
    users: tuple[UserDecodeResult, ...]
    problems: tuple[str, ...]  # issues not attributable to one user
    bytes_sent: int
    rate: Fraction


def _check_store(arr: PdaArray, store: PacketStore) -> None:
    if store.f != arr.f:
        raise ValueError(
            f"store holds {store.f} packets per file, array has F={arr.f} rows")


def _check_demand(arr: PdaArray, store: PacketStore, demand) -> np.ndarray:
    d = np.asarray(list(demand), dtype=np.int64)
    if d.shape != (arr.k,):
        raise ValueError(f"demand must list {arr.k} file indices")
    if d.size and (d.min() < 1 or d.max() > store.n_files):
        raise ValueError(f"demand entries must lie in [1, {store.n_files}]")
    return d


def place(arr: PdaArray, store: PacketStore) -> CacheState:
    """Fill each user's cache from the star rows of its column."""
    _check_store(arr, store)
    star_rows = tuple(
        np.flatnonzero(arr.grid[:, k] == STAR) for k in range(arr.k)
    )
    return CacheState(star_rows, store.n_files, store.packet_size)


def _slots(arr: PdaArray, store: PacketStore, d: np.ndarray):
    """Non-star cells sorted by (symbol, column, row), each cell's demanded
    packet, the slot symbols and each slot's 1-based (user, row) terms."""
    rows, cols, symbols, starts = _nonzero_sorted(arr.grid)
    gathered = store.data[d[cols] - 1, rows]
    terms = list(zip((cols + 1).tolist(), (rows + 1).tolist()))
    bounds = starts.tolist()
    slot_terms = [tuple(terms[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return rows, cols, starts, gathered, symbols.tolist(), slot_terms


def deliver(arr: PdaArray, store: PacketStore, demand) -> TransmissionLog:
    """Broadcast one XOR payload per symbol, ascending symbol order."""
    _check_store(arr, store)
    d = _check_demand(arr, store, demand)
    _, _, starts, gathered, symbols, slot_terms = _slots(arr, store, d)
    if not symbols:
        return TransmissionLog((), store.packet_size)
    payloads = np.bitwise_xor.reduceat(gathered, starts[:-1], axis=0)
    return TransmissionLog(tuple(
        Transmission(s, terms, payload.tobytes())
        for s, terms, payload in zip(symbols, slot_terms, payloads)
    ), store.packet_size)


def decode_and_verify(arr: PdaArray, store: PacketStore, demand,
                      log: TransmissionLog) -> DecodeReport:
    """Decode every user's file from cache plus log and compare bit-exactly.

    The log is read in order and must hold one slot per symbol, ascending,
    with this array's terms.  Cache membership of every cancellation term is
    audited with the C3 classifier the verifier uses: a same-symbol pair
    whose cross cell is not a star is exactly a packet some decoder would
    need but does not hold.  Only when all terms of a slot are cached is the
    XOR identity applied, and each decoded packet is compared with its
    original.
    """
    _check_store(arr, store)
    d = _check_demand(arr, store, demand)
    rows, cols, starts, gathered, symbols, slot_terms = _slots(arr, store, d)

    user_problems: dict[int, list[str]] = {u: [] for u in range(arr.k)}
    global_problems: list[str] = []

    # structural consistency of the log with this array, slot by slot
    sent = log.transmissions
    if log.packet_size != store.packet_size:
        global_problems.append(
            f"log packet size {log.packet_size} != store {store.packet_size}")
    if [t.symbol for t in sent] != symbols:
        global_problems.append("log symbols do not match the array")
    else:
        for t, expect in zip(sent, slot_terms):
            if t.terms != expect or len(t.payload) != store.packet_size:
                global_problems.append(f"log entry for symbol {t.symbol} "
                                       "does not match the array")
                break

    # cache-membership audit: every cancellation term must be held
    for s, (r1, c1), (r2, c2), uncached in _c3_faults(arr.grid, rows, cols,
                                                      starts):
        if c1 == c2:
            user_problems[c1].append(
                f"symbol {s} occurs twice in column {c1 + 1} "
                f"(rows {r1 + 1}, {r2 + 1}): own packets collide")
            continue
        # user c lacks the packet of the pair's other term in row r
        for r, c in uncached:
            if r1 == r2:
                why = (f"shares row {r + 1} with user {c + 1}'s own term: "
                       "not cached")
            else:
                why = f"is not cached: cell ({r + 1},{c + 1}) is not a star"
            user_problems[c].append(
                f"packet (file {d[c1 if c == c2 else c2]}, row {r + 1}) "
                f"needed for symbol {s} {why}")

    # byte-level replay: payload XOR (all cached other terms) per cell; the
    # star rows are the user's own copies, so only decoded packets can differ
    decodable = not global_problems
    wrong: set[int] = set()
    if decodable and symbols:
        payloads = np.frombuffer(
            b"".join(t.payload for t in sent), dtype=np.uint8,
        ).reshape(len(sent), store.packet_size)
        # a slot's payload XOR all of its terms; each cell XORs its own back
        rest = payloads ^ np.bitwise_xor.reduceat(gathered, starts[:-1], axis=0)
        decoded = np.repeat(rest, np.diff(starts), axis=0)
        decoded ^= gathered
        wrong = set(cols[(decoded != gathered).any(axis=1)].tolist())

    users = []
    for u in range(arr.k):
        i = int(d[u])
        problems = tuple(user_problems[u])
        expected = store.file_hash(i)
        ok = decodable and not problems and u not in wrong
        decoded_hash = expected if ok else None
        if decodable and not problems and not ok:
            # only a failing user's file is put together, for its hash
            mine = cols == u
            got = store.data[i - 1].copy()
            got[rows[mine]] = decoded[mine]
            decoded_hash = hashlib.sha256(got.tobytes()).hexdigest()
            problems = (f"decoded file differs from file {i}",)
        users.append(UserDecodeResult(u + 1, i, ok, expected, decoded_hash,
                                      problems))

    return DecodeReport(
        success=all(r.ok for r in users) and not global_problems,
        users=tuple(users),
        problems=tuple(global_problems),
        bytes_sent=log.bytes_sent,
        rate=Fraction(len(sent), arr.f),
    )


def run_simulation(arr: PdaArray, store: PacketStore, demand) -> DecodeReport:
    """place + deliver + decode_and_verify in one call."""
    log = deliver(arr, store, demand)
    return decode_and_verify(arr, store, demand, log)

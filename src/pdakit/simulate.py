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
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import PdaArray, _c3_faults, _nonzero_sorted

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


def _slots(arr: PdaArray, store: PacketStore, d: np.ndarray):
    """Non-star cells sorted by (symbol, column, row), each cell's demanded
    packet, each slot's XOR of those packets, the slot symbols and each
    slot's 1-based (user, row) terms."""
    rows, cols, symbols, starts = _nonzero_sorted(arr.grid)
    gathered = store.data[d[cols] - 1, rows]
    # XOR whole machine words; the widest that divides a packet
    words = gathered.view(f"u{math.gcd(store.packet_size, 8)}")
    totals = np.bitwise_xor.reduceat(words, starts[:-1], axis=0).view(np.uint8)
    terms = list(zip((cols + 1).tolist(), (rows + 1).tolist()))
    bounds = starts.tolist()
    slot_terms = [tuple(terms[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return rows, cols, starts, gathered, totals, symbols.tolist(), slot_terms


def deliver(arr: PdaArray, store: PacketStore, demand) -> TransmissionLog:
    """Broadcast one XOR payload per symbol, ascending symbol order."""
    _check_store(arr, store)
    d = _check_demand(arr, store, demand)
    *_, totals, symbols, slot_terms = _slots(arr, store, d)
    return TransmissionLog(tuple(
        Transmission(s, terms, payload.tobytes())
        for s, terms, payload in zip(symbols, slot_terms, totals)
    ), store.packet_size)


def decode_and_verify(arr: PdaArray, store: PacketStore, demand,
                      log: TransmissionLog) -> DecodeReport:
    """Decode every user's file from cache plus log and compare bit-exactly.

    The log is read in order and must hold one slot per symbol, ascending,
    with this array's terms.  Cache membership of every cancellation term is
    audited with the C3 classifier the verifier uses: a same-symbol pair
    whose cross cell is not a star is exactly a packet some decoder would
    need but does not hold.  Once every term is cached, the packet decoded
    at term c of slot s is p_s XOR (the other terms) = W_c XOR rest_s, where
    rest_s = p_s XOR (all terms of s).  So every packet of slot s decodes
    exactly iff rest_s is zero, and a user fails iff one of its cells lies
    in a slot with non-zero rest.  Only a failing user's file is put
    together, for its hash; each distinct demanded file is hashed once.
    """
    _check_store(arr, store)
    d = _check_demand(arr, store, demand)
    rows, cols, starts, gathered, totals, symbols, slot_terms = _slots(
        arr, store, d)

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

    decodable = not global_problems
    wrong: set[int] = set()
    if decodable:
        payloads = np.frombuffer(
            b"".join(t.payload for t in sent), dtype=np.uint8,
        ).reshape(len(sent), store.packet_size)
        rest = payloads ^ totals
        slot_of = np.repeat(np.arange(len(sent)), np.diff(starts))
        wrong = set(cols[rest.any(axis=1)[slot_of]].tolist())

    hashes = {i: store.file_hash(i) for i in set(d.tolist())}
    users = []
    for u in range(arr.k):
        i = int(d[u])
        problems = tuple(user_problems[u])
        expected = hashes[i]
        ok = decodable and not problems and u not in wrong
        decoded_hash = expected if ok else None
        if decodable and not problems and not ok:
            mine = cols == u
            got = store.data[i - 1].copy()
            got[rows[mine]] = gathered[mine] ^ rest[slot_of[mine]]
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
    """deliver + decode_and_verify in one call."""
    log = deliver(arr, store, demand)
    return decode_and_verify(arr, store, demand, log)

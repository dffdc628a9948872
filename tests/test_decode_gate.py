"""Gate on decode_and_verify: every report over a seeded corpus of logs.

The corpus holds random small grids (mostly invalid arrays), each decoded
against its honest log and against logs altered in one way: a flipped
payload bit, reversed slot order, the last slot dropped, one slot's terms
reordered, a wrong log packet size and one short payload.  The reference
sweep arrays add honest logs and logs whose last payload is zeroed.  The
digest was recorded before the decoder stopped reassembling files, so any
change of report shows here.  Logs that repeat a slot are left out on
purpose: they are tested in test_simulate.py.
"""

import hashlib

import numpy as np

from helpers import flipped, log_of, slots
from pdakit import (PacketStore, PdaArray, TransmissionLog, construct,
                    decode_and_verify, deliver, standard_sweep)


def altered_logs(log: TransmissionLog, longer: TransmissionLog):
    sent = slots(log)
    size = log.packet_size
    yield "honest", log
    if sent:
        mid = len(sent) // 2
        yield "flip", flipped(log, mid)
        symbol, terms, payload = sent[mid]
        short = (symbol, terms, payload[:-1])
        yield "short", log_of(sent[:mid] + [short] + sent[mid + 1:], size)
    yield "reversed", log_of(sent[::-1], size)
    yield "dropped", log_of(sent[:-1], size)
    for i, (symbol, terms, payload) in enumerate(sent):
        if len(terms) > 1:
            swapped = (symbol, terms[::-1], payload)
            yield "terms", log_of(sent[:i] + [swapped] + sent[i + 1:], size)
            break
    yield "size", longer


def random_grid_lines(count: int = 1200, seed: int = 2024):
    rng = np.random.default_rng(seed)
    for n in range(count):
        f, k = (int(x) for x in rng.integers(1, 6, size=2))
        s = int(rng.integers(1, 5))
        grid = rng.integers(0, s + 1, size=(f, k))
        arr = PdaArray(grid)
        n_files = int(rng.integers(1, 4))
        size = int(rng.choice([1, 3, 8]))
        store = PacketStore.synthetic(n_files, f, size, seed=n)
        demand = [int(x) for x in rng.integers(1, n_files + 1, size=k)]
        log = deliver(arr, store, demand)
        longer = deliver(arr, PacketStore.synthetic(n_files, f, size + 1,
                                                    seed=n), demand)
        for name, altered in altered_logs(log, longer):
            report = decode_and_verify(arr, store, demand, altered)
            yield f"{n} {grid.tolist()} {demand} {name} {report!r}"


def sweep_lines(max_cells: int = 20000, seed: int = 7):
    rng = np.random.default_rng(seed)
    for family, p in standard_sweep(max_cells=max_cells):
        arr = construct(family, p)
        store = PacketStore.synthetic(arr.k, arr.f, 4, seed=p.q * 100 + p.z)
        demand = [int(x) for x in rng.integers(1, arr.k + 1, size=arr.k)]
        log = deliver(arr, store, demand)
        sent = slots(log)
        symbol, terms, payload = sent[-1]
        zeroed = log_of(sent[:-1] + [(symbol, terms, bytes(len(payload)))],
                        log.packet_size)
        for name, altered in (("honest", log), ("zeroed", zeroed)):
            report = decode_and_verify(arr, store, demand, altered)
            yield (f"{family.value} {(p.q, p.z, p.m, p.t)} {demand} {name} "
                   f"{report!r}")


def digest(lines) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
        count += 1
    return count, h.hexdigest()


def test_random_grid_reports_unchanged():
    assert digest(random_grid_lines()) == (
        8150,
        "1289928f9d05300fa7404598dc9dd3362d08725c37d3795456fb66bf69f378fa")


def test_sweep_reports_unchanged():
    assert digest(sweep_lines()) == (
        340,
        "46b2173317907ced19f7e07f023f0c2988c6b96611f2166d07c51cb73fdbffd7")

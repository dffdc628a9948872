"""The workloads: inputs made from the seed, items and their checks.

A workload's set-up builds its inputs once and returns a Prepared.  The
timed phase then runs passes; a pass is the workload's whole item list, so
every pass does the same amount of work.  An item is one demand (deliver +
decode), one construct+verify round trip, or one table preset.  Each
item's run() drives pdakit only through public functions, looked up on the
package at call time so the tracer's wrappers are seen; check() returns
the problems found in its output.  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import pdakit as pk
import pdakit.cli  # noqa: F401  (binds pk.cli)


@dataclass(frozen=True)
class Item:
    id: str  # "<item>#<pass>": the same item of every pass shares <item>
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Prepared:
    sizes: dict
    warmup: Item
    make_pass: Callable[[int], list[Item]]


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, bool, Path], Prepared]
    # passes every run makes, so that wall_s is a median of several
    min_passes: int


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# -- deliver + decode items -----------------------------------------------

def _decode(arr, store, demand):
    log = pk.deliver(arr, store, demand)
    return pk.decode_and_verify(arr, store, demand, log)


def _decode_item(item_id, arr, store, demand, expected) -> Item:
    s, f, packet = expected.s, expected.f, store.packet_size

    def check(report) -> list[str]:
        problems = []
        if not report.success:
            problems.append(f"{item_id}: decode failed")
        if report.bytes_sent != s * packet:
            problems.append(f"{item_id}: bytes_sent {report.bytes_sent} "
                            f"!= S*P = {s * packet}")
        if report.rate != Fraction(s, f):
            problems.append(f"{item_id}: rate {report.rate} != S/F = {s}/{f}")
        return problems

    return Item(item_id, lambda: _decode(arr, store, demand), check)


def _random_demand(rng, n_files: int, k: int) -> list[int]:
    # the draw `pda simulate --random-demands` makes
    return list(map(int, rng.integers(1, n_files + 1, size=k)))


def setup_bulk_demands(seed: int, tiny: bool, scratch: Path) -> Prepared:
    q, z, m, t = (3, 2, 3, 2) if tiny else (5, 3, 4, 2)
    family, p = pk.Family.EXT_GENERAL, pk.ConstructionParams(q, z, m, t)
    arr = pk.construct(family, p)
    expected = pk.theorem_params(family, p)
    packet = 32 if tiny else 256
    store = pk.PacketStore.synthetic(arr.k, arr.f, packet, seed)
    per_pass = 2 if tiny else 4

    def make_pass(n: int) -> list[Item]:
        rng = _rng(seed, n)
        return [_decode_item(f"demand{i}#{n}", arr, store,
                             _random_demand(rng, store.n_files, arr.k),
                             expected)
                for i in range(per_pass)]

    return Prepared({"array": f"{family.value}({q},{z},{m},{t})",
                     "f": arr.f, "k": arr.k, "files": store.n_files,
                     "packet_size": packet, "demands_per_pass": per_pass},
                    make_pass(0)[0], make_pass)


# -- CLI items: construct | verify round trips, table presets ----------

MN_CASES = ((24, 4), (20, 3), (16, 8))


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = pk.cli.main(argv)
    return code, out.getvalue()


def _roundtrip_item(item_id, construct_argv, expected, path) -> Item:
    want = (f"valid (K,F,Z,S)={expected.as_tuple()} "
            f"M/N={expected.ratio} R={expected.rate}\n")

    def run():
        built, _ = _cli(construct_argv + ["--out", str(path)])
        return built, _cli(["verify", str(path)])

    def check(result) -> list[str]:
        built, (verified, text) = result
        if built != 0 or verified != 0:
            return [f"{item_id}: exit codes {built}, {verified}"]
        if text != want:
            return [f"{item_id}: verify printed {text!r}, want {want!r}"]
        return []

    return Item(item_id, run, check)


# table III: K = 405, M/N = 2/3, the 13 non-dominated rows in order
TABLE_III = (
    ("special", 3, 2, 134), ("ext-special", 3, 2, 67),
    ("special", 15, 10, 26), ("ext-special", 9, 6, 22),
    ("special", 27, 18, 14), ("ext-special", 15, 10, 13),
    ("special", 45, 30, 8), ("ext-special", 27, 18, 7),
    ("special", 81, 54, 4), ("ext-special", 45, 30, 4),
    ("special", 135, 90, 2), ("ext-special", 81, 54, 2),
    ("ext-special", 135, 90, 1),
)

# tables IV and V: q = 20 and the z with w >= 2; (preset, t, lambda)
TABLES_IV_V = (("--table-iv", 3, 0.1), ("--table-v", 1, 0.5))


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


def _table_iii_item(item_id) -> Item:
    def check(result) -> list[str]:
        code, text = result
        if code != 0:
            return [f"{item_id}: exit code {code}"]
        problems = []
        rows = _csv_rows(text)
        if tuple((f, int(q), int(z), int(m)) for f, q, z, m, *_ in rows) \
                != TABLE_III:
            problems.append(f"{item_id}: rows differ from table III")
        for family, q, z, m, t, r_num, r_den, _ in rows:
            tp = pk.theorem_params(family, pk.ConstructionParams(
                int(q), int(z), int(m), int(t)))
            if (tp.k, tp.ratio, tp.rate) != (405, Fraction(2, 3),
                                             Fraction(int(r_num), int(r_den))):
                problems.append(f"{item_id}: row {family} q={q} z={z} m={m} "
                                "does not give back K=405, M/N=2/3")
        return problems

    return Item(item_id, lambda: _cli(["enumerate", "--table-iii",
                                       "--format", "csv"]), check)


def _table_item(item_id, preset: str, t: int, lam: float) -> Item:
    # closed forms at a lattice point: R ratio < 1/(lambda w^2t), and the
    # F ratio 1/(q-z)^t (table IV) or w/q (table V)
    q = 20

    def check(result) -> list[str]:
        code, text = result
        if code != 0:
            return [f"{item_id}: exit code {code}"]
        rows = _csv_rows(text)
        zs = [int(z) for z, _, _ in rows]
        if zs != [z for z in range(1, q - 1) if (q - 1) // (q - z) >= 2]:
            return [f"{item_id}: rows for z = {zs}"]
        problems = []
        for z, r_bound, f_ratio in rows:
            z = int(z)
            w = (q - 1) // (q - z)
            f_want = 1 / (q - z) ** t if t > 1 else w / q
            if not (math.isclose(float(r_bound), 1 / (lam * w ** (2 * t)),
                                 rel_tol=1e-12)
                    and math.isclose(float(f_ratio), f_want, rel_tol=1e-12)):
                problems.append(f"{item_id}: row z={z} differs from the "
                                "closed forms")
        return problems

    return Item(item_id, lambda: _cli(["compare", preset, "--format", "csv"]),
                check)


def setup_file_roundtrip(seed: int, tiny: bool, scratch: Path) -> Prepared:
    lo, hi = (200, 400) if tiny else (100_000, 1_000_000)
    cases = []
    for family, p in pk.standard_sweep(max_cells=hi):
        expected = pk.theorem_params(family, p)
        if expected.f * expected.k > lo:
            argv = ["construct", "--family", family.value, "--q", str(p.q),
                    "--z", str(p.z), "--m", str(p.m), "--t", str(p.t)]
            cases.append((f"{family.value}({p.q},{p.z},{p.m},{p.t})", argv,
                          expected))
    for k, t in ((6, 2),) if tiny else MN_CASES:
        argv = ["construct", "--family", "mn", "--k", str(k), "--t", str(t)]
        cases.append((f"mn({k},{t})", argv, pk.mn_params(k, t)))
    path = scratch / "roundtrip.pda"

    def make_pass(n: int) -> list[Item]:
        # the seed only orders the items: the item set is fixed
        items = [_roundtrip_item(f"{name}#{n}", argv, expected, path)
                 for name, argv, expected in cases]
        items.append(_table_iii_item(f"table-iii#{n}"))
        items += [_table_item(f"table{preset[7:]}#{n}", preset, t, lam)
                  for preset, t, lam in TABLES_IV_V]
        return [items[i] for i in _rng(seed, n).permutation(len(items))]

    smallest = min(cases, key=lambda c: c[2].f * c[2].k)
    return Prepared({"round_trips": len(cases), "table_items": 3,
                     "cells": sum(c[2].f * c[2].k for c in cases)},
                    _roundtrip_item(f"{smallest[0]}#warmup", smallest[1],
                                    smallest[2], path),
                    make_pass)


WORKLOADS = {
    "bulk-demands": Workload(setup_bulk_demands, min_passes=10),
    "file-roundtrip": Workload(setup_file_roundtrip, min_passes=4),
}

"""Property-based invariants over random grids and construction tuples."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import (log_of, naive_c2, naive_check, naive_equivalent,
                     reference_pair_scan, reference_scan_summary,
                     scan_summary, slots)
from pdakit import (STAR, ConstructionParams, PacketStore, PdaArray,
                    _kernels, canonicalize,
                    construct, core, decode_and_verify, deliver, emit,
                    equivalent, params_of, parse, run_simulation,
                    standard_sweep, theorem_params, verify_pda)
from pdakit.core import Violation, _CellTable

small_grids = st.integers(1, 5).flatmap(
    lambda f: st.integers(1, 5).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(0, 4), min_size=k, max_size=k),
            min_size=f, max_size=f)))

SWEEP_SMALL = [
    (family, p) for family, p in standard_sweep(max_cells=20_000)
]


def as_array(cells) -> PdaArray:
    return PdaArray(np.array(cells, dtype=np.int32))


@given(small_grids, st.none() | st.integers(0, 12))
def test_c2_listing_matches_naive(cells, declared_s):
    rows = [["*" if v == 0 else v for v in row] for row in cells]
    report = verify_pda(as_array(cells), declared_s=declared_s)
    got = [(v.locations, v.detail) for v in report.violations
           if v.condition == "C2"]
    assert got == naive_c2(rows, declared_s)


@st.composite
def scan_grids(draw):
    """Grids over a few symbols, so group sizes differ, plus one symbol on
    more than min(F, K) cells, which forces a shared row or column."""
    f, k = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    grid = np.array(draw(st.lists(st.integers(0, 6), min_size=f * k,
                                  max_size=f * k)), dtype=np.int32)
    big = draw(st.permutations(range(f * k)))[:min(f, k) + draw(
        st.integers(1, 3))]
    grid[big] = 7
    return grid.reshape(f, k)


@settings(max_examples=200)
@given(scan_grids(), st.sampled_from([1, 3, 7, 20, 64, 1 << 18, 1 << 22]),
       st.sampled_from([1, 3, 1000]),
       st.sampled_from([1, 2, 5, 16, 50, 1 << 15, 1 << 20]))
def test_pair_scan_matches_reference(grid, chunk, listed, clean):
    # small chunks split groups into bands of block rows and columns, and
    # the clean check and the pair work tile them each to their own budget;
    # the counts and the kept pairs match those taken from every pair
    t = _CellTable(grid)
    rows, cols, starts = t.rows, t.cols, t.starts
    vals = grid[rows, cols]
    assert np.array_equal(np.lexsort((rows, cols, vals)), np.arange(vals.size))
    with mock.patch.object(_kernels, "CHUNK_CELLS", chunk), \
            mock.patch.object(_kernels, "CLEAN_CELLS", clean):
        got = _kernels.c3_pair_scan(grid, rows, cols, starts, listed)
        # the one-byte non-star mask gives the same counts and pairs
        masked = _kernels.c3_pair_scan(grid != 0, rows, cols, starts, listed)
    expected = reference_scan_summary(grid, rows, cols, starts, listed)
    assert scan_summary(got) == expected
    assert scan_summary(masked) == expected
    assert len(got) == len(reference_pair_scan(grid, rows, cols, starts))


def report_lists(report):
    """A verify report's C1, C2-missing, C2-above-S and C3 lists, in
    report order, each split into its entries and its closing entries."""
    lists = {name: ([], []) for name in ("C1", "missing", "above", "C3")}
    for v in report.violations:
        name = v.condition[:2]
        if name == "C2":
            name = "above" if "exceed" in v.detail else "missing"
        lists[name][" more " in v.detail].append(v)
    return lists


@settings(max_examples=150, deadline=None)
@given(scan_grids(), st.integers(0, 8), st.integers(0, 9),
       st.sampled_from([1, 2, 5]))
def test_verify_lists_follow_the_listing_rule(grid, z, s, listed):
    # each list names its first LISTED entries and counts the rest exactly
    arr = PdaArray(grid)
    full = report_lists(verify_pda(arr, declared_z=z, declared_s=s))
    with mock.patch.object(core, "LISTED", listed):
        capped = verify_pda(arr, declared_z=z, declared_s=s)
    t = _CellTable(grid)
    pairs = reference_pair_scan(grid, t.rows, t.cols, t.starts)
    r, c = t.rows[pairs], t.cols[pairs]
    c3a = int(np.count_nonzero((r[:, 0] == r[:, 1]) | (c[:, 0] == c[:, 1])))
    c2 = [detail for _, detail in naive_c2(arr.to_rows(), s)]
    totals = {
        "C1": int(np.count_nonzero((grid == 0).sum(axis=0) != z)),
        "missing": sum("never occurs" in d for d in c2),
        "above": sum("exceeds" in d for d in c2),
        "C3": len(pairs),
    }
    expected = []
    for name, (entries, closing) in full.items():
        assert (len(entries), closing) == (totals[name], [])
        expected += entries[:listed]
        rest = len(entries) - listed
        if rest <= 0:
            continue
        if name == "C3":
            rest_a = c3a - sum(v.condition == "C3a" for v in entries[:listed])
            expected.append(Violation(
                "C3", (), f"{rest} more pairs break C3: {rest_a} C3a, "
                          f"{rest - rest_a} C3b"))
        else:
            condition, text = {
                "C1": ("C1", f"{rest} more columns do not have Z={z} stars"),
                "missing": ("C2", f"{rest} more symbols never occur"),
                "above": ("C2", f"{rest} more symbols exceed S={s}"),
            }[name]
            expected.append(Violation(condition, (), text))
    assert capped.violations == tuple(expected)


@settings(max_examples=150, deadline=None)
@given(scan_grids(), st.sampled_from([1, 2, 5]), st.integers(0, 2**31 - 1))
def test_decode_audit_follows_the_listing_rule(grid, listed, seed):
    # the notes of the first LISTED bad pairs, then one exact count per user
    arr = PdaArray(grid)
    store = PacketStore.synthetic(2, arr.f, 4, seed=0)
    demand = np.random.default_rng(seed).integers(1, 3, size=arr.k).tolist()
    log = deliver(arr, store, demand)
    full = decode_and_verify(arr, store, demand, log)
    with mock.patch.object(core, "LISTED", listed):
        capped = decode_and_verify(arr, store, demand, log)
    assert capped.success == full.success
    named = 0
    for a, b in zip(full.users, capped.users, strict=True):
        assert b.ok == a.ok
        closing = " more cache problems"
        notes = [p for p in b.problems if not p.endswith(closing)]
        more = [int(p.split()[0]) for p in b.problems[len(notes):]]
        assert b.problems == tuple(notes) + tuple(f"{n}{closing}"
                                                  for n in more)
        assert notes == list(a.problems[:len(notes)])
        assert len(more) <= 1 and all(n > 0 for n in more)
        assert len(notes) + sum(more) == len(a.problems)
        named += len(notes)
    # a bad pair makes at most two notes
    assert named <= 2 * listed


@given(small_grids)
def test_canonicalize_idempotent(cells):
    arr = as_array(cells)
    once = canonicalize(arr)
    assert canonicalize(once) == once


@given(small_grids)
def test_canonicalize_preserves_structure(cells):
    # renumbering may close C2 gaps, but C1/C3 structure must be untouched
    arr = as_array(cells)
    canon = canonicalize(arr)
    assert np.array_equal(arr.grid == STAR, canon.grid == STAR)
    assert equivalent(arr, canon) and equivalent(canon, arr)
    skeleton = [(v.condition, v.locations)
                for v in verify_pda(arr).violations if v.condition != "C2"]
    canon_skeleton = [(v.condition, v.locations)
                      for v in verify_pda(canon).violations
                      if v.condition != "C2"]
    assert skeleton == canon_skeleton
    if verify_pda(arr).valid:
        assert verify_pda(canon).valid
        assert params_of(arr) == params_of(canon)


@given(small_grids)
def test_parse_emit_round_trip(cells):
    arr = as_array(cells)
    assert parse(emit(arr)) == arr


@given(small_grids)
def test_verifier_agrees_with_naive_oracle(cells):
    arr = as_array(cells)
    assert verify_pda(arr).valid == all(naive_check(arr.to_rows()))


@given(small_grids, st.integers(0, 2**31 - 1))
def test_decodes_exactly_when_c3_holds(cells, seed):
    # C1 and C2 do not affect decoding; C3 alone decides it
    arr = as_array(cells)
    store = PacketStore.synthetic(arr.k, arr.f, packet_size=4, seed=0)
    demand = np.random.default_rng(seed).integers(1, arr.k + 1, size=arr.k)
    _, _, c3a, c3b = naive_check(arr.to_rows())
    report = run_simulation(arr, store, list(map(int, demand)))
    assert report.success == (c3a and c3b)


@given(small_grids, st.lists(st.tuples(
    st.integers(0, 20), st.sampled_from(["drop", "extra", "move", "short"])),
    max_size=3))
def test_log_check_matches_slot_loop(cells, edits):
    # the array comparisons name the slot a per-slot loop stops at
    arr = as_array(cells)
    store = PacketStore.synthetic(2, arr.f, 3, seed=0)
    demand = [1 + u % 2 for u in range(arr.k)]
    honest = slots(deliver(arr, store, demand))
    sent = list(honest)
    for i, kind in edits:
        if not sent:
            break
        symbol, terms, payload = sent[i % len(sent)]
        if kind == "drop":
            terms = terms[:-1]
        elif kind == "extra":
            terms = terms + terms[:1]
        elif kind == "move":
            # an earlier "drop" may have left no term to move
            terms = ((terms[0][0], terms[0][1] % arr.f + 1),) + terms[1:] \
                if terms else terms
        else:
            payload = payload[:-1]
        sent[i % len(sent)] = (symbol, terms, payload)
    want = []
    for (symbol, terms, payload), (_, honest_terms, _) in zip(sent, honest):
        if terms != honest_terms or len(payload) != store.packet_size:
            want.append(f"log entry for symbol {symbol} "
                        "does not match the array")
            break
    log = log_of(sent, store.packet_size)
    assert decode_and_verify(arr, store, demand, log).problems == tuple(want)


@given(small_grids, st.permutations(list(range(1, 5))))
def test_equivalence_under_relabeling(cells, perm):
    arr = as_array(cells)
    relabel = np.array([0] + list(perm), dtype=np.int32)
    other = PdaArray(relabel[arr.grid])
    assert equivalent(arr, other) and equivalent(other, arr)


@given(small_grids, st.permutations(list(range(1, 5))),
       st.permutations(list(range(1, 5))))
def test_equivalence_transitive_chain(cells, perm_a, perm_b):
    arr = as_array(cells)
    lut_a = np.array([0] + list(perm_a), dtype=np.int32)
    lut_b = np.array([0] + list(perm_b), dtype=np.int32)
    mid = PdaArray(lut_a[arr.grid])
    far = PdaArray(lut_b[mid.grid])
    assert equivalent(arr, mid) and equivalent(mid, far)
    assert equivalent(arr, far)


@st.composite
def grid_pairs(draw):
    """A small grid and a second one made from it: relabeled, with two
    symbols merged, with one cell turned to or from a star, transposed, or
    drawn anew (most often of another shape)."""
    a = np.array(draw(small_grids), dtype=np.int32)
    kind = draw(st.sampled_from(["relabel", "merge", "star", "transpose",
                                 "other"]))
    if kind == "relabel":
        lut = np.array([0] + draw(st.permutations(range(1, 9)))[:4],
                       dtype=np.int32)
        b = lut[a]
    elif kind == "merge":
        old, new = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        b = np.where(a == old, new, a)
    elif kind == "star":
        j, k = draw(st.integers(0, a.shape[0] - 1)), draw(
            st.integers(0, a.shape[1] - 1))
        b = a.copy()
        b[j, k] = draw(st.integers(1, 4)) if a[j, k] == STAR else STAR
    elif kind == "transpose":
        b = a.T
    else:
        b = np.array(draw(small_grids), dtype=np.int32)
    return a, b


@settings(max_examples=300)
@given(grid_pairs())
def test_equivalent_matches_pairwise_reference(pair):
    a, b = pair
    want = naive_equivalent(a, b)
    assert naive_equivalent(b, a) == want
    assert equivalent(PdaArray(a), PdaArray(b)) == want
    assert equivalent(PdaArray(b), PdaArray(a)) == want


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(SWEEP_SMALL))
def test_constructions_valid_with_counted_params(combo):
    family, p = combo
    arr = construct(family, p)
    report = verify_pda(arr)
    assert report.valid
    assert params_of(arr) == theorem_params(family, p)


@settings(deadline=None, max_examples=25)
@given(st.sampled_from(SWEEP_SMALL))
def test_star_budget_equals_symbol_occurrences(combo):
    # per column, the non-star cells match the total symbol occurrences, and
    # each symbol's occurrences sit in pairwise-distinct rows and columns
    family, p = combo
    arr = construct(family, p)
    grid = arr.grid
    non_star_total = int((grid != 0).sum())
    occurrences = np.bincount(grid[grid != 0])
    assert occurrences[1:].sum() == non_star_total
    for s in range(1, occurrences.size):
        rows, cols = np.nonzero(grid == s)
        assert len(set(rows.tolist())) == rows.size
        assert len(set(cols.tolist())) == cols.size


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(SWEEP_SMALL), st.integers(0, 2**31 - 1))
def test_any_demand_decodes(combo, seed):
    family, p = combo
    arr = construct(family, p)
    store = PacketStore.synthetic(arr.k, arr.f, packet_size=8, seed=0)
    rng = np.random.default_rng(seed)
    demand = rng.integers(1, arr.k + 1, size=arr.k)
    report = run_simulation(arr, store, list(map(int, demand)))
    assert report.success
    assert report.bytes_sent == params_of(arr).s * store.packet_size

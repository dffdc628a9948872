"""Gate on the family formulas: closed forms, comparisons, enumeration.

Each test hashes every result (or exception type and message) over a wide
grid of inputs, in and out of each domain.  The digests were recorded before
theorem_params, enumerate_schemes and compare_special were rewritten to read
one (ext, special) switch pair, so any change of output shows here.  The
theorem_params digest was recorded again when family mn began to be referred
to mn_params before the domain check; only mn rows changed.
"""

import hashlib
from fractions import Fraction

import pytest

from pdakit import (ConstructionParams, Family, MemoryShareSpec,
                    SchemeMetrics, compare_general, compare_special,
                    enumerate_schemes, memory_share, theorem_params)
from pdakit.analysis import MAX_EXACT_F_BITS
from pdakit.cli import main


def outcome(fn, *args, **kwargs) -> str:
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:  # the gate records the error as the output
        return f"{type(exc).__name__}: {exc}"


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def theorem_params_lines():
    families = [f.value for f in Family] + ["bogus"]
    for family in families:
        for q in range(1, 13):
            for z in range(-1, q + 1):
                for m in (0, 1, 2, 3, 4, 5, 7, 12, 40, 200):
                    for t in sorted({0, 1, 2, 3, 5, m - 1, m}):
                        p = ConstructionParams(q, z, m, t)
                        yield f"{family} {q} {z} {m} {t} " + outcome(
                            lambda: theorem_params(family, p).as_tuple())


def compare_lines():
    lams = (0.0, 1e-9, 0.1, 0.5, 0.9, 1.0)
    for q in range(1, 31):
        for z in range(-1, q + 1):
            for lam in lams:
                for exact in (True, False):
                    yield f"yctc {q} {z} {lam} {exact} " + outcome(
                        compare_special, q, z, lam, exact)
                    for t in range(0, 5):
                        yield f"szg {q} {z} {t} {lam} {exact} " + outcome(
                            compare_general, q, z, t, lam, exact)


def memory_share_lines():
    half = Fraction(1, 2)
    top = 2**MAX_EXACT_F_BITS
    fs = (1, 9, 2**64 + 1, top // 2, top - 1, top, 3 * top)
    for fa in fs:
        for fb in fs:
            a = SchemeMetrics.exact(Fraction(1, 3), Fraction(2), fa)
            b = SchemeMetrics.exact(Fraction(2, 3), Fraction(1, 2), fb)
            for wa in (half, Fraction(1, 5), Fraction(1)):
                comps = ((a, wa),) if wa == 1 else ((a, wa), (b, 1 - wa))
                yield f"{fa} {fb} {wa} " + outcome(
                    memory_share, MemoryShareSpec(comps))


ENUMERATE_RATIOS = (Fraction(1, 2), Fraction(2, 3), Fraction(1, 3),
                    Fraction(3, 4), Fraction(5, 9), Fraction(8, 9),
                    Fraction(7, 16), Fraction(26, 27), Fraction(3, 5))


def enumerate_lines():
    targets = [*range(2, 200, 3), 405, 720, 864, 3000]
    for k in targets:
        for ratio in ENUMERATE_RATIOS:
            for dominated in (False, True):
                rows = enumerate_schemes(k, ratio, include_dominated=dominated)
                keys = [(r.family.value, r.q, r.z, r.m, r.t, str(r.rate), r.f,
                         repr(r.ln_f)) for r in rows]
                yield f"{k} {ratio} {dominated} {keys!r}"
    for k, ratio in ((1, Fraction(1, 2)), (4, Fraction(3, 2)),
                     (4, Fraction(0)), (4, Fraction(1))):
        yield f"{k} {ratio} " + outcome(enumerate_schemes, k, ratio)


# line count and SHA-256 of each grid's results
GATE = {
    "compare": (compare_lines, 37800,
        "d9d38d4e52eeefcdf69e9b892f75204cc4beb1617287584a5ec4b8e43377574c"),
    "enumerate": (enumerate_lines, 1264,
        "dbb326308e4f49bcdf6bcccffaa8f6de41a3ebd70793b0020f982b72370d6541"),
    "memory_share": (memory_share_lines, 147,
        "5b2382dc560beb225b1825ed945c63c71f9497e43f521e52a5f57ebd53223630"),
    "theorem_params": (theorem_params_lines, 37332,
        "f7d6e7fdffff812514af2a57ff29823b33e97c421bfff21551de9efd06c4e652"),
}


@pytest.mark.parametrize("name", sorted(GATE))
def test_library_outputs_unchanged(name):
    lines, count, want = GATE[name]
    got = list(lines())
    assert len(got) == count
    assert digest(got) == want


# SHA-256 of the stdout of each preset table
CLI_DIGESTS = {
    ("compare", "--table-iv", "csv"):
        "179141df9b39f39dc9215b0b866cc7521608c1a8824ba25a9118d0b95c4a3144",
    ("compare", "--table-iv", "text"):
        "3c690597db69b5f46fe12c9723b3011c486f2070488b2579d15eee39383ca945",
    ("compare", "--table-v", "csv"):
        "1012c52a2be3d5a53930c9731bb6e55617166355d248dd753544b9918fd32c29",
    ("compare", "--table-v", "text"):
        "7f0e0a45b3003be9a27f267d3d8ff9cc00c8af9c8d1e6a5f19753e2cbb88e70b",
    ("enumerate", "--table-iii", "csv"):
        "d120d460f51452e043c67573299265801ec96a341f7df6d4e05f39a5afeb6587",
    ("enumerate", "--table-iii", "text"):
        "fa363e22c17c040cbdde3698ded3a6e9c14bf5d7de13f72b641749ee95c46ccc",
}


@pytest.mark.parametrize("command, preset, fmt", sorted(CLI_DIGESTS))
def test_preset_tables_unchanged(capsys, command, preset, fmt):
    assert main([command, preset, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        CLI_DIGESTS[command, preset, fmt]

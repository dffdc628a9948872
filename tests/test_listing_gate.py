"""Gate on the verify and simulate reports of small invalid files.

The corpus is the C3 gate's corrupted fixtures plus 240 seeded random
grids whose headers declare a Z and an S that the cells may not match, so
the reports carry C1, C2 (missing and above-S) and C3 faults and decode
failures.  Every report is far under the listing bound, so each must stay
byte for byte as it was when the digest was recorded, before the listing
bound covered every list.
"""

import contextlib
import hashlib
import io

import numpy as np

from pdakit.cli import main
from test_cli import C3_CASES, C3_COMMANDS, corrupted

COMMANDS = {
    "verify": ("verify",),
    "simulate": ("simulate", "--seed", "3"),
    "random": ("simulate", "--seed", "3", "--random-demands", "3"),
}
# the report lines the corpus must reach
FAULTS = ("  C1 ", "never occurs", "exceeds S=", "  C3a ", "  C3b ",
          "own packets collide", "not cached", "is not a star", ": ok")
# SHA-256 over every (file, command, exit code, stdout) of the corpus
DIGEST = "70dcdb374d149484678157d9a7d2e30def425c0d3c0be618d7e65560e1fe30ce"


def random_files(tmp_path, count: int = 240, seed: int = 18):
    rng = np.random.default_rng(seed)
    for n in range(count):
        f, k = (int(x) for x in rng.integers(1, 7, size=2))
        grid = rng.integers(0, int(rng.integers(1, 6)) + 1, size=(f, k))
        z = int(rng.integers(0, f + 1))
        s = max(0, int(grid.max()) + int(rng.integers(-2, 3)))
        body = "".join(" ".join("*" if v == 0 else str(v) for v in row) + "\n"
                       for row in grid.tolist())
        path = tmp_path / f"random-{n}.pda"
        path.write_text(f"{k} {f} {z} {s}\n{body}")
        yield path.name, path


def test_reports_unchanged(tmp_path):
    files = []
    for case in sorted(C3_CASES):
        (tmp_path / case).mkdir()
        files.append((case, corrupted(tmp_path / case, *C3_CASES[case])))
    files += random_files(tmp_path)
    assert set(COMMANDS) == set(C3_COMMANDS)
    digest = hashlib.sha256()
    seen = set()
    for name, path in files:
        for command, argv in COMMANDS.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([argv[0], str(path), *argv[1:]])
            text = out.getvalue()
            digest.update(f"{name} {command} {code}\n{text}".encode())
            seen.update(kind for kind in FAULTS if kind in text)
    assert seen == set(FAULTS)
    assert digest.hexdigest() == DIGEST

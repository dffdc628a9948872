"""Gate on `pda simulate`: exit code and stdout over the sweep and fixtures.

The corpus is every standard_sweep(max_cells=20000) array, written as a
.pda file, and the five fixtures.  Each is simulated once with one demand
and 8-byte packets, which prints the whole transmission trace, and once
with five random demands.  The digest was recorded before deliver and
decode_and_verify shared one gather per demand, so any change of trace,
report line or exit code shows here.
"""

import contextlib
import hashlib
import io
from pathlib import Path

from pdakit import construct, emit, standard_sweep
from pdakit.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
COMMANDS = (
    ("--seed", "3", "--packet-size", "8"),
    ("--seed", "3", "--random-demands", "5"),
)
# SHA-256 over every (file, command, exit code, stdout) of the corpus
DIGEST = "6b6fd49a52727023888144f32a84845ded11b993308ebcd67a06854ffeecaace"


def corpus(tmp_path):
    for family, p in standard_sweep(max_cells=20000):
        name = f"{family.value}_q{p.q}_z{p.z}_m{p.m}_t{p.t}.pda"
        path = tmp_path / name
        path.write_text(emit(construct(family, p)))
        yield name, path
    for path in sorted(FIXTURES.glob("*.pda")):
        yield path.name, path


def test_simulate_output_unchanged(tmp_path):
    digest = hashlib.sha256()
    count = 0
    for name, path in corpus(tmp_path):
        for argv in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["simulate", str(path), *argv])
            digest.update(f"{name} {' '.join(argv)} {code}\n".encode())
            digest.update(out.getvalue().encode())
            count += 1
    assert (count, digest.hexdigest()) == (350, DIGEST)

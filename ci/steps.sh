# Every CI check, one function each, run in order by `bash ci/steps.sh`.
#
# Needs bash, python3 with numpy, pytest and hypothesis, coreutils
# (timeout, sha256sum) and util-linux (taskset); no network.  The files the
# checks make go to one fresh temporary directory, removed on exit.
# Checks that a tier-1 test already makes at the same limit are left to it.
set -Eeuo pipefail
trap 'echo "ci/steps.sh: line $LINENO failed: $BASH_COMMAND" >&2' ERR
cd "$(dirname "$0")/.."
unset PYTHONPATH
SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT

# pda SECONDS ARGS...: the pda command line as a child process, stopped
# after SECONDS (0: no time limit)
pda() { PYTHONPATH=src timeout "$1" python3 -m pdakit.cli "${@:2}"; }

# check CODE SECONDS ARGS...: pda must exit CODE within SECONDS, with under
# 500 bytes of stderr and no traceback; its stdout is left in $SCRATCH/out
check() {
    local want=$1 status=0
    shift
    pda "$@" > "$SCRATCH/out" 2> "$SCRATCH/err" || status=$?
    head -c 500 "$SCRATCH/err"
    test "$status" -eq "$want"
    test "$(wc -c < "$SCRATCH/err")" -lt 500
    if grep -q Traceback "$SCRATCH/out" "$SCRATCH/err"; then false; fi
}

# tier-1 with PYTHONPATH unset: pyproject.toml puts src on pytest's path
tier1() {
    python3 -m pytest -q --continue-on-collection-errors --durations=5
}

# the entry point as a process; its 200-demand run is the simulate smoke,
# byte for byte
demands() {
    pda 0 construct --family special --q 3 --z 2 --m 2 --out "$SCRATCH/s.pda"
    pda 0 verify "$SCRATCH/s.pda"
    check 0 60 simulate "$SCRATCH/s.pda" --random-demands 200 --seed 5 \
        --packet-size 8
    test "$(grep -cx decode=ok "$SCRATCH/out")" -eq 200
    test "$(sha256sum < "$SCRATCH/out" | cut -d ' ' -f 1)" = \
        e675ce4af1d06a3ca07e946651d90d84ffa1b99b7bae28b8a866c1f0225809cf
}

# twenty demands on the 625x600 bulk-demands array, byte for byte
bulk_demands() {
    pda 0 construct --family ext-general --q 5 --z 3 --m 4 --t 2 \
        --out "$SCRATCH/b.pda"
    check 0 120 simulate "$SCRATCH/b.pda" --random-demands 20 \
        --packet-size 256 --seed 9
    test "$(grep -cx decode=ok "$SCRATCH/out")" -eq 20
    test "$(sha256sum < "$SCRATCH/out" | cut -d ' ' -f 1)" = \
        59a9e6a92eeede11d53a3cac9a67c8fbce10976226a363bd75d35b043b33c40c
}

# the default demand's 15 MB gather is split among the usable CPUs; under
# taskset it runs as one slice on the calling thread, with the same trace
one_cpu() {
    check 0 120 simulate "$SCRATCH/b.pda" --packet-size 256 --seed 9
    mv "$SCRATCH/out" "$SCRATCH/b-all.txt"
    (
        taskset -pc 0 "$BASHPID" > /dev/null
        check 0 120 simulate "$SCRATCH/b.pda" --packet-size 256 --seed 9
    )
    test "$(grep -c "^s=" "$SCRATCH/b-all.txt")" -eq 2500
    test "$(tail -n 1 "$SCRATCH/b-all.txt")" = decode=ok
    cmp "$SCRATCH/b-all.txt" "$SCRATCH/out"
}

# hostile inputs end within their limits; the heaviest C3 work passes
hostile() {
    python3 -c "import sys; sys.path.insert(0, 'tests'); from helpers import c3_heavy_text; print(c3_heavy_text(), end='')" > "$SCRATCH/heavy.pda"
    check 1 60 simulate "$SCRATCH/heavy.pda" --packet-size 8
    python3 -c "print('2000 2000 0 1'); print(*(' '.join(map(str, range(r * 2000 + 1, r * 2000 + 2001))) for r in range(2000)), sep='\n')" > "$SCRATCH/s1.pda"
    check 1 60 verify "$SCRATCH/s1.pda"
    pda 0 construct --family general --q 2 --z 1 --m 12 --t 3 \
        --out "$SCRATCH/h.pda"
    check 0 60 verify "$SCRATCH/h.pda"
    grep -q "^valid" "$SCRATCH/out"
}

# a quarter-million-cell subset-family array, and a CRLF copy of it with a
# comment line, which the line reader verifies
subset_family() {
    pda 0 construct --family mn --k 24 --t 4 --out "$SCRATCH/m.pda"
    pda 0 verify "$SCRATCH/m.pda"
    pda 0 simulate "$SCRATCH/m.pda" --random-demands 2 --seed 1
    sed '2i # comment' "$SCRATCH/m.pda" | sed 's/$/\r/' > "$SCRATCH/m-crlf.pda"
    pda 0 verify "$SCRATCH/m-crlf.pda"
}

# the ten-million-cell array at the cell cap verifies alike as written,
# with every space a tab (still the byte path) and with a comment line
# (the line reader)
at_cap() {
    pda 0 construct --family general --q 10 --z 6 --m 5 --t 1 \
        --out "$SCRATCH/c.pda"
    local out
    out=$(pda 0 verify "$SCRATCH/c.pda")
    echo "$out"
    case "$out" in valid*) ;; *) false ;; esac
    tr ' ' '\t' < "$SCRATCH/c.pda" > "$SCRATCH/c-tabs.pda"
    test "$(pda 0 verify "$SCRATCH/c-tabs.pda")" = "$out"
    sed '2i # comment' "$SCRATCH/c.pda" > "$SCRATCH/c-comment.pda"
    test "$(pda 0 verify "$SCRATCH/c-comment.pda")" = "$out"
}

# the at-cap simulate trace streams within 1.5 GB of address space
at_cap_trace() {
    ( ulimit -v 1500000; check 0 120 simulate "$SCRATCH/c.pda" )
    test "$(grep -c "^s=" "$SCRATCH/out")" -eq 400000
    test "$(tail -n 1 "$SCRATCH/out")" = decode=ok
    test "$(sha256sum < "$SCRATCH/out" | cut -d ' ' -f 1)" = \
        a5d979db31311d90c0464cb026e59404ac229b93b6e68b29ff41c412b0032a7d
}

# the closing block and the mn row blocks at the cell cap
cap_blocks() {
    pda 0 construct --family special --q 4 --z 3 --m 8 \
        --out "$SCRATCH/cap-special.pda"
    pda 0 verify "$SCRATCH/cap-special.pda"
    pda 0 construct --family mn --k 21 --t 10 --out "$SCRATCH/cap-mn.pda"
    pda 0 verify "$SCRATCH/cap-mn.pda"
}

# the full compare sweeps at q = 100000, byte for byte; the formula gate
# reaches only q < 31
compare_sweeps() {
    check 0 60 compare --baseline yctc --q 100000 --format csv
    test "$(sha256sum < "$SCRATCH/out" | cut -d ' ' -f 1)" = \
        e0b272fc57e3e7f8ef2ab6fa1a177883a80e4a5223ee98a78b6c4b5bc0ac9921
    check 0 60 compare --baseline szg --t 1 --q 100000 --format csv
    test "$(sha256sum < "$SCRATCH/out" | cut -d ' ' -f 1)" = \
        ea1eaff8d2221767aa968323fe4a98fc71b932ea0d42bf6fa2f2afdfa00d2ad7
}

bench() {
    python3 -m pytest pdabench -q
}

# the checkout's git status, empty outside a git checkout
tree_status() { git status --porcelain 2> /dev/null || true; }

before=$(tree_status)
for step in tier1 demands bulk_demands one_cpu hostile subset_family at_cap \
        at_cap_trace cap_blocks compare_sweeps bench; do
    echo "== $step"
    start=$(date +%s%N)
    "$step"
    elapsed=$((($(date +%s%N) - start) / 100000000))
    echo "== $step passed in $((elapsed / 10)).$((elapsed % 10)) s"
done
# no step may leave the checkout changed
after=$(tree_status)
if [ "$after" != "$before" ]; then
    echo "ci/steps.sh: the steps changed the checkout:" >&2
    diff <(echo "$before") <(echo "$after") >&2 || true
    false
fi

"""Command-line front-end.

Subcommands: construct, verify, simulate, compare, enumerate.  Arrays are
exchanged in the plain-text format of pdakit.textio.  Exit codes: 0 success,
1 semantic failure (invalid array or decode failure), 2 usage or parameter
domain error, 3 a size cap exceeded (the caps are listed in pdakit.core).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import itertools
import re
import sys
from fractions import Fraction
from typing import NoReturn

import numpy as np

from . import analysis, constructions, core, simulate, textio
from .constructions import ConstructionParams, Family
from .core import (PdaParams, SizeCapError, canonicalize, params_of,
                   verify_pda)
from .textio import PdaFormatError, _quoted, _too_long

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# lines of a compare table per written chunk
COMPARE_BLOCK = 4096

# glibc's mallopt parameters, from malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _libc():
    """The C library's symbols, as this process has them loaded."""
    return ctypes.CDLL(None)


@functools.cache
def _pin_allocator() -> None:
    """Fix glibc's allocator policy once per process: blocks from 16 MB up
    are mapped, and freed heap is kept up to 32 MB.

    By default glibc raises its mmap threshold to the size of each large
    mapped block that is freed, and its trim threshold to twice that, so
    which allocations fault their pages in again depends on the largest
    transient some earlier call happened to free.  Fixed values keep the
    heap's freed pages for the next command's temporaries.  Where the C
    library has no mallopt, nothing changes.
    """
    try:
        mallopt = _libc().mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    mallopt(_M_TRIM_THRESHOLD, 32 << 20)


def _write(target: str, text) -> None:
    """Write --out: a path, or '-' for stdout.

    ``text`` is a str or an iterable of str chunks, written as they come.
    The first chunk is made before the target is opened, so a command
    refused while making it writes nothing and creates no file.
    """
    chunks = iter((text,) if isinstance(text, str) else text)
    first = next(chunks)
    with (contextlib.nullcontext(sys.stdout) if target == "-"
          else open(target, "w", encoding="ascii")) as fh:
        fh.write(first)
        for chunk in chunks:
            fh.write(chunk)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose refusals of a choice (a subcommand name or a
    choice option) and of unrecognized arguments quote the text as a parse
    error does."""

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {_quoted(' '.join(extras))}")
        return args

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(
                action, f"invalid choice: {_quoted(value)} (choose from "
                        f"{', '.join(map(repr, action.choices))})")


def _common(sub: argparse.ArgumentParser, table: bool = False) -> None:
    sub.add_argument("--out", default="-",
                     help="output path, or - for stdout (default)")
    if table:
        sub.add_argument("--format", choices=("text", "csv"), default="text",
                         help="table output format (default text)")


# what int() refuses in this form, it refuses for its length
_DIGITS = re.compile(r"\s*[+-]?[0-9]+\s*")


def _int_text(text: str, refusal: str) -> int:
    """int(text); when int() refuses it, ValueError(refusal), or the
    reason for a run of digits too long to convert."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(_too_long(text) if _DIGITS.fullmatch(text)
                         else refusal) from None


def _int(text: str) -> int:
    """type= of every integer option: argparse's own message, with the
    text quoted as a parse error quotes it."""
    try:
        return _int_text(text, f"invalid int value: {_quoted(text)}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None


def _float(text: str) -> float:
    """type= of --lambda: argparse's own message, with the text quoted."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {_quoted(text)}") from None


def _fraction(text: str) -> Fraction:
    num, sep, den = text.partition("/")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"ratio must be an exact fraction a/b, got {_quoted(text)}")
    refusal = f"ratio a/b must be two integers, got {_quoted(text)}"
    try:
        num, den = _int_text(num, refusal), _int_text(den, refusal)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None
    if den == 0:
        raise argparse.ArgumentTypeError(
            f"ratio {_quoted(text)} has a zero denominator")
    return Fraction(num, den)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="pda",
        description="construct, verify, simulate and analyse placement "
                    "delivery arrays")
    subs = top.add_subparsers(dest="command", required=True)

    c = subs.add_parser("construct", help="generate an array from a family")
    c.add_argument("--family", choices=[f.value for f in Family],
                   required=True)
    c.add_argument("--q", type=_int)
    c.add_argument("--z", type=_int)
    c.add_argument("--m", type=_int)
    c.add_argument("--t", type=_int, default=None,
                   help="subset size (vector families, default 1); "
                        "cached fraction t for the mn family")
    c.add_argument("--k", type=_int, help="user count (mn family only)")
    _common(c)
    c.set_defaults(run=_cmd_construct)

    v = subs.add_parser("verify", help="check a file against C1-C3")
    v.add_argument("path")
    _common(v)
    v.set_defaults(run=_cmd_verify)

    s = subs.add_parser("simulate",
                        help="run placement, delivery and decoding")
    s.add_argument("path")
    s.add_argument("--files", type=_int, default=None,
                   help="library size N (default: K)")
    s.add_argument("--packet-size", type=_int,
                   default=simulate.DEFAULT_PACKET_SIZE)
    s.add_argument("--demand", default=None,
                   help="comma-separated file indices, one per user")
    s.add_argument("--random-demands", type=_int, default=None,
                   help="simulate this many uniformly random demands")
    s.add_argument("--seed", type=_int, default=0,
                   help="seed for packets and random demands (default 0)")
    _common(s)
    s.set_defaults(run=_cmd_simulate)

    p = subs.add_parser("compare",
                        help="rate/packet ratios against a mixed baseline")
    p.add_argument("--baseline", choices=("szg", "yctc"))
    p.add_argument("--q", type=_int)
    p.add_argument("--z", type=_int, default=None,
                   help="single z (default: sweep all z with w >= 2)")
    p.add_argument("--t", type=_int, default=None)
    p.add_argument("--lambda", dest="lam", type=_float, default=None)
    p.add_argument("--table-iv", action="store_true",
                   help="preset: szg baseline, q=20, t=3, lambda=0.1")
    p.add_argument("--table-v", action="store_true",
                   help="preset: yctc baseline, q=20, lambda=0.5")
    _common(p, table=True)
    p.set_defaults(run=_cmd_compare)

    e = subs.add_parser("enumerate",
                        help="families matching a user count and ratio")
    e.add_argument("--k", type=_int)
    e.add_argument("--ratio", type=_fraction,
                   help="exact memory ratio a/b")
    e.add_argument("--include-dominated", action="store_true")
    e.add_argument("--table-iii", action="store_true",
                   help="preset: K=405, ratio 2/3")
    _common(e, table=True)
    e.set_defaults(run=_cmd_enumerate)
    return top


def _refuse(text: str) -> NoReturn:
    """Refuse the command line as argparse does: text, then exit 2."""
    _PARSER.exit(EXIT_USAGE, text + "\n")


def _cmd_construct(args) -> int:
    family = Family(args.family)
    if family is Family.MN:
        if args.k is None or args.t is None:
            _refuse("construct: mn needs --k and --t")
        if (args.q, args.z, args.m) != (None, None, None):
            _refuse("construct: mn takes no --q, --z or --m")
        arr = constructions.construct_mn(args.k, args.t)
    else:
        if args.q is None or args.z is None or args.m is None:
            _refuse("construct: vector families need --q, --z and --m")
        if args.k is not None:
            _refuse("construct: vector families take no --k")
        p = ConstructionParams(args.q, args.z, args.m,
                               1 if args.t is None else args.t)
        arr = constructions.construct(family, p)
    arr = canonicalize(arr)
    params = params_of(arr)
    _write(args.out, textio.emit(arr))
    print(f"(K,F,Z,S)={params.as_tuple()} M/N={params.ratio} "
          f"R={params.rate}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    arr, header = textio.load_with_header(args.path)
    report = verify_pda(arr, declared_z=header.z, declared_s=header.s)
    if report.valid:
        # valid against the header: every column has Z stars and the
        # symbols are exactly 1..S, so these are the counted parameters
        params = PdaParams(arr.k, arr.f, header.z, header.s)
        lines = [f"valid (K,F,Z,S)={params.as_tuple()} "
                 f"M/N={params.ratio} R={params.rate}"]
    else:
        lines = [f"invalid: {len(report.violations)} violation(s)"]
        for v in report.violations:
            locs = "".join(f"({j},{k}) " for j, k in v.locations)
            lines.append(f"  {v.condition} {locs}{v.detail}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if report.valid else EXIT_SEMANTIC


def _parse_demand(text: str) -> list[int]:
    refusal = f"demand entries must be integers: {_quoted(text)}"
    return [_int_text(tok, refusal) for tok in text.split(",")]


def _cmd_simulate(args) -> int:
    if args.demand is not None and args.random_demands is not None:
        _refuse("simulate: --demand and --random-demands are exclusive")
    for option, value, least in (
            ("--random-demands", args.random_demands, 1),
            ("--files", args.files, 1), ("--packet-size", args.packet_size, 1),
            ("--seed", args.seed, 0)):
        if value is not None and value < least:
            _refuse(f"simulate: {option} must be at least {least}")
    arr, _ = textio.load_with_header(args.path)
    k = arr.k
    if args.random_demands is not None:
        # refused before the store is made or a demand drawn; the work is
        # a Python int, as numpy's int64 would wrap
        core._check_cap(args.random_demands
                        * (int(np.count_nonzero(arr.grid)) + k
                           + core.DEMAND_FIXED_WORK),
                        core.DEMAND_WORK_CAP,
                        "the random demands would work through {} cells "
                        "and users")
    n = args.files if args.files is not None else k
    store = simulate.PacketStore.synthetic(n, arr.f, args.packet_size,
                                           args.seed)
    if args.random_demands is not None:
        count = args.random_demands
        rng = np.random.default_rng(args.seed)
        # each demand is drawn just before it runs, in the same order
        demands = (list(map(int, rng.integers(1, n + 1, size=k)))
                   for _ in range(count))
    elif args.demand is not None:
        count, demands = 1, [_parse_demand(args.demand)]
    else:
        count, demands = 1, [[(i % n) + 1 for i in range(k)]]

    all_ok = True

    def blocks():
        # one block per demand, written once it is decoded: its demand line
        # (the first with the seed line), a lone demand's trace in chunks,
        # then its report
        nonlocal all_ok
        head = f"seed={args.seed} N={n} packet_size={store.packet_size}\n"
        for demand in demands:
            log = simulate.deliver(arr, store, demand)
            report = simulate.decode_and_verify(arr, store, demand, log)
            all_ok &= report.success
            yield f"{head}demand={','.join(map(str, demand))}\n"
            head = ""
            if count == 1:
                yield from log.trace()
            # the user lines read the report's demand and failures, so no
            # file is hashed
            failed = report.failures
            users = "".join(
                f"user {u} file {i}: "
                f"{'FAIL ' + '; '.join(failed[u]) if u in failed else 'ok'}\n"
                for u, i in enumerate(report.demanded, 1))
            yield (f"bytes_sent={report.bytes_sent} rate={report.rate}\n"
                   f"{users}decode={'ok' if report.success else 'FAIL'}\n")

    _write(args.out, blocks())
    return EXIT_OK if all_ok else EXIT_SEMANTIC


def _cmd_compare(args) -> int:
    if args.table_iv:
        baseline, q, t, lam = "szg", 20, 3, 0.1
    elif args.table_v:
        baseline, q, t, lam = "yctc", 20, 1, 0.5
    else:
        baseline, q, t, lam = args.baseline, args.q, args.t, args.lam
        if baseline is None or q is None:
            _refuse("compare: need --baseline and --q (or a preset)")
        if lam is None:
            lam = 0.1 if baseline == "szg" else 0.5
        if baseline == "szg" and t is None:
            _refuse("compare: szg baseline needs --t")
        if baseline == "yctc":
            if t not in (None, 1):
                _refuse("compare: yctc baseline fixes t = 1")
            t = 1
    if args.z is not None:
        zs = [args.z]
    else:
        # the sweep may hold no z, so q, t and lambda are checked here, as
        # its first z would check them
        analysis._check_sweep(q, t, lam)
        # the z where the advantage regime is reachable and both table
        # columns are defined: (q - 1) // (q - z) >= 2 and z <= q - 2
        zs = range(q // 2 + 1, q - 1)
    if args.format == "csv":
        head = ["z,r_bound,f_ratio\n"]
        row = "{},{:.15g},{:.15g}\n".format
    else:
        head = [f"baseline={baseline} q={q} t={t} lambda={lam:g}\n",
                f"{'z':>4} {'R_ratio<':>22} {'F_ratio':>22}\n"]
        row = "{:>4} {:>22.15g} {:>22.15g}\n".format

    def lines():
        yield from head
        for z in zs:
            res = analysis._compare(baseline, q, z, t, lam, exact_case=True)
            yield row(z, res.r_bound, res.f_value_or_bound)

    # COMPARE_BLOCK lines a chunk; the header rides with the first rows, so
    # a refused z writes nothing and creates no --out file
    table = lines()
    _write(args.out, iter(
        lambda: "".join(itertools.islice(table, COMPARE_BLOCK)), ""))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    if args.table_iii:
        k, ratio = 405, Fraction(2, 3)
    else:
        if args.k is None or args.ratio is None:
            _refuse("enumerate: need --k and --ratio (or --table-iii)")
        k, ratio = args.k, args.ratio
    rows = analysis.enumerate_schemes(k, ratio,
                                      include_dominated=args.include_dominated)
    if args.format == "csv":
        out = ["family,q,z,m,t,R_num,R_den,lnF"]
        out += [f"{r.family},{r.q},{r.z},{r.m},{r.t},"
                f"{r.rate.numerator},{r.rate.denominator},{r.ln_f:.6f}"
                for r in rows]
    else:
        out = [f"K={k} M/N={ratio}: {len(rows)} scheme(s)",
               f"{'family':>12} {'q':>4} {'z':>4} {'m':>4} {'t':>2} "
               f"{'R':>8} {'lnF':>10}"]
        out += [f"{r.family.value:>12} {r.q:>4} {r.z:>4} {r.m:>4} {r.t:>2} "
                f"{float(r.rate):>8g} {r.ln_f:>10.4f}" for r in rows]
    _write(args.out, "\n".join(out) + "\n")
    return EXIT_OK


_PARSER = build_parser()


def main(argv=None) -> int:
    """Every exit code, --help's and each refusal's too, is returned."""
    _pin_allocator()
    try:
        args = _PARSER.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return exc.code
    except PdaFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeCapError as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        text = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:
            # str(exc) would quote the whole path
            text = (f"[Errno {exc.errno}] {exc.strerror}: "
                    f"{_quoted(str(exc.filename))}")
        print(f"error: {text}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

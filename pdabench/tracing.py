"""Span tracing of pdakit's layers, installed from outside the package.

The tracer replaces each public entry point listed in ENTRY_POINTS with a
wrapper that records a span (name, layer, metric, start, end, parent span,
item id) and bumps the work counters of that layer.  Every binding of the
original function inside the ``pdakit`` modules is replaced, so calls
between modules (cli -> core, analysis -> constructions, core -> kernels)
are seen too.  uninstall() puts the originals back, so untraced passes run
the unmodified program.

A layer's self time is the time inside its spans minus the time covered by
their child spans.  Work done by private helpers is charged to the public
entry point that called it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("constructions", "core", "kernels", "textio", "simulate",
          "analysis", "cli")

# (layer, module, attribute, self-time metric or None)
ENTRY_POINTS = (
    ("constructions", "pdakit.constructions", "construct",
     "constructions.construct_s"),
    ("constructions", "pdakit.constructions", "construct_general",
     "constructions.construct_s"),
    ("constructions", "pdakit.constructions", "construct_special",
     "constructions.construct_s"),
    ("constructions", "pdakit.constructions", "construct_ext_general",
     "constructions.construct_s"),
    ("constructions", "pdakit.constructions", "construct_ext_special",
     "constructions.construct_s"),
    ("constructions", "pdakit.constructions", "construct_mn",
     "constructions.construct_s"),
    ("constructions", "pdakit.constructions", "theorem_params", None),
    ("constructions", "pdakit.constructions", "mn_params", None),
    ("core", "pdakit.core", "verify_pda", "core.verify_s"),
    ("core", "pdakit.core", "canonicalize", "core.canonicalize_s"),
    ("core", "pdakit.core", "params_of", "core.params_of_s"),
    ("core", "pdakit.core", "equivalent", None),
    ("kernels", "pdakit._kernels", "c3_pair_scan", "kernels.pair_scan_s"),
    ("textio", "pdakit.textio", "emit", "textio.emit_s"),
    ("textio", "pdakit.textio", "save", "textio.emit_s"),
    ("textio", "pdakit.textio", "parse", "textio.parse_s"),
    ("textio", "pdakit.textio", "parse_with_header", "textio.parse_s"),
    ("textio", "pdakit.textio", "load", "textio.parse_s"),
    ("textio", "pdakit.textio", "load_with_header", "textio.parse_s"),
    ("simulate", "pdakit.simulate", "deliver", "simulate.deliver_s"),
    ("simulate", "pdakit.simulate", "decode_and_verify", "simulate.decode_s"),
    ("simulate", "pdakit.simulate", "place", "simulate.place_s"),
    ("simulate", "pdakit.simulate", "run_simulation", None),
    ("simulate", "pdakit.simulate", "PacketStore.synthetic",
     "simulate.store_s"),
    ("simulate", "pdakit.simulate", "PacketStore.file_hash",
     "simulate.store_s"),
    ("simulate", "pdakit.simulate", "PacketStore.packet", "simulate.store_s"),
    ("analysis", "pdakit.analysis", "enumerate_schemes",
     "analysis.enumerate_s"),
    ("analysis", "pdakit.analysis", "compare_general", "analysis.compare_s"),
    ("analysis", "pdakit.analysis", "compare_special", "analysis.compare_s"),
    ("analysis", "pdakit.analysis", "memory_share", None),
    ("analysis", "pdakit.analysis", "estimate_m_range", None),
    ("cli", "pdakit.cli", "main", None),
)

TIME_METRICS = tuple(sorted(
    {f"{layer}.self_s" for layer in LAYERS}
    | {metric for _, _, _, metric in ENTRY_POINTS if metric}))

COUNT_METRICS = (
    "constructions.cells", "core.violations", "kernels.pair_scan_calls",
    "kernels.pairs", "kernels.violating_pairs", "textio.bytes",
    "simulate.transmissions", "simulate.terms", "simulate.bytes_sent",
    "simulate.bytes_gathered", "simulate.hash_bytes", "simulate.users_ok",
    "simulate.users", "analysis.theorem_params_calls", "analysis.rows",
    "cli.calls",
)

# span fields, in the order they are stored and written out
SPAN_FIELDS = ("name", "layer", "metric", "start", "end", "parent", "item")
_NAME, _LAYER, _METRIC, _START, _END, _PARENT, _ITEM = range(7)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counters run after the span closes and see its arguments and result.
# Values marked "computed" are derived from the inputs, not observed.

def _count_construct(tracer, args, kwargs, arr):
    if not tracer.enclosed_by(metric="constructions.construct_s"):
        tracer.counts["constructions.cells"] += arr.f * arr.k


def _count_theorem_params(tracer, args, kwargs, result):
    if tracer.enclosed_by(layer="analysis"):
        tracer.counts["analysis.theorem_params_calls"] += 1


def _count_verify(tracer, args, kwargs, report):
    tracer.counts["core.violations"] += len(report.violations)


def _count_pair_scan(tracer, args, kwargs, result):
    sizes = np.diff(np.asarray(_arg(args, kwargs, 3, "starts")))
    tracer.counts["kernels.pair_scan_calls"] += 1
    tracer.counts["kernels.pairs"] += int((sizes * (sizes - 1) // 2).sum())
    tracer.counts["kernels.violating_pairs"] += len(result)


def _count_emit(tracer, args, kwargs, text):
    tracer.counts["textio.bytes"] += len(text)


def _count_parse(tracer, args, kwargs, result):
    if not tracer.enclosed_by(names=("parse", "parse_with_header")):
        tracer.counts["textio.bytes"] += len(_arg(args, kwargs, 0, "text"))


def _terms_gathered(tracer, arr, store):
    # computed: one term, and one gathered packet, per non-star cell
    terms = int(np.count_nonzero(arr.grid))
    tracer.counts["simulate.bytes_gathered"] += terms * store.packet_size
    return terms


def _count_deliver(tracer, args, kwargs, log):
    store = _arg(args, kwargs, 1, "store")
    terms = _terms_gathered(tracer, _arg(args, kwargs, 0, "arr"), store)
    tracer.counts["simulate.terms"] += terms
    tracer.counts["simulate.bytes_sent"] += log.bytes_sent
    tracer.counts["simulate.transmissions"] += (
        log.bytes_sent // store.packet_size)


def _count_decode(tracer, args, kwargs, report):
    arr = _arg(args, kwargs, 0, "arr")
    store = _arg(args, kwargs, 1, "store")
    if not report.problems:
        _terms_gathered(tracer, arr, store)
    decoded = sum(u.decoded_hash is not None for u in report.users)
    # computed: each decoded file is hashed once, F packets of P bytes
    tracer.counts["simulate.hash_bytes"] += (
        decoded * arr.f * store.packet_size)
    tracer.counts["simulate.users"] += len(report.users)
    tracer.counts["simulate.users_ok"] += sum(u.ok for u in report.users)


def _count_file_hash(tracer, args, kwargs, result):
    store = args[0]
    tracer.counts["simulate.hash_bytes"] += store.f * store.packet_size


def _count_enumerate(tracer, args, kwargs, rows):
    tracer.counts["analysis.rows"] += len(rows)


def _count_cli(tracer, args, kwargs, result):
    tracer.counts["cli.calls"] += 1


COUNTERS = {
    "construct": _count_construct,
    "construct_general": _count_construct,
    "construct_special": _count_construct,
    "construct_ext_general": _count_construct,
    "construct_ext_special": _count_construct,
    "construct_mn": _count_construct,
    "theorem_params": _count_theorem_params,
    "verify_pda": _count_verify,
    "c3_pair_scan": _count_pair_scan,
    "emit": _count_emit,
    "parse": _count_parse,
    "parse_with_header": _count_parse,
    "deliver": _count_deliver,
    "decode_and_verify": _count_decode,
    "PacketStore.file_hash": _count_file_hash,
    "enumerate_schemes": _count_enumerate,
    "main": _count_cli,
}


class Tracer:
    """Records spans and counters while installed and recording."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item: str | None = None
        self.recording = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for _, modname, _, _ in ENTRY_POINTS:
            importlib.import_module(modname)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "pdakit" or name.startswith("pdakit.")]
        for layer, modname, attr, metric in ENTRY_POINTS:
            owner = sys.modules[modname]
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(owner, owner_name, None)
            raw = vars(owner).get(member) if owner is not None else None
            if raw is None:
                continue  # entry point absent from this version
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap(layer, attr, metric, raw.__func__))
                self._patch(owner, member, wrapped)
                continue
            if inspect.isgeneratorfunction(raw):
                continue  # a span would close before the work is done
            wrapped = self._wrap(layer, attr, metric, raw)
            if owner_name:
                self._patch(owner, member, wrapped)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap(self, layer, name, metric, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, layer, metric, 0.0, 0.0,
                    stack[-1] if stack else -1, tracer.item]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    # -- recording ----------------------------------------------------

    @contextlib.contextmanager
    def recording_item(self, item: str):
        self.item, self.recording = item, True
        try:
            yield
        finally:
            self.item, self.recording = None, False

    def enclosed_by(self, *, names=(), metric=None, layer=None) -> bool:
        """Whether an open span matches; counters call it after their span
        closed, so the stack holds only the enclosing spans."""
        for idx in self._stack:
            span = self.spans[idx]
            if (span[_NAME] in names or span[_METRIC] == metric
                    or span[_LAYER] == layer):
                return True
        return False

    def mark(self) -> tuple[int, Counter]:
        """A position to summarize from: span index and a counter copy."""
        return len(self.spans), Counter(self.counts)

    def summarize(self, since: tuple[int, Counter]) -> dict[str, float]:
        """Self time per layer and entry-point metric, plus counters."""
        first, counts_before = since
        spans = self.spans[first:]
        self_time = [s[_END] - s[_START] for s in spans]
        for s in spans:
            if s[_PARENT] >= first:
                self_time[s[_PARENT] - first] -= s[_END] - s[_START]
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for s, t in zip(spans, self_time):
            out[f"{s[_LAYER]}.self_s"] += t
            if s[_METRIC]:
                out[s[_METRIC]] += t
        for name in COUNT_METRICS:
            out[name] = self.counts[name] - counts_before[name]
        out["trace.spans"] = len(spans)
        return out

    def layers_seen(self, since: tuple[int, Counter]) -> set[str]:
        return {s[_LAYER] for s in self.spans[since[0]:]}

    def export(self) -> dict:
        rows = [[s[_NAME], s[_LAYER], s[_METRIC], s[_START] - self._t0,
                 s[_END] - self._t0, s[_PARENT], s[_ITEM]]
                for s in self.spans]
        return {"span_fields": list(SPAN_FIELDS), "spans": rows}


def layer_probe(pk, path) -> list[str]:
    """One small call through every layer; returns problems found.

    Each traced pass opens with it, so that a wrapper which no longer
    fires (a renamed entry point) is caught instead of reading as zero,
    and a layer that does no work in a workload reads near zero, not a
    constant zero.
    """
    problems = []
    arr = pk.construct_special(2, 1, 1)
    text = pk.emit(arr)
    if pk.parse(text) != arr or not pk.verify_pda(arr).valid:
        problems.append("probe: array did not survive emit/parse/verify")
    pk.canonicalize(arr)
    params = pk.params_of(arr)
    store = pk.PacketStore.synthetic(arr.k, arr.f, 8, seed=0)
    if not pk.run_simulation(arr, store, [1] * arr.k).success:
        problems.append("probe: decode failed")
    if not pk.enumerate_schemes(params.k, params.ratio):
        problems.append("probe: enumeration found no scheme")
    pk.compare_special(4, 2, 0.5)
    path.write_text(text, encoding="ascii")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = pk.cli.main(["verify", str(path)])
    if code != 0:
        problems.append(f"probe: cli verify exited {code}")
    return problems


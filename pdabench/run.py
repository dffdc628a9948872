#!/usr/bin/env python3
"""pdakit benchmark: run one workload and print its metrics.

    python3 pdabench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of bulk-demands, file-roundtrip.
--trace 0 prints the end-to-end metrics; --trace 1 runs passes alternately
without and with the span tracer and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
only when every item passed its correctness check.  Results, and in traced
runs every span, are written under .pdabench/ at the repository root.
--tiny shrinks every workload for the smoke tests.  See NOTES.md.
"""

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".pdabench"
# set-up repeats: at least the minimum count, and enough to fill the
# minimum time, so that short set-ups still give a steady median
SETUP_REPEATS = (3, 15)
SETUP_MIN_SECONDS = 2.0
TAIL_ITEMS_BEYOND = 10

END_TO_END_UNITS = {"wall_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BYTE_COUNTS = {"textio.bytes", "simulate.bytes_sent",
               "simulate.bytes_gathered", "simulate.hash_bytes"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken inputs, for the smoke tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import pdakit from this checkout's sources, never from elsewhere."""
    # The load is one caller in a closed loop; size the native thread pools
    # to one thread, before numpy loads, so they do not compete with it.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "pdakit" / "__init__.py").is_file():
        sys.exit(f"pdabench: pdakit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import pdakit
    if not Path(pdakit.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"pdabench: imported pdakit from {pdakit.__file__}")
    import tracing
    import workloads
    return pdakit, tracing, workloads


class Tally:
    """Correctness outcomes: items attempted, failed, and their problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_item(item, tally, tracer=None) -> float:
    """Run one item, check its output, return the seconds run() took."""
    recording = (tracer.recording_item(item.id) if tracer
                 else contextlib.nullcontext())
    start = time.perf_counter()
    try:
        with recording:
            out = item.run()
        elapsed = time.perf_counter() - start
        problems = item.check(out)
    except Exception:  # a failing item is counted, the run goes on
        elapsed = time.perf_counter() - start
        problems = [f"{item.id}: raised\n{traceback.format_exc()}"]
    tally.add(problems)
    return elapsed


def setup(workload, args, scratch, tally, tracer=None):
    """Build the inputs and run the warm-up item; returns (prepared, s)."""
    gc.collect()
    start = time.perf_counter()
    if tracer is None:
        prepared = workload.setup(args.seed, args.tiny, scratch)
    else:
        with tracer.recording_item("setup"):
            prepared = workload.setup(args.seed, args.tiny, scratch)
    run_item(prepared.warmup, tally, tracer)
    return prepared, time.perf_counter() - start


def min_passes(workload, items_per_pass: int) -> int:
    """Passes every run makes: the workload's floor, and enough items for
    a tail percentile at or above the median."""
    return max(workload.min_passes,
               math.ceil(2 * TAIL_ITEMS_BEYOND / items_per_pass))


def tail_percentile(min_items: int) -> int:
    """Highest percentile with TAIL_ITEMS_BEYOND items beyond it in every
    run; fixed per workload so that runs stay comparable."""
    return math.floor(100 * (1 - TAIL_ITEMS_BEYOND / min_items))


def nearest_rank(sorted_values, pct: int) -> float:
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def timed_passes(prepared, workload, args, tally, tracer, pk, tracing,
                 scratch):
    """Run whole passes until --seconds is used up; in a traced run every
    second pass is traced.  Returns one record per pass."""
    passes = []
    start = time.perf_counter()
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        items = prepared.make_pass(n)
        gc.collect()
        record = {"traced": traced, "ids": [item.id for item in items],
                  "items": []}
        if traced:
            tracer.install()
            mark = tracer.mark()
            with tracer.recording_item(f"probe#{n}"):
                probe_problems = tracing.layer_probe(pk, scratch / "probe.pda")
            missing = set(tracing.LAYERS) - tracer.layers_seen(mark)
            if missing:
                probe_problems.append(
                    f"probe: no span recorded for {sorted(missing)}")
            tally.add(probe_problems)
        pass_start = time.perf_counter()
        for item in items:
            record["items"].append(
                run_item(item, tally, tracer if traced else None))
        record["wall_s"] = time.perf_counter() - pass_start
        if traced:
            record["layers"] = tracer.summarize(mark)
            tracer.uninstall()
        passes.append(record)
        n += 1
        elapsed = time.perf_counter() - start
        if (n >= max(min_passes(workload, len(items)), 2 if tracer else 1)
                and elapsed + record["wall_s"] > args.seconds):
            return passes


def typical_pass_s(passes) -> float:
    """A pass made of each item's median time over the passes: the median
    pass, except that a spike in one item does not move it."""
    by_item = {}
    for p in passes:
        for item_id, seconds in zip(p["ids"], p["items"]):
            by_item.setdefault(item_id.rsplit("#", 1)[0], []).append(seconds)
    return sum(statistics.median(times) for times in by_item.values())


def end_to_end_metrics(passes, setup_times, workload, meta):
    times = sorted(t for p in passes for t in p["items"])
    items_per_pass = len(passes[0]["items"])
    pct = tail_percentile(min_passes(workload, items_per_pass)
                          * items_per_pass)
    meta.update(tail_percentile=pct, items=len(times),
                items_per_pass=items_per_pass)
    values = {
        "wall_s": typical_pass_s(passes),
        "item_p50_ms": statistics.median(times) * 1e3,
        "item_tail_ms": nearest_rank(times, pct) * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def per_layer_metrics(passes, setup_layers, tracing):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    first = traced[0]["layers"]
    values = {}
    for name in tracing.TIME_METRICS:
        values[name] = (statistics.median(p["layers"][name] for p in traced),
                        "s")
    for name in (*tracing.COUNT_METRICS, "trace.spans"):
        # counts of the first traced pass, so that they repeat exactly for
        # a seed however many passes fit in the run
        values[name] = (first[name],
                        "bytes" if name in BYTE_COUNTS else "count")
    values["setup.constructions_s"] = (
        setup_layers["constructions.self_s"], "s")
    overhead = (statistics.median(p["wall_s"] for p in traced)
                / statistics.median(p["wall_s"] for p in plain) - 1)
    values["trace.overhead_pct"] = (100 * overhead, "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}


def layer_shares(passes, tracing):
    """Each layer's share of the traced item time, for the notes."""
    traced = [p for p in passes if p["traced"]]
    item_time = sum(sum(p["items"]) for p in traced)
    return {layer: sum(p["layers"][f"{layer}.self_s"] for p in traced)
            / item_time for layer in tracing.LAYERS}


def metadata(args, pk, np, prepared):
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "numpy": np.__version__,
        "pdakit": pk.__version__, "kernel_backend": pk.kernel_backend(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "system": platform.platform(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "sizes": prepared.sizes,
    }


def measure(args, pk, tracing, workloads, scratch):
    import numpy as np

    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()
    tracer = tracing.Tracer() if args.trace else None
    setup_times = []
    if tracer is None:
        least, most = SETUP_REPEATS
        while len(setup_times) < least or (
                sum(setup_times) < SETUP_MIN_SECONDS
                and len(setup_times) < most):
            prepared = None  # release the previous inputs first
            prepared, seconds = setup(workload, args, scratch, tally)
            setup_times.append(seconds)
    else:
        tracer.install()
        mark = tracer.mark()
        prepared, seconds = setup(workload, args, scratch, tally, tracer)
        setup_layers = tracer.summarize(mark)
        tracer.uninstall()
        setup_times.append(seconds)

    passes = timed_passes(prepared, workload, args, tally, tracer, pk,
                          tracing, scratch)
    meta = metadata(args, pk, np, prepared)
    meta.update(setup_runs_s=setup_times,
                pass_wall_s=[p["wall_s"] for p in passes],
                pass_item_s=[p["items"] for p in passes],
                passes_traced=[p["traced"] for p in passes])
    if tracer is None:
        metrics = end_to_end_metrics(passes, setup_times, workload, meta)
    else:
        metrics = per_layer_metrics(passes, setup_layers, tracing)
        meta["layer_share_of_item_time"] = layer_shares(passes, tracing)
    meta["fail_ratio"] = tally.failed / tally.attempted

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "result": result, "problems": tally.problems[:50]},
        indent=1))
    if tracer is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(
            {"meta": meta, **tracer.export()}))
    return meta, result, tally


def main(argv=None) -> int:
    args = parse_args(argv)
    pk, tracing, workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"pdabench: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"scratch-{os.getpid()}"
    scratch.mkdir()
    try:
        meta, result, tally = measure(args, pk, tracing, workloads, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in tally.problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(f"{args.workload}: {tally.attempted} items, {tally.failed} failed "
          f"(fail_ratio {meta['fail_ratio']})")
    for name, m in result["metrics"].items():
        value = m["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:32} {shown} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

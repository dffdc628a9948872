"""Smoke tests of the benchmark itself: python3 -m pytest pdabench -q

Every workload runs at --tiny size.  The tests check the output schema
against BENCHMARK.json, that the per-layer counts repeat exactly for the
same seed, that the correctness checks reject wrong outputs, and that the
runner fails cleanly where the program's sources are missing.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pdakit as pk  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
COUNT_UNITS = {"count", "bytes"}


def bench(workload, seed, trace, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "pdabench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0.5", "--trace",
         str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=root)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def assert_schema(metrics, spec_metrics):
    assert set(metrics) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        got = metrics[m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_benchmark_names_the_runner_workloads():
    assert WORKLOADS == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_schema(workload):
    metrics = result_of(bench(workload, 7, 0))["metrics"]
    assert_schema(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat_for_a_seed(workload):
    first, second = (result_of(bench(workload, 7, 1))["metrics"]
                     for _ in range(2))
    assert_schema(first, SPEC["per_layer"])
    counts = {m["name"] for m in SPEC["per_layer"]
              if m["unit"] in COUNT_UNITS}
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    # every layer did traced work, if only the probe's
    for layer in ("constructions", "core", "kernels", "textio", "simulate",
                  "analysis", "cli"):
        assert first[f"{layer}.self_s"]["value"] > 0


def test_decode_check_rejects_wrong_reports(tmp_path):
    prepared = workloads.setup_bulk_demands(0, True, tmp_path)
    item = prepared.warmup
    report = item.run()
    assert item.check(report) == []
    for wrong in (dataclasses.replace(report, success=False),
                  dataclasses.replace(report, bytes_sent=1),
                  dataclasses.replace(report, rate=report.rate + 1)):
        assert item.check(wrong)


def test_roundtrip_check_rejects_wrong_output(tmp_path):
    item = workloads.setup_file_roundtrip(0, True, tmp_path).warmup
    code, (verified, text) = item.run()
    assert item.check((code, (verified, text))) == []
    assert item.check((0, (1, text)))
    assert item.check((0, (0, text.replace("valid", "invalid"))))


def test_table_checks_reject_wrong_output():
    item = workloads._table_iii_item("table-iii")
    code, text = item.run()
    assert item.check((code, text)) == []
    assert item.check((1, text))
    assert item.check((code, text.rsplit("\n", 2)[0] + "\n"))
    for preset, t, lam in workloads.TABLES_IV_V:
        item = workloads._table_item(preset, preset, t, lam)
        code, text = item.run()
        assert item.check((code, text)) == []
        header, first, rest = text.split("\n", 2)
        wrong = first.rsplit(",", 1)[0] + ",0.5"
        assert item.check((code, "\n".join((header, wrong, rest))))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "pdabench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("file-roundtrip", 1, 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_probe_reaches_every_layer(tmp_path):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        with tracer.recording_item("probe"):
            assert tracing.layer_probe(pk, tmp_path / "probe.pda") == []
        assert tracer.layers_seen(mark) == set(tracing.LAYERS)
    finally:
        tracer.uninstall()
    assert pk.deliver.__module__ == "pdakit.simulate"
    assert not hasattr(pk.deliver, "__wrapped__")

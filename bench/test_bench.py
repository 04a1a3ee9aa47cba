"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import ops  # noqa: E402
import run  # noqa: E402
from tracer import ROOT as ROOT_SPAN, TRACED, Tracer  # noqa: E402

from spherefit import approx, experiments  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _smoke_op(workload, tmp_path, op_index=0):
    return ops.build_inputs(ops.make_spec(workload, 3, True, tmp_path), 0, op_index)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_workload_table_matches_benchmark_json():
    assert sorted(WORKLOADS) == sorted(ops.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_op_reaches_its_layers(workload, tmp_path):
    # fresh children, so the package caches start cold as in a benchmark run
    layers = []
    for i in range(2):
        record = run.run_child(tmp_path, f"op{i}", _smoke_op(workload, tmp_path, op_index=i), traced=True)
        assert record["ok"], record.get("error")
        layers.append(record["layers"])
    called = {f"{m}.{f}" for m, f in TRACED if layers[0][f"{m}.{f}.calls"] > 0}
    assert called == ops.REACHES[ops.WORKLOADS[workload]["kind"]]
    assert layers[0]["params.balancing_principle.steps"] >= layers[0]["params.balancing_principle.calls"]
    if workload == "exp3-search":
        assert 0 < layers[0]["params.kernel_select.candidates"] < layers[0]["params.balancing_principle.calls"]

    # the counts repeat exactly for the same inputs
    counts = [{k: v for k, v in lay.items() if not k.endswith("_s")} for lay in layers]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up(workload, tmp_path, monkeypatch):
    # the smoke exp3 shrinks the constants table; keep that out of other tests
    monkeypatch.setattr(experiments, "DEFAULTS", dict(experiments.DEFAULTS))
    op = _smoke_op(workload, tmp_path)
    fn = ops.prepare(op)
    tracer = Tracer()
    tracer.install()
    try:
        result = tracer.call(ROOT_SPAN, fn)
    finally:
        tracer.uninstall()
    assert not hasattr(approx.analyze, "__wrapped__")
    assert 0.0 <= ops.check(op, result) < 1.0

    root = tracer.spans[0]
    assert root.name == ROOT_SPAN and root.parent is None
    assert all(s.parent is not None for s in tracer.spans[1:])
    assert all(t >= -1e-9 for t in tracer.self_times())
    assert sum(tracer.self_times()) == pytest.approx(root.end - root.start, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1 + trace
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_timed_out_op_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OP_TIME_LIMIT_S", 0.01)
    record = run.run_child(tmp_path, "op0", _smoke_op("fit-grid-m30", tmp_path))
    assert not record["ok"] and "timed out" in record["error"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

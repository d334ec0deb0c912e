"""Tests of the benchmark harness itself, on the tiny ``--smoke`` inputs.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from bruhatkit import fflab  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()}
    assert _declared("end_to_end") == dict(run.END_TO_END)
    assert _declared("per_layer") == dict(tracing.metric_names())
    # the layer map names only metrics and workloads the benchmark has
    for layer in tracing.LAYERS:
        assert set(layer.moves) <= set(_declared("end_to_end")), layer.name
        assert set(layer.on) | set(layer.unchanged_on) <= set(run.WORKLOADS), layer.name


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    details = json.loads(proc.stdout.splitlines()[-2])
    assert details["fail_frac"] == 0
    assert details["environment"]["seed"] == 3
    assert details["environment"]["numpy"] and details["environment"]["nproc"] >= 1


@pytest.mark.parametrize("workload", ["propd_sp4_q35", "exact_q"])
def test_traced_smoke_run_emits_every_per_layer_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    details = json.loads(proc.stdout.splitlines()[-2])
    assert set(details["layer_status"].values()) == {"present"}
    layer = "fflab.orbits" if workload == "propd_sp4_q35" else "cells.decompose"
    assert result["metrics"][f"{layer}.calls"]["value"] > 0
    assert (ROOT / details["spans_file"]).is_file()


def _corrupt(sample, key):
    envelope = sample.envelope
    if key == "stdout" and key in envelope:
        envelope[key] = envelope[key].replace('"all_match": true', '"all_match": false', 1)
    elif key in ("enumerated", "distinct") and key in envelope:
        envelope[key] -= 1
    elif key == "digest" and key in envelope:
        envelope[key] = "0" * 64
    return sample


@pytest.mark.parametrize("workload, key", [("table_sl3_q5", "stdout"), ("exact_q", "enumerated"),
                                           ("exact_q", "distinct"), ("exact_q", "digest")])
def test_corrupted_output_counts_as_a_failed_run(workload, key, tmp_path, monkeypatch):
    spawn = run.spawn
    monkeypatch.setattr(run, "spawn", lambda task, *a, **k: _corrupt(spawn(task, *a, **k), key))
    w = run.WORKLOADS[workload]
    result, details = run.measure(w, w.smoke, 3, 0, False, tmp_path)
    assert result["attempted"] == result["failed"] == 1
    assert not result["correct"]
    assert details["fail_frac"] == 1
    assert "digest" in details["failures"][0] if key == "stdout" else key in details["failures"][0]


def test_missing_hooks_are_reported_absent(monkeypatch):
    # as after a change that renames the closure, deletes a module and
    # changes a return type (an int has no length)
    monkeypatch.delattr(fflab, "_mulclose")
    gone = tracing.Layer("gone", (tracing.Hook("no_such_module", "f"),))
    changed = tracing.Layer("changed", (tracing.Hook("fflab", "_primitive_root",
                                                     items=tracing._len_result),))
    tracer = tracing.Tracer(layers=tracing.LAYERS + (gone, changed))
    tracer.install()
    try:
        assert fflab.count_unipotents(fflab.GroupKind("SL", 2), 3) == 9
        assert fflab._primitive_root(7) == 3
    finally:
        tracer.uninstall()
    report = tracer.report()
    assert report["status"]["fflab.closure"] == "absent"
    assert report["status"]["gone"] == "absent"
    assert report["missing_hooks"]["fflab.closure"] == ["fflab._mulclose"]
    assert report["uncounted_hooks"] == {"changed": ["fflab._primitive_root"]}
    assert report["metrics"]["changed.calls"] == 1
    assert report["metrics"]["changed.items"] == 0
    assert report["metrics"]["fflab.closure.calls"] == 0
    assert report["metrics"]["fflab.census.calls"] == 1
    assert report["metrics"]["fflab.census.items"] == 9
    assert not hasattr(fflab.count_unipotents, "__wrapped__")


def test_tracer_counts_every_call_from_many_threads():
    layer = tracing.Layer("t", (tracing.Hook("fflab", "_primitive_root"),))
    tracer = tracing.Tracer(layers=(layer,))
    tracer.install()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [fflab._primitive_root(7) for _ in range(500)])
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        tracer.uninstall()
    report = tracer.report()
    assert report["metrics"]["t.calls"] == 4000
    assert len(report["spans"]) == 4000


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    start = time.monotonic()
    proc = _bench("--workload", "exact_q", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert time.monotonic() - start < 60


def test_speed_sampler_sees_the_child_and_pins_only_its_own_thread():
    affinity = os.sched_getaffinity(0)
    child = subprocess.Popen([sys.executable, "-c", "sum(i * i for i in range(3_000_000))"])
    sampler = run.SpeedSampler(child.pid)
    try:
        child.wait(timeout=60)
    finally:
        loop_s = sampler.stop()
    assert 0 < loop_s < 1
    assert any(child_on for _, child_on in sampler.ticks)
    assert os.sched_getaffinity(0) == affinity

"""Tiny runs of every workload: metric names, units and answer checks."""

import json
import shutil
import subprocess
import sys
from multiprocessing import shared_memory

import pytest

from conftest import BENCH, ROOT

import harness
import library
import metrics
import serve_mix

WORKLOADS = ("loocv_serial", "knn_parallel", "serve_mix")


def _run(workload, trace, inject_wrong=0, seconds=2.0):
    module = serve_mix if workload == "serve_mix" else library
    return module.run(workload, 7, seconds, trace, harness.program_root(),
                      inject_wrong=inject_wrong)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_its_unit(at_root, workload, trace):
    result, info = _run(workload, trace)
    names = metrics.layer_names() if trace else metrics.e2e_names()
    assert list(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert metric["unit"] == metrics.UNITS[name]
        assert isinstance(metric["value"], float)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == info["ops"] >= 1
    assert info["leaked_segments"] == []
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
        assert result["metrics"]["setup_s"]["value"] > 0.0


@pytest.mark.parametrize("workload", ["loocv_serial", "serve_mix"])
def test_injected_wrong_answer_raises_fail_ratio(at_root, workload):
    result, info = _run(workload, True, inject_wrong=3)
    assert info["wrong"] == 3
    assert result["correct"] is False
    assert result["failed"] >= 3
    assert result["metrics"]["fail_ratio"]["value"] > 0.0


def test_errors_count_as_failed_ops():
    reference = {0: "a", 1: "b"}
    records = [[0, 1.0, "a", None], [1, 2.0, None, "BufferError: boom"]]
    tally = library.check(records, reference)
    assert (tally["errors"], tally["wrong"]) == (1, 0)
    assert tally["ok_latencies"] == [1.0]


def test_leaked_segment_is_detected():
    before = harness.shm_segments()
    segment = shared_memory.SharedMemory(create=True, size=16)
    try:
        assert harness.leaked_segments(before) == [segment.name]
    finally:
        segment.close()
        segment.unlink()
    assert harness.leaked_segments(before) == []


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "loocv_serial",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

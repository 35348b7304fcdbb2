"""Schema smoke tests for the kernel bench reports.

``python -m repro kernels`` writes ``BENCH_kernels.json`` from
:func:`repro.timing.kernel_bench.kernel_benchmark`, ``kernels --warm``
writes ``BENCH_batch.json`` from
:func:`~repro.timing.kernel_bench.executor_benchmark`, and
``kernels --nd`` writes ``BENCH_multivariate.json`` from
:func:`~repro.timing.kernel_bench.multivariate_benchmark`; downstream
tooling (the CI speedup gates, the README table) reads specific keys
at full float precision, so the emitted schema is a contract.  The
workloads here are tiny -- the timings are meaningless, only the shape
and types of the reports matter.
"""

import json
import math
import os

import pytest

pytest.importorskip("numpy")

from repro.timing.kernel_bench import (  # noqa: E402
    executor_benchmark,
    format_executor_report,
    format_report,
    kernel_benchmark,
    multivariate_benchmark,
)

TIMING_LABELS = (
    "python_serial", "python_workers_cold", "python_workers_warm",
    "numpy_serial", "numpy_workers_cold", "numpy_workers_warm",
)

CHUNK_STAT_KEYS = (
    "sched_chunks", "kernel_calls", "groups",
    "stacked_pairs", "pad_rows", "pad_waste_fraction",
)


@pytest.fixture(scope="module")
def report():
    return executor_benchmark(
        length=32, count=4, window=0.2, workers=2, repeats=1, seed=0
    )


class TestExecutorReportSchema:
    def test_top_level_keys(self, report):
        for key in (
            "benchmark", "note", "cpu_count", "workload", "timings",
            "speedups_over_python_serial",
            "warm_python_speedup_over_serial",
            "warm_numpy_speedup_over_numpy_serial",
            "chunk_stats", "parity",
        ):
            assert key in report

    def test_timing_rows(self, report):
        assert set(report["timings"]) == set(TIMING_LABELS)
        for row in report["timings"].values():
            assert row["seconds"] > 0
            assert row["per_pair_seconds"] > 0

    def test_warm_speedups_are_full_precision_floats(self, report):
        for key in (
            "warm_python_speedup_over_serial",
            "warm_numpy_speedup_over_numpy_serial",
        ):
            value = report[key]
            assert type(value) is float
            assert math.isfinite(value) and value > 0
        for value in report["speedups_over_python_serial"].values():
            assert type(value) is float

    def test_chunk_stats_schema(self, report):
        cs = report["chunk_stats"]
        assert set(cs) == set(CHUNK_STAT_KEYS)
        pairs = report["workload"]["pairs"]
        assert cs["stacked_pairs"] == pairs
        assert cs["kernel_calls"] == cs["groups"] >= 1
        assert cs["sched_chunks"] >= 1
        assert cs["pad_rows"] >= 0
        waste = cs["pad_waste_fraction"]
        assert 0.0 <= waste < 1.0
        assert waste == cs["pad_rows"] / (
            cs["stacked_pairs"] + cs["pad_rows"]
        )

    def test_cpu_count_recorded(self, report):
        assert isinstance(report["cpu_count"], int)
        assert report["cpu_count"] >= 1
        if report["cpu_count"] < 2:
            assert "cpu_count=1" in report["note"]

    def test_single_core_note_round_trips(self, monkeypatch):
        """The cpu_count<2 limitation note survives the JSON contract.

        On a single-core runner the worker rows time-share one core, so
        the report appends an explanatory sentence to ``note``; the CLI
        writes the report verbatim, so the sentence must survive a JSON
        round trip byte-for-byte for downstream readers.
        """
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        report = executor_benchmark(
            length=32, count=4, window=0.2, workers=2, repeats=1, seed=0
        )
        assert report["cpu_count"] == 1
        assert "This run had cpu_count=1" in report["note"]
        assert "time-share one core" in report["note"]
        rebuilt = json.loads(json.dumps(report))
        assert rebuilt["note"] == report["note"]
        assert rebuilt["cpu_count"] == 1

    def test_parity_holds_on_smoke_workload(self, report):
        assert report["parity"]["distances_identical"] is True
        assert report["parity"]["cells_identical"] is True

    def test_json_round_trip_preserves_floats(self, report):
        rebuilt = json.loads(json.dumps(report))
        assert (
            rebuilt["warm_numpy_speedup_over_numpy_serial"]
            == report["warm_numpy_speedup_over_numpy_serial"]
        )
        assert rebuilt["chunk_stats"] == report["chunk_stats"]

    def test_format_mentions_chunk_stats(self, report):
        text = format_executor_report(report)
        assert "stacked kernel calls" in text
        assert "pad waste" in text


ND_TIMING_LABELS = (
    "python_serial", "numpy_serial", "python_workers", "numpy_workers",
)


@pytest.fixture(scope="module")
def nd_report():
    return multivariate_benchmark(
        length=16, count=4, window=0.2, workers=2, repeats=1, seed=0,
        dims=2,
    )


class TestMultivariateReportSchema:
    """``python -m repro kernels --nd`` writes this report verbatim
    (``BENCH_multivariate.json``)."""

    def test_top_level_keys(self, nd_report):
        assert nd_report["benchmark"] == (
            "repro.timing.kernel_bench/multivariate"
        )
        for key in (
            "note", "cpu_count", "workload", "timings",
            "speedups_over_python_serial", "single_pair", "parity",
        ):
            assert key in nd_report

    def test_cpu_count_recorded(self, nd_report):
        assert type(nd_report["cpu_count"]) is int
        assert nd_report["cpu_count"] == (os.cpu_count() or 1)

    def test_workload_records_the_shape(self, nd_report):
        w = nd_report["workload"]
        assert (w["count"], w["length"], w["dims"]) == (4, 16, 2)
        assert w["pairs"] == 4 * 3 // 2
        assert w["measure"] == "cdtw_d"

    def test_timing_rows(self, nd_report):
        assert tuple(nd_report["timings"]) == ND_TIMING_LABELS
        for row in nd_report["timings"].values():
            assert row["seconds"] > 0
            assert row["per_pair_seconds"] > 0
        assert set(nd_report["speedups_over_python_serial"]) == set(
            ND_TIMING_LABELS[1:]
        )

    def test_parity_holds(self, nd_report):
        assert nd_report["parity"] == {
            "distances_identical": True, "cells_identical": True,
        }
        assert nd_report["single_pair"]["identical"] is True

    def test_format_names_channels_and_parity(self, nd_report):
        text = format_report(nd_report)
        assert "cdtw_d" in text and "d=2" in text
        assert "bit-identical across backends" in text

    def test_serial_plan_has_no_worker_rows(self):
        report = multivariate_benchmark(
            length=8, count=2, workers=1, repeats=1, dims=2
        )
        assert tuple(report["timings"]) == ND_TIMING_LABELS[:2]

    @pytest.mark.parametrize("bad, match", [
        ({"count": 1}, "count"),
        ({"length": 1}, "length"),
        ({"workers": 0}, "workers"),
        ({"repeats": 0}, "repeats"),
        ({"dims": 1}, "dims"),
    ], ids=["count", "length", "workers", "repeats", "dims"])
    def test_rejects_bad_workload(self, bad, match):
        with pytest.raises(ValueError, match=match):
            multivariate_benchmark(**{"length": 8, "count": 2, **bad})


class TestKernelReportSchema:
    """``python -m repro kernels`` writes this report verbatim
    (``BENCH_kernels.json``)."""

    @pytest.fixture(scope="class")
    def kernel_report(self):
        return kernel_benchmark(
            length=16, count=3, window=0.2, workers=1, repeats=1
        )

    def test_cpu_count_recorded(self, kernel_report):
        assert type(kernel_report["cpu_count"]) is int
        assert kernel_report["cpu_count"] == (os.cpu_count() or 1)

    def test_single_pair_row_matches_the_engine(self, kernel_report):
        # the numpy row times the per-pair route, a one-pair stack
        assert kernel_report["single_pair"]["identical"] is True

"""Parent side of the two library workloads: loocv_serial, knn_parallel.

The parent makes the inputs and their reference answers (untimed),
hands the inputs to fresh program processes (:mod:`program`), and
checks every answer that comes back.  The program process is the only
one measured: set-up from its first line, ops for ``--seconds``, peak
RSS over it and its pool workers.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, Tuple

import harness
import inputs as inputs_mod
import metrics

WORKLOADS = {
    "loocv_serial": (inputs_mod.loocv_inputs, inputs_mod.loocv_reference),
    "knn_parallel": (inputs_mod.knn_inputs, inputs_mod.knn_reference),
}


def _program(workload: str, mode: str, in_path: Path, out_path: Path,
             seconds: float, env, sample_rss: bool = False):
    argv = [sys.executable, str(harness.BENCH_DIR / "program.py"),
            workload, mode, str(in_path), str(out_path), repr(seconds)]
    peak = harness.run_program(
        argv, env, timeout=seconds * 1.5 + 60, sample_rss=sample_rss,
    )
    return harness.read_json(out_path), peak


def check(records, reference, inject_wrong: int = 0) -> Dict[str, object]:
    """Tally ``[key, latency_ms, answer, error]`` records against the
    reference; ``inject_wrong`` corrupts that many answers first (the
    check's own test)."""
    errors = wrong = 0
    ok_latencies = []
    first_error = None
    for n, (key, latency, answer, error) in enumerate(records):
        if error is not None:
            errors += 1
            first_error = first_error or error
            continue
        if n < inject_wrong:
            answer = ("wrong", answer)
        if answer != reference[key]:
            wrong += 1
            continue
        ok_latencies.append(latency)
    return {"errors": errors, "wrong": wrong, "ok_latencies": ok_latencies,
            "first_error": first_error}


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path, inject_wrong: int = 0) -> Tuple[Dict, Dict]:
    make, reference_of = WORKLOADS[workload]
    data = make(seed)
    reference = reference_of(data)
    scratch = harness.scratch_dir(root)
    in_path, out_path = scratch / "inputs.json", scratch / "out.json"
    harness.write_json(in_path, data)
    env = harness.child_env(root)

    shm_before = harness.shm_segments()
    host_before = harness.host_loop_ms()
    setups = []
    if trace:
        out, peak = _program(workload, "trace", in_path, out_path,
                             seconds, env)
    else:
        for _ in range(harness.SETUP_REPEATS - 1):
            setup, _ = _program(workload, "setup", in_path, out_path, 0.0,
                                env)
            setups.append(setup["setup_s"])
        out, peak = _program(workload, "run", in_path, out_path, seconds,
                             env, sample_rss=True)
    setups.append(out["setup_s"])
    host_after = harness.host_loop_ms()
    leaks = harness.leaked_segments(shm_before)

    records = out["records"]
    tally = check(records, reference, inject_wrong)
    attempted = len(records)
    failed = tally["errors"] + tally["wrong"] + len(leaks)
    info = {
        "workload": workload, "seed": seed, "ops": attempted,
        "errors": tally["errors"], "wrong": tally["wrong"],
        "leaked_segments": leaks, "first_error": tally["first_error"],
        "host_loop_ms_before": host_before, "host_loop_ms_after": host_after,
        "setup_samples_s": setups,
    }
    result = {
        "correct": tally["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        values = layer_metrics(workload, out, out["traced_ops"])
        values["fail_ratio"] = harness.ratio(failed, attempted)
        values["host.loop_ms"] = (host_before + host_after) / 2
        result["metrics"] = metrics.emit(values, metrics.layer_names())
    else:
        values = harness.latency_metrics(tally["ok_latencies"])
        values.update({
            "throughput_per_s": len(tally["ok_latencies"]) / out["wall_s"],
            "ok_ratio": 1.0 - harness.ratio(failed, attempted),
            "peak_rss_mb": peak,
            "setup_s": harness.median(setups),
        })
        info["p95_tail_samples"] = sum(
            1 for v in tally["ok_latencies"]
            if v > values["latency_p95_ms"]
        )
        result["metrics"] = metrics.emit(values, metrics.e2e_names())
    return result, info


def layer_metrics(workload: str, out: Dict, ops: int) -> Dict[str, float]:
    doc = out["trace"]
    values = metrics.trace_metrics(doc, ops)
    timers = doc["timers"]
    values["batch.pack_ms.p50"] = metrics.p50(timers["pack_ms"])
    values["batch.dispatch_ms.p50"] = metrics.p50(timers["dispatch_ms"])
    values["trace.overhead_frac"] = metrics.overhead(
        out["wall_s"], out["untraced_wall_s"])
    # the 1-NN route's outermost program span is ``knn``; the k-NN
    # route opens none in this process (its ``dp`` spans are merged from
    # the workers), so the benchmark's timer around batch_distances is
    # its outermost span
    if workload == "loocv_serial":
        covered = metrics.top_level_seconds(doc)
    else:
        covered = sum(timers["batch_distances_ms"]) / 1000.0
    values["trace.unaccounted_frac"] = 1.0 - harness.ratio(
        covered, out["wall_s"])
    return values

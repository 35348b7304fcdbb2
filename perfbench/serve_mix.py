"""The serve workload: ``python -m repro serve`` driven open-loop.

One client (this process) sends the seeded schedule over two NDJSON
connections at a fixed offered rate, whatever the server's progress, and
times each op from the moment it was *due*, so a stall is charged to
every op queued behind it.  Set-up is timed from process launch until
the server answers a ping, holds every dataset and has built every
index; it is repeated on fresh servers and the median reported.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Tuple

import harness
import inputs as inputs_mod
import metrics

HOST = "127.0.0.1"
CONNECTIONS = 2        # <= nproc on the 2-core reference host
LINE_LIMIT = 1 << 24   # client-side read limit (responses are small)
DRAIN_S = 30.0         # wait for answers after the last send


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Server:
    """One server process: launched, set up, measured, stopped."""

    def __init__(self, root: Path, traced: bool, out: Path):
        self.port = _free_port()
        if traced:
            argv = [sys.executable, str(harness.BENCH_DIR / "serve_host.py"),
                    str(out), "--port", str(self.port)]
        else:
            argv = [sys.executable, "-m", "repro", "serve",
                    "--port", str(self.port)]
        self.err_path = out.with_suffix(".err")
        self.started = time.perf_counter()
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                argv, env=harness.child_env(root), cwd=str(root),
                stdout=subprocess.DEVNULL, stderr=err,
                start_new_session=True,
            )
        self.sampler = harness.RssSampler(self.proc.pid).start()

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise harness.BenchError(
                    f"server exited {self.proc.returncode}: "
                    + self.err_path.read_text(errors="replace")[-300:]
                )
            try:
                with socket.create_connection((HOST, self.port), 0.5) as s:
                    s.sendall(b'{"admin": "ping"}\n')
                    if s.makefile().readline():
                        return
            except OSError:
                time.sleep(0.005)
        raise harness.BenchError("server never answered ping")

    def stop(self) -> float:
        """SIGINT (the server's own shutdown path); peak RSS in MiB."""
        peak = self.sampler.stop()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                harness.kill_group(self.proc)
                raise harness.BenchError("server ignored SIGINT")
        harness.reap_group(self.proc.pid)
        return peak


# -- the open-loop client ----------------------------------------------------


def _encode(request: Dict, rid: str) -> bytes:
    if "admin" not in request:
        request = dict(request, id=rid)
    return json.dumps(request).encode() + b"\n"


async def _drive(port: int, lines: List[bytes], due: List[float],
                 admin: List[bool]) -> List[Dict]:
    """Send ``lines[k]`` at ``start + due[k]``; collect every answer."""
    conns = [await asyncio.open_connection(HOST, port, limit=LINE_LIMIT)
             for _ in range(CONNECTIONS)]
    records: List[Dict] = [{} for _ in lines]
    waiting_admin = [deque() for _ in conns]
    outstanding = len(lines)
    done = asyncio.Event()

    async def read(c: int) -> None:
        nonlocal outstanding
        reader = conns[c][0]
        while outstanding:
            line = await reader.readline()
            if not line:
                return
            received = time.perf_counter()
            reply = json.loads(line)
            k = (int(reply["id"]) if "id" in reply
                 else waiting_admin[c].popleft())
            records[k].update(received=received, reply=reply)
            outstanding -= 1
            if not outstanding:
                done.set()

    readers = [asyncio.ensure_future(read(c)) for c in range(len(conns))]
    start = time.perf_counter() + 0.05
    for k, line in enumerate(lines):
        target = start + due[k]
        delay = target - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        c = k % len(conns)
        if admin[k]:
            waiting_admin[c].append(k)
        records[k].update(due=target, sent=time.perf_counter())
        conns[c][1].write(line)
        await conns[c][1].drain()
    try:
        await asyncio.wait_for(done.wait(), DRAIN_S)
    except asyncio.TimeoutError:
        pass
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for _, writer in conns:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    return records


def drive(port: int, requests: List[Dict], due: List[float]) -> List[Dict]:
    lines = [_encode(r, str(k)) for k, r in enumerate(requests)]
    admin = ["admin" in r for r in requests]
    return asyncio.run(_drive(port, lines, due, admin))


def set_up(server: Server, setup: List[Dict]) -> float:
    """Ready, register and warm every index; seconds since launch."""
    server.wait_ready()
    # one request at a time: set-up is a sequence, not a load test
    for request in setup:
        record = drive(server.port, [request], [0.0])[0]
        reply = record.get("reply") or {}
        if not reply.get("ok"):
            raise harness.BenchError(f"set-up request failed: {reply}")
    return time.perf_counter() - server.started


# -- answers ---------------------------------------------------------------


def _same(got, want) -> bool:
    """Exact indices, distances within 1e-9 relative."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() >= want.keys()
                and all(_same(got[k], v) for k, v in want.items()))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    if isinstance(want, float):
        return (isinstance(got, (int, float))
                and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12))
    return got == want


def check(ops, records, reference, inject_wrong: int = 0) -> Dict:
    errors = wrong = 0
    ok: List[int] = []
    first_error = None
    for k, (op, rec) in enumerate(zip(ops, records)):
        reply = rec.get("reply")
        if reply is None or not reply.get("ok"):
            errors += 1
            first_error = first_error or (reply or {"error": "no answer"})
            continue
        got = (reply if op["class"] == "register"
               else reply.get("answer"))
        if k < inject_wrong:
            got = {"wrong": got}
        if not _same(got, reference[k]):
            wrong += 1
            continue
        ok.append(k)
    return {"errors": errors, "wrong": wrong, "ok": ok,
            "first_error": first_error}


# -- the run ---------------------------------------------------------------


def _serve_run(root: Path, data: Dict, ops: List[Dict], traced: bool,
             scratch: Path, setups: List[float],
             repeats: int) -> Tuple[List[Dict], float, Dict]:
    """Set up ``repeats`` fresh servers, drive ``ops`` on the last."""
    out = scratch / "serve_host.json"
    for r in range(repeats):
        server = Server(root, traced, out)
        try:
            setups.append(set_up(server, data["setup"]))
        except BaseException:
            server.stop()
            raise
        if r < repeats - 1:
            server.stop()
    try:
        records = drive(server.port, [op["request"] for op in ops],
                        [op["t"] for op in ops])
    finally:
        peak = server.stop()
    host_doc = harness.read_json(out) if traced else {}
    return records, peak, host_doc


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        inject_wrong: int = 0) -> Tuple[Dict, Dict]:
    data = inputs_mod.serve_inputs(seed, seconds)
    reference = inputs_mod.serve_reference(data)
    scratch = harness.scratch_dir(root)
    ops = data["ops"]

    shm_before = harness.shm_segments()
    host_before = harness.host_loop_ms()
    setups: List[float] = []
    if trace:
        # the same first half of the schedule, untraced then traced
        half = ops[: max(1, len(ops) // 2)]
        plain, _, _ = _serve_run(root, data, half, False, scratch, setups, 1)
        records, peak, host_doc = _serve_run(root, data, half, True, scratch,
                                           setups, 1)
        checked_ops = half + half
        all_records = plain + records
        ref = reference[:len(half)] * 2
    else:
        records, peak, host_doc = _serve_run(root, data, ops, False, scratch,
                                           setups, harness.SETUP_REPEATS)
        checked_ops, all_records, ref = ops, records, reference
    host_after = harness.host_loop_ms()
    leaks = harness.leaked_segments(shm_before)

    tally = check(checked_ops, all_records, ref, inject_wrong)
    attempted = len(all_records)
    failed = tally["errors"] + tally["wrong"] + len(leaks)
    info = {
        "workload": workload, "seed": seed, "ops": attempted,
        "offered_rate_per_s": inputs_mod.SERVE_RATE,
        "errors": tally["errors"], "wrong": tally["wrong"],
        "leaked_segments": leaks, "first_error": tally["first_error"],
        "host_loop_ms_before": host_before, "host_loop_ms_after": host_after,
        "setup_samples_s": setups,
    }
    result = {"correct": tally["wrong"] == 0, "attempted": attempted,
              "failed": failed}
    if trace:
        values = layer_metrics(half, plain, records, host_doc)
        values["fail_ratio"] = harness.ratio(failed, attempted)
        values["host.loop_ms"] = (host_before + host_after) / 2
        result["metrics"] = metrics.emit(values, metrics.layer_names())
        return result, info

    latencies = [_latency_ms(records[k]) for k in tally["ok"]]
    values = harness.latency_metrics(latencies)
    first_due = min(r["due"] for r in records)
    last = max((records[k]["received"] for k in tally["ok"]),
               default=first_due + 1.0)
    values.update({
        "throughput_per_s": len(tally["ok"]) / (last - first_due),
        "ok_ratio": 1.0 - harness.ratio(failed, attempted),
        "peak_rss_mb": peak,
        "setup_s": harness.median(setups),
    })
    info["p95_tail_samples"] = sum(
        1 for v in latencies if v > values["latency_p95_ms"])
    info["class_p50_ms"] = _class_p50(ops, records, tally["ok"])
    result["metrics"] = metrics.emit(values, metrics.e2e_names())
    return result, info


def _latency_ms(rec: Dict) -> float:
    return (rec["received"] - rec["due"]) * 1000.0


def _class_p50(ops, records, ok) -> Dict[str, float]:
    by_class: Dict[str, List[float]] = {}
    for k in ok:
        by_class.setdefault(ops[k]["class"], []).append(
            _latency_ms(records[k]))
    return {cls: metrics.p50(v) for cls, v in sorted(by_class.items())}


def layer_metrics(ops, plain, records, host_doc) -> Dict[str, float]:
    answered = [k for k, r in enumerate(records) if r.get("reply")]
    queries = [k for k in answered if "admin" not in ops[k]["request"]]
    server = host_doc["requests"]
    values = metrics.trace_metrics(host_doc["trace"], len(queries))

    queue, wire, resident, covered = [], [], [], []
    for k in queries:
        s = server.get(str(k))
        if not s or "batch_start" not in s or "response" not in s:
            continue
        rec = records[k]
        queue.append((s["batch_start"] - s["submit"]) * 1000.0)
        in_server = s["response"] - s["submit"]
        resident.append(in_server)
        covered.append(s["batch_end"] - s["submit"])
        wire.append(((rec["received"] - rec["sent"]) - in_server) * 1000.0)
    telemetry = [records[k]["reply"].get("telemetry", {}) for k in queries]
    cached = sum(1 for t in telemetry if t.get("cached"))
    batches = host_doc["batches"]
    values.update({
        "serve.queue_wait_ms.p50": metrics.p50(queue),
        "serve.batch_size.mean": metrics.mean([b[2] for b in batches]),
        "serve.wire_ms.p50": metrics.p50(wire),
        "client.lag_ms.p95": harness.percentile(
            [(r["sent"] - r["due"]) * 1000.0 for r in records], 95),
        "serve.execute_ms.p50": metrics.p50(
            [t["latency_ms"] for t in telemetry if "latency_ms" in t]),
        "cache.result_hit_ratio": harness.ratio(cached, len(queries)),
        "cache.index_builds": host_doc["stats"]["index_builds"],
        "index.build_ms.total": sum(host_doc["index_build_ms"]),
        "registry.register_ms.p50": metrics.p50(host_doc["register_ms"]),
        "trace.unaccounted_frac": 1.0 - harness.ratio(
            sum(covered), sum(resident)),
    })
    for cls, value in _class_p50(ops, records, answered).items():
        values[f"class.{cls}.p50_ms"] = value

    # compressed-domain DP against the dense cells of the same requests
    rle_ops = [k for k in queries if ops[k]["class"] == "rle_1nn"
               and not records[k]["reply"].get("telemetry", {}).get("cached")]
    block_cells = host_doc["trace"]["counters"].get("rle.block_cells", 0)
    dense = len(rle_ops) * inputs_mod.SERVE_RLE_COUNT * _band_cells(
        inputs_mod.SERVE_LENGTH, inputs_mod.SERVE_BAND)
    values["rle.block_cells_per_op"] = harness.ratio(block_cells,
                                                     len(rle_ops))
    values["rle.cell_ratio"] = harness.ratio(block_cells, dense)

    def mean_latency(recs):
        return metrics.mean([_latency_ms(r) for r in recs if "received" in r])

    values["trace.overhead_frac"] = metrics.overhead(
        mean_latency(records), mean_latency(plain))
    return values


def _band_cells(n: int, band: int) -> int:
    """Lattice cells of an n x n Sakoe-Chiba band of half-width ``band``."""
    return sum(min(n - 1, i + band) - max(0, i - band) + 1 for i in range(n))

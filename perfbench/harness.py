"""Shared plumbing for the benchmark: statistics, processes, hygiene.

Nothing here imports the program under test; the workload modules do,
after :func:`program_root` has put the checkout's ``src`` first on the
import path.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5  # fresh program processes timed per run for setup_s
MIN_OPS = 200      # so at least 10 samples lie beyond the p95


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, bad arguments)."""


def program_root() -> Path:
    """The checkout root holding ``src/repro``; refuse to run without it.

    The benchmark is run from the root of a checkout.  A directory that
    holds only the benchmark has no program to measure, and an installed
    ``repro`` elsewhere on the path must never stand in for it.
    """
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {src / 'repro'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return root


def child_env(root: Path) -> Dict[str, str]:
    """Environment for program processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # an inherited process default would change the routes measured
    for name in ("REPRO_BACKEND", "REPRO_WORKERS", "REPRO_EXECUTOR",
                 "REPRO_CHUNKSIZE"):
        env.pop(name, None)
    return env


def scratch_dir(root: Path) -> Path:
    """Per-run working directory inside the checkout."""
    path = root / ".perfbench_tmp" / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- statistics ------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)
    return ordered[max(1, min(len(ordered), int(rank))) - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def latency_metrics(latencies_ms: Sequence[float]) -> Dict[str, float]:
    """p50 and p95 of per-op latencies; p95 needs 10 samples beyond it."""
    if len(latencies_ms) < MIN_OPS:
        raise BenchError(
            f"only {len(latencies_ms)} ops completed; p95 needs {MIN_OPS}"
        )
    return {
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p95_ms": percentile(latencies_ms, 95),
    }


# -- host and machine ------------------------------------------------------


def host_loop_ms(rounds: int = 5) -> float:
    """Median time of a fixed pure-python loop that uses no program code.

    Taken before and after each run, it tells host drift (the machine
    running faster or slower) apart from a change in the program.
    """
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        samples.append((time.perf_counter() - started) * 1000.0)
    return median(samples)


def machine_info(root: Path) -> Dict[str, object]:
    info: Dict[str, object] = {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
    }
    try:
        import numpy

        info["numpy"] = numpy.__version__
    except ImportError:
        info["numpy"] = None
    return info


def _git_sha(root: Path) -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, else ``None``."""
    try:
        ref = (root / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (root / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return None
    return ref


# -- memory ----------------------------------------------------------------


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        task_dir = Path(f"/proc/{pid}/task")
        for task in task_dir.iterdir():
            text = (task / "children").read_text().split()
            out.extend(int(c) for c in text)
    except OSError:
        pass
    return out


def process_tree(pid: int) -> List[int]:
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(_children(current))
    return tree


class RssSampler:
    """Peak resident memory of a process and all its descendants.

    A background thread sums ``VmRSS`` over the process tree every
    ``interval`` seconds; :meth:`stop` also folds in each live process's
    own high-water mark, so a short spike of a long-lived process is not
    missed between samples.
    """

    def __init__(self, pid: int, interval: float = 0.25):
        self.pid = pid
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> "RssSampler":
        self._thread.start()
        return self

    def sample(self) -> None:
        tree = process_tree(self.pid)
        total = sum(_status_kb(p, "VmRSS") for p in tree)
        hwm = sum(_status_kb(p, "VmHWM") for p in tree[:1]) + sum(
            _status_kb(p, "VmRSS") for p in tree[1:]
        )
        self.peak_kb = max(self.peak_kb, total, hwm)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def stop(self) -> float:
        """Stop sampling; peak in MiB."""
        self.sample()
        self._stop.set()
        self._thread.join(timeout=5)
        return self.peak_kb / 1024.0


# -- shared memory hygiene -------------------------------------------------


def shm_segments() -> frozenset:
    try:
        return frozenset(os.listdir("/dev/shm"))
    except OSError:
        return frozenset()


def leaked_segments(before: Iterable[str]) -> List[str]:
    """Segments present now that were not there before the run."""
    return sorted(shm_segments() - frozenset(before))


# -- child processes -------------------------------------------------------


def run_program(argv: Sequence[str], env: Dict[str, str], timeout: float,
                sample_rss: bool = False) -> float:
    """Run one program process to completion; return its peak RSS in MiB.

    The process is killed (with its process group) if it outlives
    ``timeout``, so the benchmark never leaves anything running.
    """
    proc = subprocess.Popen(
        list(argv), env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, start_new_session=True,
    )
    sampler = RssSampler(proc.pid).start() if sample_rss else None
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        raise BenchError(f"{argv[1:3]} exceeded {timeout:.0f}s")
    finally:
        peak = sampler.stop() if sampler is not None else 0.0
    reap_group(proc.pid)
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-5:]
        raise BenchError(
            f"program exited {proc.returncode}: " + " | ".join(tail)
        )
    return peak


def reap_group(pgid: int, timeout: float = 5.0) -> None:
    """Wait for every process of a finished child's group to end.

    A program process can leave helpers behind for a moment (the
    multiprocessing resource tracker exits after its parent); anything
    still there after ``timeout`` is killed.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not _group_running(pgid):
            return
        time.sleep(0.01)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _group_running(pgid: int) -> bool:
    """Does any process of group ``pgid`` still run (zombies ended)?"""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields after the command: state, ppid, pgrp, ...
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            return True
    return False


def kill_group(proc: "subprocess.Popen") -> None:
    """Kill a child's whole process group and reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:  # pragma: no cover - stuck in kernel
        pass


def write_json(path: Path, payload) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)


def read_json(path: Path):
    return json.loads(path.read_text())

"""The program side of the library workloads, one fresh process per use.

Run as ``python perfbench/program.py WORKLOAD MODE INPUTS OUT SECONDS``
with ``PYTHONPATH`` naming the checkout's ``src``.  ``MODE`` is

* ``setup`` -- time set-up only (imports, classifier fit, executor and
  pool warm-up) and exit;
* ``run`` -- set up, then run ops for ``SECONDS`` untraced;
* ``trace`` -- set up, run ops untraced for half of ``SECONDS``, then
  the same ops again under a ``repro.obs.RunTrace`` with the
  benchmark's timers around the layer calls.

Set-up time starts at the top of this file, before the program is
imported, and excludes reading the inputs.  Results go to ``OUT`` as
JSON; answers are checked by the parent, never here.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _load(path):
    started = time.perf_counter()
    with open(path) as fh:
        inputs = json.load(fh)
    return inputs, time.perf_counter() - started


class _Timer:
    """Wall-clock samples of calls into one layer's public function."""

    def __init__(self):
        self.ms = []

    def wrap(self, fn):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ms.append((time.perf_counter() - started) * 1000.0)
        return timed


# -- loocv_serial ----------------------------------------------------------


def setup_loocv(inputs):
    from repro.classify.knn import DistanceSpec, OneNearestNeighbor

    spec = DistanceSpec("cdtw", window=inputs["window"],
                        use_lower_bounds=True)
    clf = OneNearestNeighbor(spec).fit(inputs["series"], inputs["labels"])
    series = inputs["series"]

    def call(i):
        return clf.predict_one(series[i], exclude=i)

    return call, inputs["order"], None


# -- knn_parallel ----------------------------------------------------------


def setup_knn(inputs):
    from repro.batch.executor import BatchExecutor
    from repro.classify.knn import DistanceSpec, KNearestNeighbors
    from repro.runtime import Runtime

    executor = BatchExecutor(workers=os.cpu_count())
    runtime = Runtime(backend=inputs["backend"], executor=executor)
    clf = KNearestNeighbors(
        DistanceSpec("cdtw", window=inputs["window"]), k=inputs["k"],
        runtime=runtime,
    ).fit(inputs["train"], inputs["labels"])
    queries = inputs["queries"]
    # warm the pool and its attach path on a series outside the op set
    clf.predict_one(inputs["train"][0])

    def call(i):
        return clf.predict_one(queries[i])

    return call, list(range(len(queries))), executor


SETUPS = {"loocv_serial": setup_loocv, "knn_parallel": setup_knn}


def _run_ops(call, keys, seconds=None, count=None):
    """Call ``keys`` in turn until ``seconds`` pass or ``count`` ops ran.

    Each record is ``[key, latency_ms, answer, error]``.
    """
    records = []
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else None
    k = 0
    while True:
        if count is not None and k >= count:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
        key = keys[k % len(keys)]
        t = time.perf_counter()
        try:
            answer = call(key)
            records.append([key, (time.perf_counter() - t) * 1000.0,
                            answer, None])
        except Exception as exc:  # one failed op never ends the run
            records.append([key, (time.perf_counter() - t) * 1000.0, None,
                            f"{type(exc).__name__}: {exc}"])
        k += 1
    return records, time.perf_counter() - started


def _traced(workload, call, keys, count, executor):
    """Re-run ``count`` ops under a RunTrace with layer timers."""
    import repro.batch.engine as engine
    import repro.batch.executor as executor_mod
    from repro.obs import RunTrace, active_trace

    pack, dispatch, batch_wall = _Timer(), [], _Timer()
    restore = []
    if workload == "knn_parallel":
        orig_pack = executor_mod.pack_dataset
        orig_batch = engine.batch_distances
        workers = executor.workers

        def batch_distances(*args, **kwargs):
            trace = active_trace()
            dp0 = trace.span_seconds("dp")
            chunks0 = trace.counter("sched.chunks")
            started = time.perf_counter()
            result = orig_batch(*args, **kwargs)
            wall = time.perf_counter() - started
            chunks = trace.counter("sched.chunks") - chunks0
            # workers run their chunks side by side, so the DP on the
            # critical path is the summed DP time over the lanes used
            lanes = max(1, min(workers, chunks))
            dp = (trace.span_seconds("dp") - dp0) / lanes
            dispatch.append((wall - dp) * 1000.0)
            return result

        executor_mod.pack_dataset = pack.wrap(orig_pack)
        engine.batch_distances = batch_wall.wrap(batch_distances)
        restore = [(executor_mod, "pack_dataset", orig_pack),
                   (engine, "batch_distances", orig_batch)]
    try:
        with RunTrace(label=f"perfbench:{workload}") as trace:
            records, wall = _run_ops(call, keys, count=count)
        doc = trace.to_dict()
    finally:
        for module, name, fn in restore:
            setattr(module, name, fn)
    doc["timers"] = {
        "pack_ms": pack.ms,
        "dispatch_ms": dispatch,
        "batch_distances_ms": batch_wall.ms,
    }
    return records, wall, doc


def main(argv):
    workload, mode, in_path, out_path, seconds = argv
    seconds = float(seconds)
    inputs, load_s = _load(in_path)
    call, keys, executor = SETUPS[workload](inputs)
    setup_s = time.perf_counter() - _T0 - load_s
    out = {"setup_s": setup_s}
    try:
        if mode == "run":
            out["records"], out["wall_s"] = _run_ops(
                call, keys, seconds=seconds,
            )
        elif mode == "trace":
            records, wall = _run_ops(call, keys, seconds=seconds / 2)
            out["untraced_wall_s"] = wall
            traced, out["wall_s"], out["trace"] = _traced(
                workload, call, keys, len(records), executor,
            )
            out["records"] = records + traced
            out["traced_ops"] = len(traced)
    finally:
        if executor is not None:
            executor.shutdown()
    tmp = out_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(out, fh)
    os.replace(tmp, out_path)


if __name__ == "__main__":
    main(sys.argv[1:])

"""``python -m repro serve`` with the benchmark's timers around its layers.

Run as ``python perfbench/serve_host.py OUT --port PORT`` with
``PYTHONPATH`` naming the checkout's ``src``.  It wraps the public
entry points of the micro-batcher, the service, the registry and the
index builders, then runs the real CLI ``serve`` command unchanged.
On SIGINT the server shuts down through its own path and the timings,
plus the service's accumulated ``RunTrace`` and stats, go to ``OUT``.
"""

import json
import os
import sys
import time
from collections.abc import Mapping


def _request_id(request):
    if isinstance(request, Mapping):
        return request.get("id")
    return getattr(request, "id", None)


def install(record):
    """Wrap the serve layers; every timing lands in ``record``."""
    from repro.serve import batcher, registry, service

    requests = record["requests"]
    clock = time.perf_counter

    def entry(rid):
        return requests.setdefault(str(rid), {})

    submit = batcher.MicroBatcher.submit

    async def timed_submit(self, request):
        started = clock()
        try:
            return await submit(self, request)
        finally:
            entry(_request_id(request)).update(
                submit=started, response=clock())

    execute_batch = service.QueryService.execute_batch

    def timed_execute_batch(self, batch):
        started = clock()
        try:
            return execute_batch(self, batch)
        finally:
            ended = clock()
            record["batches"].append([started, ended, len(batch)])
            for request in batch:
                entry(_request_id(request)).update(
                    batch_start=started, batch_end=ended)

    init = service.QueryService.__init__

    def capture_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        record["service"] = self

    def timer(fn, key):
        def timed(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[key].append((clock() - started) * 1000.0)
        return timed

    batcher.MicroBatcher.submit = timed_submit
    service.QueryService.execute_batch = timed_execute_batch
    service.QueryService.__init__ = capture_init
    for name in ("register", "register_stream"):
        setattr(registry.DatasetRegistry, name,
                timer(getattr(registry.DatasetRegistry, name), "register_ms"))
    for name in ("build_index", "build_stream_index"):
        setattr(registry, name, timer(getattr(registry, name),
                                      "index_build_ms"))


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    record = {"requests": {}, "batches": [], "register_ms": [],
              "index_build_ms": []}
    install(record)
    from repro.cli import main as cli_main

    rc = cli_main(["serve"] + cli_args)
    svc = record.pop("service")
    record["trace"] = svc._accumulator.to_dict()
    record["stats"] = svc.stats().to_dict()
    tmp = out_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(record, fh)
    os.replace(tmp, out_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

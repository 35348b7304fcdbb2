"""The repo benchmark: one workload per run, metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload loocv_serial --seed 1 \\
        --seconds 30 --trace 0

Workloads: ``loocv_serial``, ``knn_parallel``, ``serve_mix`` (see
``perfbench/README.md``).  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it, ``{"perfbench_info": ...}``, records the machine, the host
drift probe and per-run counts.  Exits non-zero, printing no result,
when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys

import harness

WORKLOADS = ("loocv_serial", "knn_parallel", "serve_mix")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # the server stops on SIGINT, its own shutdown path; a launcher that
    # ignores SIGINT (nohup, a background job) would pass that on to it
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        root = harness.program_root()
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "serve_mix":
        import serve_mix as module
    else:
        import library as module
    scratch = harness.scratch_dir(root)
    try:
        result, info = module.run(
            args.workload, args.seed, args.seconds, bool(args.trace), root,
        )
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    info["machine"] = harness.machine_info(root)
    print(json.dumps({"perfbench_info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro list                      # enumerate experiments
    python -m repro run fig1                  # laptop-scale defaults
    python -m repro run fig1 --paper-scale    # the paper's parameters
    python -m repro run all                   # everything (slow)
    python -m repro advise --n 945 --warping 0.04   # Table 1 verdict
    python -m repro batch --workers 4         # batch engine demo
    python -m repro trace --workload fastdtw  # instrumented run -> JSON
    python -m repro runtime --workers 4       # resolved execution context
    python -m repro index build --out d0.idx  # ahead-of-time search index
    python -m repro index stat d0.idx         # verify + summarise an index
    python -m repro serve                     # micro-batching query service
    python -m repro serve --self-test         # parity + telemetry smoke

Each experiment id matches DESIGN.md §3 and the module registry in
:mod:`repro.experiments`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .advisor.cases import analyze
from .core.measures import MEASURES
from .experiments import EXPERIMENTS


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'FastDTW is Approximate and Generally "
            "Slower than the Algorithm it Approximates' (Wu & Keogh, "
            "ICDE 2021)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help=f"one of: all, {', '.join(sorted(EXPERIMENTS))}",
    )
    run.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's full-scale parameters (hours, not seconds)",
    )

    sub.add_parser(
        "verdicts",
        help="run every experiment and check each paper claim",
    )

    batch = sub.add_parser(
        "batch",
        help="time a batched all-pairs run, serial vs parallel",
    )
    batch.add_argument(
        "--measure", default="cdtw", choices=list(MEASURES),
        help="distance measure (default cdtw)",
    )
    batch.add_argument("--count", type=int, default=16,
                       help="number of random-walk series (default 16)")
    batch.add_argument("--length", type=int, default=256,
                       help="length of each series (default 256)")
    batch.add_argument("--workers", type=int, default=2,
                       help="worker processes for the parallel run")
    batch.add_argument("--window", type=float, default=0.1,
                       help="cDTW window fraction (default 0.1)")
    batch.add_argument("--radius", type=int, default=1,
                       help="FastDTW radius (default 1)")
    batch.add_argument("--seed", type=int, default=0,
                       help="random-walk seed (default 0)")

    trace = sub.add_parser(
        "trace",
        help="run an instrumented workload; emit the JSON trace",
    )
    trace.add_argument(
        "--workload", default="fastdtw",
        choices=["fastdtw", "batch", "nn"],
        help="which reference workload to trace (default fastdtw)",
    )
    trace.add_argument("--length", type=int, default=256,
                       help="series length (default 256)")
    trace.add_argument("--count", type=int, default=8,
                       help="series/candidate count (default 8)")
    trace.add_argument("--radius", type=int, default=1,
                       help="FastDTW radius (default 1)")
    trace.add_argument("--window", type=float, default=0.1,
                       help="cDTW window fraction (default 0.1)")
    trace.add_argument("--workers", type=int, default=1,
                       help="batch-engine workers (default 1)")
    trace.add_argument("--backend", default=None,
                       help="kernel backend (default: process default)")
    trace.add_argument("--seed", type=int, default=0,
                       help="random-walk seed (default 0)")
    trace.add_argument("--out", default="-",
                       help="output JSON path ('-' = stdout, default)")
    trace.add_argument(
        "--overhead-check", action="store_true",
        help="instead of tracing, verify disabled instrumentation "
             "costs <=2%% on the DP hot loop (CI guard)",
    )

    advise = sub.add_parser(
        "advise", help="classify a task per the paper's Table 1"
    )
    advise.add_argument("--n", type=int, required=True,
                        help="series length N")
    advise.add_argument(
        "--warping", type=float, required=True,
        help="natural warping amount W as a fraction of N (e.g. 0.04)",
    )

    index = sub.add_parser(
        "index",
        help="build or inspect an ahead-of-time search index",
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)

    index_build = index_sub.add_parser(
        "build",
        help="build an index over a synthetic-archive dataset and "
             "save it (repro.index/v1)",
    )
    index_build.add_argument("--out", required=True,
                             help="output index path")
    index_build.add_argument("--dataset", type=int, default=0,
                             help="synthetic-archive dataset number "
                                  "(default 0)")
    index_build.add_argument("--n-datasets", type=int, default=3,
                             help="archive size to generate (default 3)")
    index_build.add_argument("--window", type=float, default=0.1,
                             help="band as a fraction of length "
                                  "(default 0.1)")
    index_build.add_argument("--seed", type=int, default=0,
                             help="archive seed (default 0)")

    index_stat = index_sub.add_parser(
        "stat",
        help="load an index (verifying its fingerprint) and print "
             "its summary as JSON",
    )
    index_stat.add_argument("path", help="index file to inspect")

    serve = sub.add_parser(
        "serve",
        help="run the micro-batching query service "
             "(newline-delimited JSON over TCP)",
    )
    serve.add_argument(
        "--self-test", action="store_true",
        help="run the deployable-system check instead of serving: "
             "mixed burst, parity vs sequential, telemetry "
             "reconciliation, shm hygiene (nonzero exit on any "
             "failure)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787,
                       help="bind port (default 8787)")
    serve.add_argument("--window-ms", type=float, default=5.0,
                       help="micro-batch collection window in "
                            "milliseconds, opened only while a "
                            "fusable 1nn (index off, parallel "
                            "runtime) is queued (default 5.0)")
    serve.add_argument("--workers", type=int, default=None,
                       help="query-execution workers (default: the "
                            "process-default runtime)")
    serve.add_argument("--backend", default=None,
                       help="kernel backend (default: process default)")
    serve.add_argument("--no-index", action="store_true",
                       help="disable the DatasetIndex fast path")

    runtime = sub.add_parser(
        "runtime",
        help="print the resolved effective Runtime as JSON",
    )
    runtime.add_argument("--workers", type=int, default=None,
                         help="override the runtime's worker count")
    runtime.add_argument("--backend", default=None,
                         help="override the runtime's kernel backend")
    runtime.add_argument("--executor", default=None,
                         help="override the runtime's executor "
                              "('default' = the shared process pool)")
    return parser


def _describe(module) -> str:
    doc = (module.__doc__ or "").strip().splitlines()
    return doc[0] if doc else ""


def cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        print(f"{name.ljust(width)}  {_describe(EXPERIMENTS[name])}")
    return 0


def cmd_run(experiment: str, paper_scale: bool) -> int:
    if experiment == "all":
        names = sorted(EXPERIMENTS)
    elif experiment in EXPERIMENTS:
        names = [experiment]
    else:
        print(
            f"unknown experiment {experiment!r}; run 'repro list'",
            file=sys.stderr,
        )
        return 2
    for name in names:
        module = EXPERIMENTS[name]
        config = module.PAPER_SCALE if paper_scale else module.DEFAULT
        result = module.run(config)
        print(module.format_report(result))
        print()
    return 0


def cmd_advise(n: int, warping: float) -> int:
    try:
        print(analyze(n=n, warping=warping).describe())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_batch(args) -> int:
    from .datasets.random_walk import random_walks
    from .timing.runner import batch_pairwise_experiment

    if args.count < 2:
        print("error: --count must be at least 2", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    series = random_walks(args.count, args.length, seed=args.seed)
    kwargs = {"measure": args.measure}
    if args.measure == "cdtw":
        kwargs["window"] = args.window
    elif args.measure in ("fastdtw", "fastdtw_reference"):
        kwargs["radius"] = args.radius
    serial = batch_pairwise_experiment(series, workers=1, **kwargs)
    parallel = batch_pairwise_experiment(
        series, workers=args.workers, **kwargs
    )
    match = "identical" if serial.cells == parallel.cells else "MISMATCH"
    print(
        f"batch: {serial.pairs} pairs of {args.measure} "
        f"(k={args.count}, n={args.length})"
    )
    print(f"  serial   (workers=1):  {serial.seconds:.3f}s"
          f"  cells={serial.cells}")
    print(f"  parallel (workers={args.workers}):  {parallel.seconds:.3f}s"
          f"  cells={parallel.cells}")
    print(f"  cell accounting: {match}; "
          f"speedup x{parallel.speedup_over(serial):.2f}")
    return 0 if serial.cells == parallel.cells else 1


def cmd_trace(args) -> int:
    import json

    if args.overhead_check:
        from .obs.bench import trace_overhead_check

        result = trace_overhead_check()
        payload = json.dumps(result, indent=2)
        pct = result["overhead"] * 100.0
        print(f"trace overhead (disabled): {pct:+.2f}% "
              f"(tolerance {result['tolerance'] * 100:.0f}%) -- "
              f"{'OK' if result['ok'] else 'FAIL'}")
        if args.out != "-":
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
            print(f"  wrote {args.out}")
        return 0 if result["ok"] else 1

    from .obs.workloads import run_traced_workload

    try:
        document = run_traced_workload(
            args.workload, length=args.length, count=args.count,
            radius=args.radius, window=args.window, workers=args.workers,
            backend=args.backend, seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = json.dumps(document, indent=2)
    if args.out == "-":
        print(payload)
    else:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.out} (ok={document['ok']})")
    if not document["ok"]:
        print("error: trace counters failed reconciliation",
              file=sys.stderr)
        return 1
    return 0


def cmd_runtime(args) -> int:
    import json

    from .runtime import Runtime

    try:
        rt = Runtime.resolve(
            workers=args.workers, backend=args.backend,
            executor=args.executor,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(rt.describe(), indent=2))
    return 0


def cmd_index(args) -> int:
    import json

    from .index import (
        IndexMismatchError,
        build_index,
        load_index,
        save_index,
    )

    if args.index_command == "build":
        from .core.window import band_from_fraction
        from .datasets.synthetic_archive import synthetic_archive

        entries = synthetic_archive(
            n_datasets=args.n_datasets, seed=args.seed,
        )
        if not 0 <= args.dataset < len(entries):
            print(
                f"error: --dataset must be in [0, {len(entries) - 1}]",
                file=sys.stderr,
            )
            return 2
        dataset = entries[args.dataset].dataset
        band = band_from_fraction(args.window, dataset.length)
        index = build_index([list(s) for s in dataset.series], band)
        header = save_index(index, args.out)
        print(json.dumps(
            {
                "path": args.out,
                "dataset": dataset.name,
                "count": header["count"],
                "length": header["length"],
                "band": header["band"],
                "source_fingerprint": header["source_fingerprint"],
            },
            indent=2,
        ))
        return 0

    # args.index_command == "stat"
    try:
        index = load_index(args.path)
    except (OSError, IndexMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(index.describe(), indent=2))
    return 0


def cmd_verdicts() -> int:
    from .experiments.verdicts import collect_verdicts, format_verdicts

    verdicts = collect_verdicts()
    print(format_verdicts(verdicts))
    return 0 if all(v.holds for v in verdicts) else 1


def cmd_serve(args) -> int:
    from .runtime import Runtime
    from .serve import run_self_test, run_server

    if args.self_test:
        return run_self_test(
            workers=args.workers or 2, window_ms=args.window_ms
        )
    runtime = Runtime.resolve(
        None, workers=args.workers, backend=args.backend
    )
    print(
        f"serving on {args.host}:{args.port} "
        f"(window {args.window_ms}ms, workers {runtime.workers}, "
        f"index {'off' if args.no_index else 'on'}) -- ctrl-c to stop"
    )
    run_server(
        host=args.host, port=args.port, window_ms=args.window_ms,
        runtime=runtime, use_index=not args.no_index,
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        return cmd_run(args.experiment, args.paper_scale)
    if args.command == "advise":
        return cmd_advise(args.n, args.warping)
    if args.command == "verdicts":
        return cmd_verdicts()
    if args.command == "batch":
        return cmd_batch(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "runtime":
        return cmd_runtime(args)
    if args.command == "index":
        return cmd_index(args)
    if args.command == "serve":
        return cmd_serve(args)
    raise AssertionError(f"unhandled command {args.command!r}")

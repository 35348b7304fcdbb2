"""Seeded inputs and their reference answers, computed untimed.

Every workload's inputs are a pure function of ``--seed``.  Reference
answers come from a route independent of the one measured: the
in-process NumPy batch kernels (no lower bounds, no index, no pool, no
shared memory, no compressed domain) or, for subsequence search, the
index-free library scan.  The program under test never sees them.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, List, Sequence, Tuple

# Dataset shapes.  uWave-like gestures at W = 4% of N (Fig. 1's
# domain); N = 128 keeps one LOOCV op at tens of milliseconds of python
# DP, so a run holds hundreds of ops.
LENGTH = 128
WINDOW = 0.04
LOOCV_PER_CLASS = 24               # 8 classes -> 192 held-out series
KNN_TRAIN_PER_CLASS = 16           # 128 training series
KNN_QUERY_PER_CLASS = 8            # 64 distinct queries, cycled
KNN_K = 3
POOL_SEED = 20210419   # the fixed population every seed draws from
POOL_PER_CLASS = 48
# The NumPy backend fails this route today: a worker evicting its 5th
# attached dataset closes a segment NumPy views still export
# (BufferError), and recycling the poisoned pool can deadlock in
# Pool.terminate.  The python backend takes the same pack / ship /
# attach / evict / dispatch path without the views.
KNN_BACKEND = "python"


def _split(pool_rows, pool_labels, take: int, seed: int):
    """Seeded per-class split of a fixed pool: ``take`` rows, the rest.

    The pool's class structure (prototypes, separation) is fixed, as
    in an archive dataset; the seed picks which exemplars form the
    dataset.  Drawing fresh prototypes per seed instead moves LB
    pruning, and with it the cost of an op, by tens of percent between
    seeds.
    """
    rng = random.Random(seed)
    by_class: Dict[object, List[int]] = {}
    for i, lab in enumerate(pool_labels):
        by_class.setdefault(lab, []).append(i)
    taken, rest = [], []
    for lab in sorted(by_class):
        members = by_class[lab][:]
        rng.shuffle(members)
        taken.extend(members[:take])
        rest.extend(members[take:])
    return ([pool_rows[i] for i in taken], [pool_labels[i] for i in taken],
            [pool_rows[i] for i in rest])


def _gesture_pool(length: int = LENGTH, per_class: int = POOL_PER_CLASS):
    from repro.datasets.gestures import gesture_dataset

    ds = gesture_dataset(
        n_classes=8, per_class=per_class, length=length,
        warp_fraction=WINDOW, seed=POOL_SEED,
    )
    return [list(s) for s in ds.series], list(ds.labels)


def _pairwise(series, pairs, measure="cdtw", band=None, window=None):
    """Distances from the in-process NumPy chunk kernels."""
    from repro.batch.engine import batch_distances
    from repro.runtime import Runtime

    kwargs = {"band": band} if band is not None else {"window": window}
    return batch_distances(
        series, pairs=pairs, measure=measure,
        runtime=Runtime(backend="numpy"), **kwargs,
    ).distances


def _argmin_first(values: Sequence[float]) -> Tuple[int, float]:
    best_i, best = 0, math.inf
    for i, v in enumerate(values):
        if v < best:
            best_i, best = i, v
    return best_i, best


# -- loocv_serial ----------------------------------------------------------


def loocv_inputs(seed: int) -> Dict:
    """Labelled gestures; op order is a seeded shuffle of held-out ids."""
    series, labels, _ = _split(*_gesture_pool(), LOOCV_PER_CLASS, seed)
    order = list(range(len(series)))
    random.Random(seed).shuffle(order)
    return {"series": series, "labels": labels, "window": WINDOW,
            "order": order}


def loocv_reference(inputs: Dict) -> List[object]:
    """Leave-one-out 1-NN label of every series (first index wins ties)."""
    series, labels = inputs["series"], inputs["labels"]
    n = len(series)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    dist = _pairwise(series, pairs, window=inputs["window"])
    out = []
    for i in range(n):
        row = dist[i * (n - 1):(i + 1) * (n - 1)]
        j, _ = _argmin_first(row)
        out.append(labels[j if j < i else j + 1])
    return out


# -- knn_parallel ----------------------------------------------------------


def knn_inputs(seed: int) -> Dict:
    """Training gestures plus held-back queries of the same classes."""
    train, train_labels, rest = _split(*_gesture_pool(),
                                       KNN_TRAIN_PER_CLASS, seed)
    queries = rest[:]
    random.Random(seed).shuffle(queries)
    queries = queries[:8 * KNN_QUERY_PER_CLASS]
    return {"train": train, "labels": train_labels, "queries": queries,
            "window": WINDOW, "k": KNN_K, "backend": KNN_BACKEND}


def knn_reference(inputs: Dict) -> List[object]:
    """Majority label of the k nearest (vote ties to the nearest label)."""
    train, labels = inputs["train"], inputs["labels"]
    queries, k = inputs["queries"], inputs["k"]
    t = len(train)
    series = train + queries
    pairs = [(t + q, j) for q in range(len(queries)) for j in range(t)]
    dist = _pairwise(series, pairs, window=inputs["window"])
    out = []
    for q in range(len(queries)):
        row = sorted((d, j) for j, d in enumerate(dist[q * t:(q + 1) * t]))
        votes: Dict[object, List[float]] = {}
        for d, j in row[:k]:
            votes.setdefault(labels[j], []).append(d)
        top = max(len(v) for v in votes.values())
        out.append(min((min(v), lab) for lab, v in votes.items()
                       if len(v) == top)[1])
    return out


# -- serve_mix -------------------------------------------------------------

# One register line must fit the server's 64 KiB NDJSON line limit, so
# serve datasets are smaller than the library workloads' and their
# values carry three decimals.
SERVE_LENGTH = 96
SERVE_BAND = math.ceil(WINDOW * SERVE_LENGTH)  # 4 samples
SERVE_MAIN_PER_CLASS = 8                       # 64 series (+1 far one)
SERVE_RLE_COUNT = 64
SERVE_ND_PER_CLASS = 8                         # 4 classes -> 32 series
SERVE_ND_LENGTH = 48
SERVE_ND_BAND = math.ceil(WINDOW * SERVE_ND_LENGTH)  # 2 samples
SERVE_STREAM_LENGTH = 2048
SERVE_SUB_WINDOW = 64
SERVE_SUB_BAND = 3
SERVE_SUB_OFFSETS = 12
SERVE_K = 3
SERVE_RATE = 20.0  # offered ops/s, about half the measured capacity
# Class shares per block of 50 ops.  Sorted by latency the classes run
# 1nn_hit < register < 1nn < nd_1nn < subsequence < knn ~ rle_1nn, so
# these shares put the p50 inside 1nn / nd_1nn and the p95 inside the
# knn / rle_1nn band.
SERVE_BLOCK = (
    ("1nn", 17), ("1nn_hit", 12), ("knn", 4), ("subsequence", 5),
    ("rle_1nn", 3), ("nd_1nn", 8), ("register", 1),
)


def _r3(values):
    return [round(v, 3) for v in values]


def _steps(rng: random.Random, n: int) -> List[float]:
    """A step series on the RLE exactness grid (multiples of 1/16)."""
    out: List[float] = []
    while len(out) < n:
        out.extend([rng.randint(-48, 48) / 16] * rng.randint(6, 18))
    return out[:n]


def _class_schedule(rng: random.Random, total: int) -> List[str]:
    """Class of each op: exact shares per block, seeded order within."""
    block = [name for name, count in SERVE_BLOCK for _ in range(count)]
    out: List[str] = []
    while len(out) < total:
        chunk = block[:]
        rng.shuffle(chunk)
        out.extend(chunk)
    return out[:total]


def serve_inputs(seed: int, seconds: float) -> Dict:
    """Datasets, set-up requests and the open-loop op schedule."""
    from repro.datasets.gestures import multivariate_gestures
    from repro.datasets.random_walk import random_walk

    rng = random.Random(seed)
    total = max(1, int(seconds * SERVE_RATE))
    classes = _class_schedule(rng, total)

    pool, pool_labels = _gesture_pool(SERVE_LENGTH, 2 * SERVE_MAIN_PER_CLASS)
    main, _, bases = _split([_r3(s) for s in pool], pool_labels,
                            SERVE_MAIN_PER_CLASS, seed)
    # re-registration alternates two versions of the collection that
    # differ only in a far-away last series, so every answer is the same
    # under both while each register still invalidates the caches
    far = main[0]
    main_x = main + [_r3(v + 10.0 for v in far)]
    main_y = main + [_r3(v + 20.0 for v in far)]

    rle = [_steps(rng, SERVE_LENGTH) for _ in range(SERVE_RLE_COUNT)]
    nd_pool, nd_labels = multivariate_gestures(
        n_classes=4, per_class=2 * SERVE_ND_PER_CLASS,
        length=SERVE_ND_LENGTH, axes=3, seed=POOL_SEED,
    )
    nd, _, nd_bases = _split([[_r3(v) for v in s] for s in nd_pool],
                             nd_labels, SERVE_ND_PER_CLASS, seed)
    stream = _r3(random_walk(SERVE_STREAM_LENGTH, seed=POOL_SEED))

    def jitter(values):
        return _r3(v + rng.gauss(0.0, 0.05) for v in values)

    def query():
        """A fresh query near a held-out exemplar: never a cache hit."""
        return jitter(rng.choice(bases))

    def nd_query():
        return [jitter(v) for v in rng.choice(nd_bases)]

    subs = itertools.count()

    def sub_query():
        """The next of a fixed cycle of stream windows, freshly jittered.

        Search cost depends on where the query sits in the stream; a
        fixed cycle of offsets keeps that mix the same for every seed.
        """
        span = SERVE_STREAM_LENGTH - SERVE_SUB_WINDOW
        start = (next(subs) * span // SERVE_SUB_OFFSETS) % span
        return jitter(stream[start:start + SERVE_SUB_WINDOW])

    def one_nn(dataset, query, band):
        return {"op": "1nn", "dataset": dataset, "query": query,
                "band": band}

    setup = [
        {"admin": "register", "name": "main", "series": main_x},
        {"admin": "register", "name": "steps", "series": rle},
        {"admin": "register", "name": "gestures3", "series": nd},
        {"admin": "register_stream", "name": "stream", "values": stream},
        # one query per index so set-up includes every index build
        one_nn("main", query(), SERVE_BAND),
        one_nn("gestures3", nd_query(), SERVE_ND_BAND),
        {"op": "subsequence", "dataset": "stream", "query": sub_query(),
         "band": SERVE_SUB_BAND},
    ]

    ops = []
    answered_1nn = []  # (time, op index) of 1nn ops, for repeats
    last_register = 0.0
    versions = itertools.cycle([main_y, main_x])
    for k, cls in enumerate(classes):
        t = k / SERVE_RATE
        if cls == "1nn":
            req = one_nn("main", query(), SERVE_BAND)
            answered_1nn.append((t, k))
        elif cls == "1nn_hit":
            # repeat a 1nn answered since the last register, so the
            # result cache holds it; fall back to the latest one
            fresh = [i for tp, i in answered_1nn
                     if last_register + 0.5 <= tp <= t - 1.0]
            older = [i for tp, i in answered_1nn if tp <= t - 0.2]
            pick = (rng.choice(fresh) if fresh
                    else older[-1] if older else None)
            if pick is None:  # nothing answered yet: a plain 1nn
                cls = "1nn"
                req = one_nn("main", query(), SERVE_BAND)
                answered_1nn.append((t, k))
            else:
                req = dict(ops[pick]["request"])
        elif cls == "knn":
            req = {"op": "knn", "dataset": "main", "query": query(),
                   "band": SERVE_BAND, "k": SERVE_K}
        elif cls == "subsequence":
            req = {"op": "subsequence", "dataset": "stream",
                   "query": sub_query(), "band": SERVE_SUB_BAND}
        elif cls == "rle_1nn":
            req = one_nn("steps", _steps(rng, SERVE_LENGTH), SERVE_BAND)
        elif cls == "nd_1nn":
            req = one_nn("gestures3", nd_query(), SERVE_ND_BAND)
        else:
            req = {"admin": "register", "name": "main",
                   "series": next(versions)}
            last_register = t
        ops.append({"t": t, "class": cls, "request": req})
    return {"setup": setup, "ops": ops, "main": main_x, "steps": rle,
            "gestures3": nd, "stream": stream}


def _rows(rows, queries, band, measure="cdtw"):
    """Each query's distance to every row, as one batch per group."""
    n, out = len(rows), []
    for g in range(0, len(queries), 16):
        group = queries[g:g + 16]
        pairs = [(n + q, j) for q in range(len(group)) for j in range(n)]
        dist = _pairwise(rows + group, pairs, measure=measure, band=band)
        out.extend(dist[q * n:(q + 1) * n] for q in range(len(group)))
    return out


def serve_reference(data: Dict) -> List[object]:
    """Expected answer of every scheduled op."""
    from repro.batch.shm import pack_dataset
    from repro.preprocess.normalize import znorm

    ops = data["ops"]
    stream, m = data["stream"], SERVE_SUB_WINDOW
    windows = [znorm(stream[s:s + m]) for s in range(len(stream) - m + 1)]
    groups: Dict[Tuple[str, int], List[int]] = {}
    for k, op in enumerate(ops):
        req = op["request"]
        if "admin" not in req:
            groups.setdefault((req["dataset"], req["band"]), []).append(k)
    rows_of: Dict[int, Sequence[float]] = {}
    for (dataset, band), members in groups.items():
        if dataset == "stream":
            rows = windows
            queries = [znorm(ops[k]["request"]["query"]) for k in members]
        else:
            rows = data[dataset]
            queries = [ops[k]["request"]["query"] for k in members]
        measure = "cdtw_d" if dataset == "gestures3" else "cdtw"
        rows_of.update(zip(members, _rows(rows, queries, band, measure)))

    out: List[object] = []
    for k, op in enumerate(ops):
        req, cls = op["request"], op["class"]
        if cls == "register":
            out.append({"fingerprint": pack_dataset(req["series"])[2]})
            continue
        dist = rows_of[k]
        far = len(dist) - 1 if req["dataset"] == "main" else None
        if cls == "knn":
            top = sorted(range(len(dist)), key=lambda j: (dist[j], j))
            top = top[:req["k"]]
            if far in top:
                raise ValueError("the far series ranked among neighbours")
            out.append({"neighbors": [
                {"index": j, "distance": dist[j]} for j in top]})
            continue
        j, best = _argmin_first(dist)
        if j == far:
            raise ValueError("the far series is a nearest neighbour")
        if cls == "subsequence":
            out.append({"start": j, "distance": best})
        else:
            out.append({"index": j, "distance": best})
    return out

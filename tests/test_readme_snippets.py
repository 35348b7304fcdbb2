"""The README's code snippets execute exactly as printed.

Documentation drift is a bug; these tests run the README's Python
blocks verbatim (modulo prints) and assert their claims.
"""

def test_quickstart_block():
    from repro import cdtw, dtw, fastdtw

    x = [0.0, 1.0, 2.0, 1.0, 0.0]
    y = [0.0, 0.0, 1.0, 2.0, 1.0]

    exact = cdtw(x, y, window=0.2, return_path=True)
    assert exact.distance >= 0
    assert exact.path.max_band_deviation() >= 0
    assert exact.cells > 0

    approx = fastdtw(x, y, radius=1)
    assert approx.distance >= dtw(x, y).distance


def test_advisor_block():
    from repro.advisor import analyze

    text = analyze(n=945, warping=0.04).describe()
    assert "Case A" in text
    assert "cDTW" in text


def test_batch_engine_block():
    from repro.batch import batch_distances
    from repro.datasets.random_walk import random_walks

    series = random_walks(12, 128, seed=0)
    result = batch_distances(
        series, measure="cdtw", window=0.1, workers=4
    )
    assert len(result.distances) == 12 * 11 // 2
    assert result.cells > 0
    # the README's determinism claim: workers never change results
    serial = batch_distances(series, measure="cdtw", window=0.1)
    assert result.distances == serial.distances
    assert result.cells == serial.cells


def test_package_docstring_example():
    # the example in repro/__init__.py's module docstring
    from repro import dtw, fastdtw

    x = [0.0, 1.0, 2.0, 1.0, 0.0]
    y = [0.0, 0.0, 1.0, 2.0, 1.0]
    exact = dtw(x, y)
    approx = fastdtw(x, y, radius=1)
    assert exact.distance <= approx.distance


def test_execution_model_block():
    from repro import Runtime, use_runtime
    from repro.core import distance_matrix
    from repro.datasets.random_walk import random_walks

    series = random_walks(6, 64, seed=1)
    rt = Runtime(workers=2, backend="numpy")

    m = distance_matrix(series, measure="cdtw", window=0.1, runtime=rt)
    with use_runtime(rt):
        m2 = distance_matrix(series, measure="cdtw", window=0.1)
    assert m.values == m2.values
    assert m.cells == m2.cells


def test_kernel_backend_block():
    from repro import Runtime, use_runtime
    from repro.core import distance_matrix
    from repro.datasets.random_walk import random_walks

    series = random_walks(6, 64, seed=1)
    per_call = distance_matrix(
        series, measure="cdtw", window=0.1, runtime=Runtime(backend="numpy")
    )
    with use_runtime(Runtime(backend="numpy")):
        scoped = distance_matrix(series, measure="cdtw", window=0.1)
    # the README's bit-identity claim, against the pure engine
    pure = distance_matrix(series, measure="cdtw", window=0.1)
    assert per_call.values == scoped.values == pure.values
    assert per_call.cells == scoped.cells == pure.cells


def test_index_block(tmp_path):
    from repro import build_index, load_index, save_index
    from repro.datasets.random_walk import random_walks
    from repro.search.nn_search import nearest_neighbor

    walks = random_walks(7, 48, seed=3)
    candidates, query = walks[:-1], walks[-1]

    idx = build_index(candidates, band=4)
    save_index(idx, tmp_path / "dataset.idx")

    idx = load_index(tmp_path / "dataset.idx")  # payload hash rechecked
    hit = nearest_neighbor(query, candidates, band=4, index=idx)

    # the README's losslessness claim: bit-identical to the index-free
    # scan, and a stale index fails loudly instead of silently
    plain = nearest_neighbor(query, candidates, band=4)
    assert (hit.index, hit.distance) == (plain.index, plain.distance)

    import pytest

    from repro import IndexMismatchError

    stale = list(candidates)
    stale[0] = [v + 1e-9 for v in stale[0]]
    with pytest.raises(IndexMismatchError):
        nearest_neighbor(query, stale, band=4, index=idx)


def test_readme_pinned_harness_claim():
    import pytest

    from repro.datasets.random_walk import random_walks
    from repro.timing import batch_pairwise_experiment

    series = random_walks(4, 32, seed=2)
    with pytest.raises(ValueError):
        batch_pairwise_experiment(series, band=2, backend="numpy")


def test_serving_block():
    from repro import Runtime
    from repro.datasets.random_walk import random_walks
    from repro.serve import QueryService

    walks = random_walks(7, 48, seed=4)
    candidates, query = walks[:-1], walks[-1]

    service = QueryService(runtime=Runtime(workers=2))
    service.register("walks", candidates)

    response = service.execute(
        {"op": "1nn", "dataset": "walks", "band": 4, "query": query}
    )
    assert response.ok
    assert response.telemetry.dtw_calls >= 1
    service.close()

    # the README's parity claim: the service answer is bit-identical
    # to calling the consumer directly, serial and index-free
    from repro.search.nn_search import nearest_neighbor

    plain = nearest_neighbor(query, candidates, band=4)
    assert response.answer["index"] == plain.index
    assert response.answer["distance"] == plain.distance


def test_rle_block():
    from repro import RleSeries, rle_dtw
    from repro.core import dtw

    x = [0.0] * 40 + [1.5] * 40 + [0.25] * 40
    y = [0.0] * 30 + [1.5] * 55 + [0.25] * 35

    compressed = RleSeries.encode(x)            # 3 runs, lossless
    assert compressed.decode() == x
    assert compressed.compression_ratio == 40.0

    fast = rle_dtw(x, y)
    assert fast.distance == dtw(x, y).distance  # bit-identical
    assert fast.cells < dtw(x, y).cells         # far fewer cells


def test_multivariate_block():
    from repro.batch import batch_distances
    from repro.core.multivariate import cdtw_i, cdtw_nd, interleave
    from repro.datasets.gestures import multivariate_gestures

    series, labels = multivariate_gestures(
        n_classes=3, per_class=4, length=64, axes=3, seed=0
    )

    dep = cdtw_nd(series[0], series[4], band=6)     # one shared path
    ind = cdtw_i(series[0], series[4], band=6)      # per-channel paths
    assert ind.distance <= dep.distance

    result = batch_distances(series, measure="cdtw_d", band=6, workers=2)
    assert len(result.distances) == 12 * 11 // 2
    serial = batch_distances(series, measure="cdtw_d", band=6)
    assert result.distances == serial.distances     # workers change nothing

    xs, ys = [0.0, 1.0, 2.0], [5.0, 6.0, 7.0]
    assert interleave(xs, ys) == [(0.0, 5.0), (1.0, 6.0), (2.0, 7.0)]

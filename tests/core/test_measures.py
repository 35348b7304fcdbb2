"""The canonical measure registry and the agreement of its importers.

Regression guard for the drift this registry was created to end:
``classify/knn.py`` once listed four measures while
``core/matrix.py`` listed five.  Every consumer must now import the
one tuple from :mod:`repro.core.measures`.
"""

from __future__ import annotations

import pytest

import repro.classify.knn as knn
import repro.core.matrix as matrix
from repro.batch.engine import BatchSpec, batch_distances
from repro.classify.knn import DistanceSpec
from repro.core import measures
from repro.core.dtw import dtw
from repro.core.measures import (
    CELL_COUNTED_MEASURES,
    MEASURES,
    measure_fn,
    split_result,
    validate_measure,
)

THREE = [[0.0, 1.0, 2.0], [1.0, 2.0, 0.0], [2.0, 0.0, 1.0]]


class TestRegistryAgreement:
    def test_knn_and_matrix_share_the_canonical_tuple(self):
        assert knn.MEASURES is measures.MEASURES
        assert matrix.MEASURES is measures.MEASURES

    def test_every_measure_builds_a_distance_spec(self):
        # the classifier must actually support everything it claims
        for measure in MEASURES:
            kwargs = {}
            if measure in ("cdtw", "cdtw_d", "cdtw_i"):
                kwargs["window"] = 0.1
            elif measure in ("fastdtw", "fastdtw_reference"):
                kwargs["radius"] = 1
            spec = DistanceSpec(measure, **kwargs)
            assert spec.describe()

    def test_every_measure_builds_a_batch_spec(self):
        for measure in MEASURES:
            assert BatchSpec(measure=measure).measure == measure

    def test_cell_counted_subset(self):
        assert set(CELL_COUNTED_MEASURES) < set(MEASURES)
        assert "euclidean" not in CELL_COUNTED_MEASURES


class TestDispatch:
    def test_validate_measure(self):
        validate_measure("dtw")
        with pytest.raises(ValueError, match="unknown measure"):
            validate_measure("emd")

    @pytest.mark.parametrize("measure", ["emd", "rle_cdtw"])
    def test_measure_fn_rejects_unknown(self, measure):
        with pytest.raises(ValueError, match="unknown measure"):
            measure_fn(measure)

    @pytest.mark.parametrize("build", [
        lambda m: validate_measure(m),
        lambda m: DistanceSpec(m, window=0.1),
        lambda m: BatchSpec(measure=m),
        lambda m: matrix.distance_matrix(THREE, measure=m, window=0.5),
        lambda m: batch_distances(THREE, measure=m, window=0.5),
    ], ids=["validate_measure", "DistanceSpec", "BatchSpec",
            "distance_matrix", "batch_distances"])
    def test_every_entry_point_refuses_banded_rle(self, build):
        # one registry, no stale copies: the deleted banded RLE measure
        # is unknown wherever a measure name is accepted
        with pytest.raises(ValueError, match="unknown measure 'rle_cdtw'"):
            build("rle_cdtw")

    @pytest.mark.parametrize("measure", MEASURES)
    def test_measure_fn_runs_every_measure(self, measure):
        from repro.core.measures import ND_MEASURES

        if measure in ND_MEASURES:
            x = [(0.0, 1.0), (1.0, 0.0), (2.0, 2.0), (1.0, 1.0)]
            y = [(0.0, 0.0), (2.0, 1.0), (1.0, 2.0), (1.0, 1.0)]
            kwargs = {"window": 0.5} if measure.startswith("cdtw") else {}
            fn = measure_fn(measure, **kwargs)
        else:
            x = [0.0, 1.0, 2.0, 1.0]
            y = [0.0, 2.0, 1.0, 1.0]
            fn = measure_fn(measure, window=0.5, radius=1)
        distance, cells, _path = split_result(fn(x, y))
        assert distance >= 0.0
        if measure in CELL_COUNTED_MEASURES:
            assert cells > 0
        else:
            assert cells == 0

    def test_split_result_on_rich_result(self):
        r = dtw([0.0, 1.0], [0.0, 1.0], return_path=True)
        distance, cells, path = split_result(r)
        assert distance == r.distance
        assert cells == r.cells
        assert path is r.path

    def test_split_result_on_bare_float(self):
        assert split_result(3.5) == (3.5, 0, None)


class TestCdtwConstraintAtBuild:
    """``cdtw`` needs exactly one of ``window=``/``band=``, refused
    when its callable is built, on every backend -- so a batch with
    no pairs to run is refused too, not answered with ``()``."""

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("constraint", [{}, {"window": 0.1, "band": 2}],
                             ids=["neither", "both"])
    def test_measure_fn_refuses_when_built(self, backend, constraint):
        if backend == "numpy":
            pytest.importorskip("numpy")
        with pytest.raises(ValueError, match="exactly one"):
            measure_fn("cdtw", backend=backend, **constraint)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_pair_batch_refuses(self, backend, workers):
        if backend == "numpy":
            pytest.importorskip("numpy")
        for series, pairs in (([THREE[0]], None), (THREE, [])):
            with pytest.raises(ValueError, match="exactly one"):
                batch_distances(series, pairs=pairs, measure="cdtw",
                                backend=backend, workers=workers)


class TestDistanceSpecFastdtwReference:
    def test_requires_radius(self):
        with pytest.raises(ValueError, match="radius"):
            DistanceSpec("fastdtw_reference")

    def test_describe(self):
        spec = DistanceSpec("fastdtw_reference", radius=3)
        assert spec.describe() == "FastDTW-ref_3"

    def test_rejects_window(self):
        with pytest.raises(ValueError, match="window"):
            DistanceSpec("fastdtw_reference", window=0.1, radius=1)

"""DatasetRegistry naming + ArtifactCache fingerprint semantics."""

import dataclasses

import pytest

from repro.serve import ArtifactCache, DatasetRegistry, ProtocolError
from repro.serve.registry import RegisteredDataset
from tests.conftest import make_series

SERIES = [make_series(16, seed=700 + i) for i in range(4)]
STREAM = make_series(48, seed=710)


class TestRegistry:
    def test_register_and_get(self):
        reg = DatasetRegistry()
        entry = reg.register("a", SERIES)
        assert entry.kind == "collection"
        assert reg.get("a") is entry
        assert reg.names() == ("a",)

    def test_same_content_same_fingerprint(self):
        reg = DatasetRegistry()
        first = reg.register("a", SERIES)
        again = reg.register("a", [list(s) for s in SERIES])
        assert first.fingerprint == again.fingerprint

    def test_changed_content_changes_fingerprint(self):
        reg = DatasetRegistry()
        first = reg.register("a", SERIES)
        mutated = [list(s) for s in SERIES]
        mutated[0][0] += 1.0
        assert reg.register("a", mutated).fingerprint != first.fingerprint

    def test_stream_kind(self):
        reg = DatasetRegistry()
        entry = reg.register_stream("s", STREAM)
        assert entry.kind == "stream"
        assert entry.stream == tuple(STREAM)

    def test_unknown_name_names_registered(self):
        reg = DatasetRegistry()
        reg.register("known", SERIES)
        with pytest.raises(ProtocolError, match="known"):
            reg.get("missing")

    def test_rejects_bad_series(self):
        reg = DatasetRegistry()
        with pytest.raises(ProtocolError, match="no series"):
            reg.register("empty", [])
        with pytest.raises(ValueError):
            reg.register("nan", [[1.0, float("nan")]])

    def test_drop(self):
        reg = DatasetRegistry()
        reg.register("a", SERIES)
        reg.drop("a")
        assert reg.names() == ()

    def test_entry_holds_content_not_a_route_profile(self):
        # registration records what the data is; how a request is
        # executed is decided per request, never profiled in here
        assert [f.name for f in dataclasses.fields(RegisteredDataset)] == [
            "name", "kind", "series", "fingerprint", "dims",
        ]


class TestArtifactCache:
    def _entry(self, reg=None):
        reg = reg or DatasetRegistry()
        return reg.register("a", SERIES)

    def test_index_built_once_then_hit(self):
        cache = ArtifactCache()
        entry = self._entry()
        first = cache.index_for(entry, band=2)
        again = cache.index_for(entry, band=2)
        assert again is first
        assert cache.stats.index_builds == 1
        assert cache.stats.index_hits == 1

    def test_different_band_is_a_different_index(self):
        cache = ArtifactCache()
        entry = self._entry()
        assert cache.index_for(entry, band=2) is not cache.index_for(
            entry, band=3
        )
        assert cache.stats.index_builds == 2

    def test_stream_index_keyed_by_window_step_normalize(self):
        cache = ArtifactCache()
        reg = DatasetRegistry()
        entry = reg.register_stream("s", STREAM)
        a = cache.index_for(entry, band=2, window=12, step=1)
        b = cache.index_for(entry, band=2, window=12, step=2)
        c = cache.index_for(entry, band=2, window=12, step=1)
        assert a is not b
        assert c is a
        assert cache.stats.index_builds == 2

    def test_retain_only_sweeps_stale_fingerprints(self):
        cache = ArtifactCache()
        reg = DatasetRegistry()
        entry = reg.register("a", SERIES)
        cache.index_for(entry, band=2)
        cache.put_result((entry.fingerprint, "1nn", (), (1.0,)), {"x": 1})
        # re-register with new content: the old fingerprint vanishes
        mutated = [list(s) for s in SERIES]
        mutated[0][0] += 1.0
        reg.register("a", mutated)
        dropped = cache.retain_only(reg.fingerprints())
        assert dropped == 2
        assert cache.index_for(entry, band=2) is not None  # rebuilt
        assert cache.stats.index_builds == 2

    def test_result_lru_bound(self):
        cache = ArtifactCache(max_results=2)
        for i in range(4):
            cache.put_result(("fp", "op", (), (float(i),)), i)
        assert cache.stats.result_entries == 2
        assert cache.get_result(("fp", "op", (), (0.0,))) is None
        assert cache.get_result(("fp", "op", (), (3.0,))) == 3

    def test_index_lru_bound(self):
        cache = ArtifactCache(max_indexes=1)
        reg = DatasetRegistry()
        entry = reg.register("a", SERIES)
        cache.index_for(entry, band=2)
        cache.index_for(entry, band=3)  # evicts band=2
        cache.index_for(entry, band=2)  # rebuild
        assert cache.stats.index_builds == 3
        assert cache.stats.evictions >= 1

    def test_peek_does_not_count(self):
        cache = ArtifactCache()
        cache.put_result(("fp", "op", (), None), {"v": 1})
        assert cache.peek_result(("fp", "op", (), None))
        assert not cache.peek_result(("fp", "other", (), None))
        assert cache.stats.result_hits == 0


class TestSingleChannelVectors:
    def test_collection_refused_with_shape_named(self):
        reg = DatasetRegistry()
        rows = [[(v,) for v in s] for s in SERIES]
        with pytest.raises(ProtocolError, match=r"\(length, 1\).*flat"):
            reg.register("one_channel", rows)
        assert "one_channel" not in reg.names()

    def test_stream_refused_with_shape_named(self):
        reg = DatasetRegistry()
        with pytest.raises(ProtocolError, match=r"\(length, 1\)"):
            reg.register_stream("one_channel", [(v,) for v in SERIES[0]])
        assert "one_channel" not in reg.names()

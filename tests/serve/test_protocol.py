"""parse_request: the single validation gate for every entry path."""

import pytest

from repro.serve import ProtocolError, parse_request
from repro.serve.protocol import OPS


def _ok_1nn(**over):
    base = {"op": "1nn", "dataset": "d", "band": 3,
            "query": [0.0, 1.0, 2.0]}
    base.update(over)
    return base


class TestValidRequests:
    def test_minimal_1nn(self):
        req = parse_request(_ok_1nn())
        assert req.op == "1nn"
        assert req.dataset == "d"
        assert req.query == (0.0, 1.0, 2.0)
        assert req.param("band") == 3

    def test_query_coerced_to_float_tuple(self):
        req = parse_request(_ok_1nn(query=[1, 2, 3]))
        assert req.query == (1.0, 2.0, 3.0)
        assert all(isinstance(v, float) for v in req.query)

    def test_id_passes_through(self):
        assert parse_request(_ok_1nn(id="abc")).id == "abc"
        assert parse_request(_ok_1nn(id=7)).id == "7"
        assert parse_request(_ok_1nn()).id is None

    def test_discord_takes_no_query(self):
        req = parse_request(
            {"op": "discord", "dataset": "s", "window": 8, "band": 2}
        )
        assert req.query is None
        assert req.param("window") == 8

    def test_subsequence_full_params(self):
        req = parse_request({
            "op": "subsequence", "dataset": "s", "band": 2, "k": 3,
            "step": 2, "normalize": False, "query": [1.0, 2.0],
        })
        assert req.param("k") == 3
        assert req.param("step") == 2
        assert req.param("normalize") is False


class TestRejections:
    @pytest.mark.parametrize("op", ["nope", "", None, 7])
    def test_unknown_op(self, op):
        with pytest.raises(ProtocolError, match="op"):
            parse_request({"op": op, "dataset": "d"})

    def test_missing_dataset(self):
        with pytest.raises(ProtocolError, match="dataset"):
            parse_request({"op": "1nn", "band": 3, "query": [1.0]})

    def test_missing_band(self):
        with pytest.raises(ProtocolError, match="band"):
            parse_request(
                {"op": "1nn", "dataset": "d", "query": [1.0]}
            )

    def test_missing_query(self):
        with pytest.raises(ProtocolError, match="query"):
            parse_request({"op": "1nn", "dataset": "d", "band": 3})

    def test_query_on_queryless_op(self):
        with pytest.raises(ProtocolError, match="query"):
            parse_request({
                "op": "motif", "dataset": "s", "window": 8, "band": 2,
                "query": [1.0],
            })

    @pytest.mark.parametrize(
        "extra", [{"radius": 2}, {"rle": True}], ids=["radius", "rle"]
    )
    def test_unknown_parameter(self, extra):
        with pytest.raises(ProtocolError, match="parameter"):
            parse_request(_ok_1nn(**extra))

    @pytest.mark.parametrize("band", [0, -1, 1.5, True, "3"])
    def test_bad_band(self, band):
        with pytest.raises(ProtocolError, match="band"):
            parse_request(_ok_1nn(band=band))

    def test_empty_query(self):
        with pytest.raises(ProtocolError, match="empty"):
            parse_request(_ok_1nn(query=[]))

    def test_non_numeric_query(self):
        with pytest.raises(ProtocolError, match="numbers"):
            parse_request(_ok_1nn(query=["a", "b"]))

    def test_discord_needs_window(self):
        with pytest.raises(ProtocolError, match="window"):
            parse_request({"op": "discord", "dataset": "s", "band": 2})

    def test_non_bool_index_flag(self):
        with pytest.raises(ProtocolError, match="index"):
            parse_request(_ok_1nn(index=1))

    def test_non_mapping(self):
        with pytest.raises(ProtocolError, match="mapping"):
            parse_request([1, 2, 3])


SAMPLES = {
    "1nn": _ok_1nn(),
    "knn": {"op": "knn", "dataset": "d", "band": 3, "k": 2,
            "query": [1.0, 2.0]},
    "subsequence": {"op": "subsequence", "dataset": "s",
                    "band": 2, "query": [1.0, 2.0]},
    "discord": {"op": "discord", "dataset": "s", "window": 4,
                "band": 2},
    "motif": {"op": "motif", "dataset": "s", "window": 4,
              "band": 2},
}


class TestOpsTable:
    def test_every_op_parses(self):
        assert set(SAMPLES) == set(OPS)
        for op, raw in SAMPLES.items():
            assert parse_request(raw).op == op

    @pytest.mark.parametrize("op", OPS)
    def test_no_op_takes_an_rle_switch(self, op):
        # every op runs one exact route; there is no compressed-domain
        # switch to set
        with pytest.raises(
            ProtocolError, match=f"op '{op}' does not take parameter 'rle'"
        ):
            parse_request({**SAMPLES[op], "rle": False})

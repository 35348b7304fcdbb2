"""Schema smoke test for the RLE compression-vs-speedup benchmark.

``python -m repro rle bench`` writes ``BENCH_rle.json`` from
:func:`repro.core.rle_bench.rle_benchmark`; the CI gate and the README
table read specific keys, so the shape is a contract.  The tiny
workload here makes the timings meaningless -- only the schema, the
exact-agreement flag and the cell arithmetic matter -- while the
checked-in ``BENCH_rle.json`` carries the acceptance claim itself:
bit-exact distances at every level and a wall-clock win at the
highest compression.
"""

import json
import pathlib

import pytest

import repro
from repro.core.rle_bench import SCHEMA, format_rle_report, rle_benchmark

LEVEL_KEYS = (
    "quantize", "compression_ratio", "on_exactness_grid", "variants",
)

VARIANT_KEYS = (
    "dense_seconds", "rle_seconds", "speedup",
    "dense_cells", "rle_cells", "agree",
)


@pytest.fixture(scope="module")
def report():
    # two levels spanning the crossover: a fine grid where RLE loses
    # and a coarse grid where it wins -- timings are noise at this
    # size, so only shape and agreement are asserted below
    return rle_benchmark(
        length=60, n_pairs=1,
        quantize_steps=(2.0 ** -6, 2.0 ** -2), repeats=1,
    )


class TestReportSchema:
    def test_top_level_keys(self, report):
        assert report["benchmark"] == SCHEMA
        for key in ("note", "cpu_count", "workload", "levels", "agree",
                    "compressed_wins_at_high_compression", "passed"):
            assert key in report

    def test_level_rows(self, report):
        assert len(report["levels"]) == 2
        for level in report["levels"]:
            assert set(level) == set(LEVEL_KEYS)
            assert set(level["variants"]) == {"full"}
            for row in level["variants"].values():
                assert set(row) == set(VARIANT_KEYS)

    def test_quantized_levels_sit_on_the_exactness_grid(self, report):
        for level in report["levels"]:
            assert level["on_exactness_grid"] is True
            assert level["compression_ratio"] >= 1.0

    def test_distances_agree_exactly(self, report):
        assert report["agree"] is True
        for level in report["levels"]:
            for row in level["variants"].values():
                assert row["agree"] is True

    def test_cell_arithmetic(self, report):
        # the compressed DP never admits more cells than the dense
        # lattice it replaces, and both engines count something
        for level in report["levels"]:
            for row in level["variants"].values():
                assert 0 < row["rle_cells"] <= 2 * row["dense_cells"]

    def test_passed_is_the_conjunction(self, report):
        assert report["passed"] == (
            report["agree"]
            and report["compressed_wins_at_high_compression"]
        )

    def test_json_round_trips(self, report):
        rebuilt = json.loads(json.dumps(report))
        assert rebuilt["levels"] == report["levels"]

    def test_format_report_lines(self, report):
        text = "\n".join(format_rle_report(report))
        assert "ratio=" in text
        assert "bit-identical to dense" in text
        assert "highest compression" in text

    def test_note_pins_the_harness_out(self, report):
        assert "never routes through RLE" in report["note"]

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError, match="quantization step"):
            rle_benchmark(quantize_steps=())


class TestCheckedInReport:
    """The repo-root ``BENCH_rle.json`` carries the acceptance
    numbers: exact agreement everywhere, and a real wall-clock win at
    the highest compression level."""

    @pytest.fixture(scope="class")
    def checked_in(self):
        path = (
            pathlib.Path(repro.__file__).resolve().parents[2]
            / "BENCH_rle.json"
        )
        if not path.is_file():
            pytest.skip("BENCH_rle.json not present")
        return json.loads(path.read_text())

    def test_schema_and_agreement(self, checked_in):
        assert checked_in["benchmark"] == SCHEMA
        assert checked_in["agree"] is True
        assert checked_in["passed"] is True

    def test_compressed_wins_at_high_compression(self, checked_in):
        assert checked_in["compressed_wins_at_high_compression"] is True
        top = max(
            checked_in["levels"],
            key=lambda level: level["compression_ratio"],
        )
        assert top["variants"]["full"]["speedup"] > 1.0

    def test_crossover_curve_recorded(self, checked_in):
        # the sweep must include a low-compression level too: the
        # report documents where RLE loses, not just where it wins
        ratios = [
            level["compression_ratio"] for level in checked_in["levels"]
        ]
        assert max(ratios) > 2.0 * min(ratios)

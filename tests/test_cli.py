"""Unit tests for the command-line interface."""

import json
from math import ceil

import pytest

from repro.cli import build_parser, cmd_advise, cmd_list, cmd_run, main
from repro.experiments import EXPERIMENTS


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_one_line_each(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == len(EXPERIMENTS)


class TestRun:
    def test_runs_cheap_experiment(self, capsys):
        assert main(["run", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "128" in out

    def test_runs_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "Case A share" in capsys.readouterr().out

    def test_runs_fig3(self, capsys):
        assert main(["run", "fig3"]) == 0
        assert "34%" in capsys.readouterr().out

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_paper_scale_flag_parses(self):
        args = build_parser().parse_args(["run", "fig2", "--paper-scale"])
        assert args.paper_scale is True


class TestBatch:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["batch"])
        assert args.measure == "cdtw"
        assert args.workers == 2
        assert args.count == 16

    def test_rejects_unknown_measure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "--measure", "emd"])

    def test_runs_and_reports_identical_cells(self, capsys):
        assert main([
            "batch", "--count", "6", "--length", "32", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "cell accounting: identical" in out
        assert "workers=2" in out

    def test_bad_count_exits_2(self, capsys):
        assert main(["batch", "--count", "1"]) == 2
        assert "--count" in capsys.readouterr().err

    def test_bad_workers_exits_2(self, capsys):
        assert main(["batch", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err


class TestIndex:
    """``index build`` then ``index stat``: the round trip the CI
    index job runs."""

    def test_build_parser_defaults(self):
        args = build_parser().parse_args(
            ["index", "build", "--out", "x.idx"]
        )
        assert (args.dataset, args.n_datasets, args.window, args.seed) == (
            0, 3, 0.1, 0,
        )

    @pytest.mark.parametrize("dataset", [0, 1, 2])
    def test_build_then_stat_round_trips(self, dataset, capsys, tmp_path):
        from repro.batch.shm import pack_dataset
        from repro.datasets.synthetic_archive import synthetic_archive

        out = tmp_path / "ds.idx"
        assert main([
            "index", "build", "--out", str(out),
            "--dataset", str(dataset),
        ]) == 0
        built = json.loads(capsys.readouterr().out)
        series = synthetic_archive(n_datasets=3, seed=0)[dataset].dataset
        assert built["dataset"] == series.name
        assert built["count"] == len(series.series)
        assert built["band"] == ceil(0.1 * built["length"])
        assert built["source_fingerprint"] == pack_dataset(
            [list(s) for s in series.series]
        )[2]
        assert main(["index", "stat", str(out)]) == 0
        stat = json.loads(capsys.readouterr().out)
        for key in ("count", "length", "band", "source_fingerprint"):
            assert stat[key] == built[key]

    def test_build_rejects_out_of_range_dataset(self, capsys, tmp_path):
        out = tmp_path / "ds.idx"
        assert main([
            "index", "build", "--out", str(out), "--dataset", "3",
        ]) == 2
        assert "--dataset must be in [0, 2]" in capsys.readouterr().err
        assert not out.exists()

    def test_stat_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["index", "stat", str(tmp_path / "none.idx")]) == 2
        assert "error" in capsys.readouterr().err

    def test_stat_rejects_a_tampered_payload(self, capsys, tmp_path):
        out = tmp_path / "ds.idx"
        assert main(["index", "build", "--out", str(out)]) == 0
        blob = bytearray(out.read_bytes())
        blob[-1] ^= 0xFF
        out.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["index", "stat", str(out)]) == 2
        assert "fingerprint mismatch" in capsys.readouterr().err

    def test_stat_rejects_a_foreign_file(self, capsys, tmp_path):
        out = tmp_path / "notes.txt"
        out.write_text("not an index\n")
        assert main(["index", "stat", str(out)]) == 2
        assert "not a repro.index file" in capsys.readouterr().err

    def test_requires_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["index"])
        assert exc.value.code == 2


class TestAdvise:
    def test_case_a(self, capsys):
        assert main(["advise", "--n", "945", "--warping", "0.04"]) == 0
        out = capsys.readouterr().out
        assert "Case A" in out and "cDTW" in out

    def test_case_d(self, capsys):
        assert main(["advise", "--n", "5000", "--warping", "0.9"]) == 0
        assert "Case D" in capsys.readouterr().out

    def test_invalid_warping_exits_2(self, capsys):
        assert main(["advise", "--n", "100", "--warping", "2.0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_requires_arguments(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["advise"])


class TestRuntime:
    def _document(self, capsys):
        import json

        return json.loads(capsys.readouterr().out)

    def test_prints_builtin_default_as_json(self, capsys):
        assert main(["runtime"]) == 0
        doc = self._document(capsys)
        assert doc["workers"] == 1
        assert doc["backend"] is None
        assert doc["backend_resolved"] == "python"
        assert doc["executor"] is None
        assert "chunksize" not in doc
        assert doc["parallel"] is False
        assert doc["traced"] is False

    def test_flags_override(self, capsys):
        assert main([
            "runtime", "--workers", "3", "--backend", "numpy",
        ]) == 0
        doc = self._document(capsys)
        assert doc["workers"] == 3
        assert doc["backend"] == "numpy"
        assert doc["backend_resolved"] == "numpy"
        assert doc["parallel"] is True

    def test_env_seeds_the_report(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert main(["runtime"]) == 0
        doc = self._document(capsys)
        assert doc["workers"] == 5
        assert doc["backend"] == "numpy"

    def test_flags_beat_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert main(["runtime", "--workers", "2"]) == 0
        assert self._document(capsys)["workers"] == 2

    def test_bad_backend_exits_2(self, capsys):
        assert main(["runtime", "--backend", "fortran"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_workers_exits_2(self, capsys):
        assert main(["runtime", "--workers", "0"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_chunksize_flag_is_gone(self, capsys):
        # the chunk plan has no knob left to override
        with pytest.raises(SystemExit) as exit_info:
            main(["runtime", "--chunksize", "16"])
        assert exit_info.value.code == 2
        assert "--chunksize" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [["kernels"], ["rle"], ["rle", "bench"], ["index", "bench"]],
        ids=["kernels", "rle", "rle-bench", "index-bench"],
    )
    def test_retired_bench_commands_exit_2(self, argv, capsys):
        # speed gates live in the test suite and the timed CI checks,
        # not in bench subcommands
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_module_entry_point_importable(self):
        import repro.__main__  # noqa: F401

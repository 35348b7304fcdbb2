"""Unit tests for the command-line interface."""

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


class TestKernels:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["kernels"])
        assert args.window == 0.1
        assert args.workers == 2
        assert args.out is None  # resolved per-mode in cmd_kernels
        assert args.smoke is False
        assert args.warm is False
        assert args.min_warm_speedup is None

    def test_smoke_run_writes_report(self, capsys, tmp_path):
        out = tmp_path / "bench.json"
        assert main([
            "kernels", "--smoke", "--workers", "1", "--out", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "numpy_serial" in stdout
        assert "bit-identical" in stdout
        import json

        report = json.loads(out.read_text())
        assert report["parity"]["distances_identical"] is True
        assert report["parity"]["cells_identical"] is True
        assert "numpy_serial" in report["speedups_over_python_serial"]

    def test_dash_out_skips_writing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "kernels", "--smoke", "--workers", "1", "--out", "-",
        ]) == 0
        assert "wrote" not in capsys.readouterr().out
        assert not (tmp_path / "BENCH_kernels.json").exists()

    def test_bad_workload_exits_2(self, capsys):
        assert main(["kernels", "--smoke", "--count", "0", "--out", "-"]) == 2
        assert "error" in capsys.readouterr().err

    def test_warm_smoke_writes_batch_report(self, capsys, tmp_path):
        out = tmp_path / "bench_batch.json"
        assert main([
            "kernels", "--warm", "--smoke", "--workers", "2",
            "--out", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "python_workers_warm" in stdout
        assert "bit-identical" in stdout
        import json

        report = json.loads(out.read_text())
        assert report["cpu_count"] >= 1
        assert report["parity"]["distances_identical"] is True
        assert report["parity"]["cells_identical"] is True
        for label in (
            "python_serial", "python_workers_cold", "python_workers_warm",
            "numpy_serial", "numpy_workers_cold", "numpy_workers_warm",
        ):
            assert label in report["timings"]

    def test_warm_default_out_is_batch_json(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["kernels", "--warm", "--smoke", "--workers", "2"]) == 0
        assert (tmp_path / "BENCH_batch.json").exists()
        assert not (tmp_path / "BENCH_kernels.json").exists()

    def test_warm_speedup_gate_fails_when_unmet(self, capsys):
        # an absurd threshold no machine meets: the gate must trip
        assert main([
            "kernels", "--warm", "--smoke", "--workers", "2",
            "--out", "-", "--min-warm-speedup", "1000",
        ]) == 1
        assert "below required" in capsys.readouterr().err

    def test_nd_default_out_is_multivariate_json(self, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "kernels", "--nd", "--smoke", "--workers", "1",
            "--count", "3", "--length", "16", "--dims", "2",
        ]) == 0
        assert "bit-identical" in capsys.readouterr().out
        assert not (tmp_path / "BENCH_kernels.json").exists()
        import json

        report = json.loads(
            (tmp_path / "BENCH_multivariate.json").read_text()
        )
        assert report["workload"]["dims"] == 2
        assert report["cpu_count"] >= 1
        assert report["parity"]["distances_identical"] is True

    def test_nd_bad_dims_exits_2(self, capsys):
        assert main([
            "kernels", "--nd", "--smoke", "--dims", "1", "--out", "-",
        ]) == 2
        assert "dims" in capsys.readouterr().err

    def test_warm_and_nd_are_exclusive(self, capsys):
        assert main(["kernels", "--warm", "--nd", "--out", "-"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


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
        assert doc["chunksize"] == "auto"
        assert doc["parallel"] is False
        assert doc["traced"] is False

    def test_flags_override(self, capsys):
        assert main([
            "runtime", "--workers", "3", "--backend", "numpy",
            "--chunksize", "16",
        ]) == 0
        doc = self._document(capsys)
        assert doc["workers"] == 3
        assert doc["backend"] == "numpy"
        assert doc["backend_resolved"] == "numpy"
        assert doc["chunksize"] == 16
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

    def test_bad_chunksize_exits_2(self, capsys):
        assert main(["runtime", "--chunksize", "fast"]) == 2
        assert "--chunksize" in capsys.readouterr().err

    def test_chunksize_policies_pass_through(self, capsys):
        assert main(["runtime", "--chunksize", "legacy"]) == 0
        assert self._document(capsys)["chunksize"] == "legacy"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_module_entry_point_importable(self):
        import repro.__main__  # noqa: F401

"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.fleet == 600
        assert args.day == 0

    def test_detect_args(self):
        args = build_parser().parse_args(
            ["detect", "logs.csv", "--coverage", "0.6", "--top", "5"]
        )
        assert args.input == "logs.csv"
        assert args.coverage == 0.6

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.input is None
        assert args.speedup == 600.0
        assert args.port == 8080
        assert args.cache_ttl == 1.0

    def test_serve_with_input(self):
        args = build_parser().parse_args(
            ["serve", "logs.csv", "--speedup", "0", "--port", "0"]
        )
        assert args.input == "logs.csv"
        assert args.speedup == 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "logs.csv", "--workers", "2"],
            ["detect", "logs.csv", "--checkpoint-dir", "ckpt"],
            ["serve", "--history-compact-interval", "60"],
        ],
    )
    def test_removed_flags_are_unknown(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "taxiqueue" in out
        assert repro.__version__ in out


class TestMissingInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "does_not_exist.csv"],
            ["analyze", "does_not_exist.csv"],
            ["export", "does_not_exist.csv"],
            ["serve", "does_not_exist.csv"],
        ],
    )
    def test_missing_csv_is_a_clean_error(self, argv, capsys):
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "input CSV not found" in err
        assert "does_not_exist.csv" in err
        assert "Traceback" not in err


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def log_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "logs.csv"
        code = main(
            [
                "simulate",
                "--seed", "5",
                "--fleet", "120",
                "--spots", "8",
                "--output", str(path),
            ]
        )
        assert code == 0
        return path

    def test_simulate_writes_csv_and_meta(self, log_csv):
        assert log_csv.exists()
        meta = json.loads(log_csv.with_suffix(".meta.json").read_text())
        assert meta["records"] > 1000
        assert len(meta["bbox"]) == 4

    def test_detect_runs(self, log_csv, capsys):
        code = main(["detect", str(log_csv), "--coverage", "0.6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "detected" in out
        assert "QS001" in out

    def test_analyze_runs(self, log_csv, capsys):
        code = main(["analyze", str(log_csv), "--coverage", "0.6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Queue Type" in out

    def test_analyze_unknown_spot(self, log_csv, capsys):
        code = main(
            ["analyze", str(log_csv), "--coverage", "0.6", "--spot", "QS999"]
        )
        assert code == 1

    def test_analyze_with_spot_report(self, log_csv, capsys):
        code = main(
            ["analyze", str(log_csv), "--coverage", "0.6", "--spot", "QS001"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Queue spot QS001" in out

    def test_export_writes_artefacts(self, log_csv, tmp_path, capsys):
        out = tmp_path / "artefacts"
        code = main(
            [
                "export", str(log_csv), "--coverage", "0.6",
                "--outdir", str(out),
            ]
        )
        assert code == 0
        for name in (
            "spots.geojson", "labels.geojson", "spots.csv", "labels.csv",
            "features.csv", "report.html",
        ):
            assert (out / name).exists(), name
        import json

        spots = json.loads((out / "spots.geojson").read_text())
        assert spots["features"]

    def test_detect_with_explicit_bbox(self, log_csv, capsys):
        code = main(
            [
                "detect",
                str(log_csv),
                "--bbox",
                "103.5954,1.2351,104.0446,1.4689",
            ]
        )
        assert code == 0


class TestResilienceFlags:
    """--checkpoint-dir / --disorder-window / --stale-after wiring."""

    def test_serve_resilience_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.checkpoint_dir is None
        assert args.checkpoint_every == 5000
        assert args.disorder_window == 0.0
        assert args.stale_after == 30.0

    def test_serve_resilience_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "logs.csv",
                "--checkpoint-dir", "/tmp/ckpt",
                "--checkpoint-every", "100",
                "--disorder-window", "120",
                "--stale-after", "10",
            ]
        )
        assert args.checkpoint_dir == "/tmp/ckpt"
        assert args.checkpoint_every == 100
        assert args.disorder_window == 120.0
        assert args.stale_after == 10.0

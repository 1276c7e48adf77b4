"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

GOLDEN_CSV = str(Path(__file__).parent / "data" / "golden_day.csv")


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

    def test_version_is_looked_up_only_for_the_flag(
        self, monkeypatch, capsys
    ):
        """No command but ``--version`` pays for the metadata lookup:
        with the lookup broken, ``analyze`` still runs and exits 0."""
        import repro.cli

        def broken():
            raise RuntimeError("version looked up")

        monkeypatch.setattr(repro.cli, "_version", broken)
        assert main(["analyze", GOLDEN_CSV]) == 0
        assert "C1" in capsys.readouterr().out


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


class TestBadOptionValues:
    """A bad ``--coverage``, ``--bbox`` or ``--outdir`` is one error line
    and exit 2, never a traceback.  Only an artefact path that cannot be
    written is found after the analysis; the rest cost none."""

    @staticmethod
    def argv(command, tmp_path):
        return {
            "detect": ["detect", GOLDEN_CSV],
            "analyze": ["analyze", GOLDEN_CSV],
            "export": ["export", GOLDEN_CSV, "--outdir", str(tmp_path / "out")],
            "serve": [
                "serve", GOLDEN_CSV, "--port", "0", "--speedup", "0",
                "--max-seconds", "5",
            ],
            "conformance": ["conformance", "run", "--input", GOLDEN_CSV],
        }[command]

    @staticmethod
    def run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        return code, errors[0]

    @pytest.mark.parametrize("value", ["0", "-1", "2", "nan", "all"])
    @pytest.mark.parametrize(
        "command", ["detect", "analyze", "export", "serve", "conformance"]
    )
    def test_bad_coverage(self, command, value, tmp_path, capsys):
        argv = self.argv(command, tmp_path) + ["--coverage", value]
        code, error = self.run(argv, capsys)
        assert code == 2
        assert "--coverage" in error

    @pytest.mark.parametrize(
        "value", ["1,2,3", "a,b,c,d", "104,1,103,2", "nan,1,2,3"]
    )
    @pytest.mark.parametrize("command", ["detect", "analyze", "export", "serve"])
    def test_bad_bbox(self, command, value, tmp_path, capsys):
        argv = self.argv(command, tmp_path) + ["--bbox", value]
        code, error = self.run(argv, capsys)
        assert code == 2
        assert "--bbox" in error

    @pytest.mark.parametrize("where", ["under-a-file", "a-file"])
    def test_unwritable_outdir(self, where, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        outdir = blocker / "out" if where == "under-a-file" else blocker
        code, error = self.run(
            ["export", GOLDEN_CSV, "--outdir", str(outdir)], capsys
        )
        assert code == 2
        assert error.startswith(f"error: cannot write {outdir}")

    @pytest.mark.parametrize("artefact", ["spots.geojson", "spots.csv"])
    def test_unwritable_artefact(self, artefact, tmp_path, capsys):
        outdir = tmp_path / "out"
        (outdir / artefact).mkdir(parents=True)
        code, error = self.run(
            ["export", GOLDEN_CSV, "--outdir", str(outdir)], capsys
        )
        assert code == 2
        assert error.startswith(f"error: cannot write {outdir / artefact}: ")


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


class TestImportFootprint:
    @staticmethod
    def run_and_list(argv, watched: str) -> str:
        """Run ``main(argv)`` in a fresh interpreter; the last line it
        prints: the exit code (of a ``SystemExit`` too) and the loaded
        modules ``watched`` (a Python expression over ``name``)
        selects."""
        import os
        import subprocess
        import sys

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "try:\n"
            f"    code = main({argv!r})\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            f"loaded = sorted(name for name in sys.modules if {watched})\n"
            "print('exit', code, 'loaded', loaded)\n"
        )
        path = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]

    def test_analyze_loads_no_serving_code(self):
        """Every command imports ``repro.obs`` for its tracer, and
        ``repro.obs`` depends on no ``repro.service`` module, so a batch
        command never loads the serving stack or ``http.server``."""
        last = self.run_and_list(
            ["analyze", GOLDEN_CSV],
            "name == 'http.server'"
            " or name.split('.')[:2] == ['repro', 'service']",
        )
        assert last == "exit 0 loaded []"

    def test_serve_loads_no_stdlib_http_server(self):
        """``serve`` answers through its own request reader: neither
        ``http.server`` nor what it pulls in (``http.client`` and the
        ``email`` header parser) is imported from start-up to the end
        of the replay."""
        last = self.run_and_list(
            ["serve", GOLDEN_CSV, "--port", "0", "--speedup", "0",
             "--max-seconds", "60"],
            "name in ('http.server', 'http.client')"
            " or name.split('.')[0] == 'email'",
        )
        assert last == "exit 0 loaded []"

    def test_version_loads_only_the_cli(self):
        """``--version`` loads no subpackage of ``repro`` and no NumPy:
        the package root resolves its re-exports on first access, and
        ``repro.cli`` imports only the standard library."""
        last = self.run_and_list(
            ["--version"], "name.split('.')[0] in ('numpy', 'repro')"
        )
        assert last == "exit 0 loaded ['repro', 'repro.cli']"

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", GOLDEN_CSV],
            ["serve", GOLDEN_CSV, "--port", "0", "--speedup", "0",
             "--max-seconds", "60"],
        ],
        ids=["analyze", "serve"],
    )
    def test_commands_on_a_csv_load_no_simulator(self, argv):
        """Only ``simulate``, ``demo`` and a ``serve`` without a CSV
        import ``repro.sim``."""
        last = self.run_and_list(
            argv, "name.split('.')[:2] == ['repro', 'sim']"
        )
        assert last == "exit 0 loaded []"

    def test_loadtest_loads_no_engine(self):
        """The load client needs neither NumPy nor the engine nor the
        server: against an address where nothing listens it exits 2
        having loaded none of them."""
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        last = self.run_and_list(
            ["loadtest", "--url", f"http://127.0.0.1:{port}",
             "--duration", "1"],
            "name.split('.')[0] == 'numpy'"
            " or name.split('.')[:2] in (['repro', 'core'],"
            " ['repro', 'service'])",
        )
        assert last == "exit 2 loaded []"

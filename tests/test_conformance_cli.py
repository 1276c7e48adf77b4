"""CLI surface of ``taxiqueue conformance run|shrink|report``.

Exit-code contract: 0 = all conformant, 1 = divergence found (semantic
failure), 2 = usage/input error before any pipeline work.  The fault
run also proves the artifact loop end to end through the CLI: inject,
catch, shrink, write ``repro.sh``, and re-summarize with ``report``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_CSV = str(DATA_DIR / "golden_day.csv")


class TestUsageErrors:
    def test_unknown_check_exits_2(self, capsys):
        assert main(["conformance", "run", "--input", GOLDEN_CSV,
                     "--checks", "no-such-check"]) == 2
        assert "no-such-check" in capsys.readouterr().err

    def test_unknown_fault_exits_2(self, capsys):
        assert main(["conformance", "run", "--input", GOLDEN_CSV,
                     "--inject-fault", "bogus"]) == 2

    def test_bad_kill_frac_exits_2(self):
        assert main(["conformance", "run", "--input", GOLDEN_CSV,
                     "--kill-frac", "1.5"]) == 2

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["conformance", "run", "--input",
                     str(tmp_path / "nope.csv")]) == 2

    def test_empty_input_exits_2(self, tmp_path, capsys):
        header = Path(GOLDEN_CSV).read_text().splitlines()[0]
        path = tmp_path / "header_only.csv"
        path.write_text(header + "\n")
        assert main(["conformance", "run", "--input", str(path)]) == 2
        assert "no records to check" in capsys.readouterr().err

    def test_bad_seed_count_exits_2(self):
        assert main(["conformance", "run", "--seeds", "0"]) == 2

    def test_report_on_missing_dir_exits_2(self, tmp_path, capsys):
        assert main(["conformance", "report",
                     str(tmp_path / "absent")]) == 2

    def test_report_on_empty_dir_exits_2(self, tmp_path):
        assert main(["conformance", "report", str(tmp_path)]) == 2


class TestConformantRun:
    def test_golden_day_single_check_exits_0(self, capsys):
        code = main(["conformance", "run", "--input", GOLDEN_CSV,
                     "--checks", "oracle-batch", "--no-shrink"])
        out = capsys.readouterr().out
        assert code == 0
        assert "conformant" in out
        assert "oracle-batch" in out

    def test_json_output_parses(self, capsys):
        code = main(["conformance", "run", "--input", GOLDEN_CSV,
                     "--checks", "oracle-batch", "--no-shrink",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["divergent"] is False
        assert payload[0]["checks"][0]["name"] == "oracle-batch"

    def test_one_record_day_runs_every_check(self, tmp_path, capsys):
        # One record has no kill point: the restart check has nothing
        # to compare, and must not crash.
        lines = Path(GOLDEN_CSV).read_text().splitlines()[:2]
        path = tmp_path / "one.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main(["conformance", "run", "--input", str(path),
                     "--no-shrink", "--json"])
        assert code == 0
        (case,) = json.loads(capsys.readouterr().out)
        assert case["records"] == 1
        assert len(case["checks"]) == 6
        assert all(check["ok"] for check in case["checks"])


class TestFaultLoop:
    @pytest.fixture(scope="class")
    def fault_out(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("conf-cli")
        code = main(["conformance", "run", "--input", GOLDEN_CSV,
                     "--checks", "oracle-stream",
                     "--inject-fault", "label-flip",
                     "--out", str(out)])
        return code, out

    def test_divergence_exits_1_and_writes_artifacts(self, fault_out):
        code, out = fault_out
        assert code == 1
        case_dir = out / "golden_day"
        assert (case_dir / "report.json").is_file()
        assert (case_dir / "minimal_day.csv").is_file()
        assert (case_dir / "bootstrap.json").is_file()
        assert (case_dir / "repro.sh").is_file()
        report = json.loads(
            (case_dir / "report.json").read_text(encoding="utf-8")
        )
        assert report["divergent"] is True
        assert report["shrink"]["minimal_records"] <= 50

    def test_report_resummarizes_the_run(self, fault_out, capsys):
        _, out = fault_out
        code = main(["conformance", "report", str(out)])
        printed = capsys.readouterr().out
        assert code == 1
        assert "DIVERGENT" in printed
        assert "golden_day" in printed

    def test_shrink_subcommand_on_conformant_day_exits_1(self, capsys):
        # `shrink` demands a divergence; a clean day has none to shrink.
        code = main(["conformance", "shrink", "--input", GOLDEN_CSV,
                     "--checks", "oracle-batch"])
        assert code == 1

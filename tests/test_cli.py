"""Command-line interface: formats, exit codes, output files."""

import json
from pathlib import Path

from stablelimit.cli import main
from stablelimit.scenarios import SCENARIOS

# the seed's full JSON report with every "millis" set to 0.0
GOLDEN_REPORT = Path(__file__).resolve().parent.parent / "bench" \
    / "reference_report.json"


def test_list_prints_all_ids(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for sid in SCENARIOS:
        assert sid in out


def test_single_scenario_json(capsys):
    assert main(["run", "--scenario", "diophantine", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["prime"] == 7
    assert doc["summary"] == {"passed": 1, "failed": 0, "flagged": 0}
    record = doc["scenarios"][0]
    assert record["id"] == "diophantine"
    assert record["status"] == "pass"
    assert record["computed"]["solutions up to bound 100"] == [[2, 2, 3]]
    assert set(record) == {"id", "status", "citation", "computed",
                           "expected", "provenance", "flags", "notes",
                           "millis"}


def test_full_run_reports_the_single_failure(capsys):
    # the lattice scenario carries the one published value the exact
    # computation contradicts, so a full run exits 1
    assert main(["run", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["scenarios"]) == len(SCENARIOS)
    assert doc["summary"]["passed"] == len(SCENARIOS) - 1
    assert doc["summary"]["failed"] == 1
    failing = [s["id"] for s in doc["scenarios"] if s["status"] != "pass"]
    assert failing == ["lattice"]
    # apart from the timings, the report is the golden one byte for byte
    for record in doc["scenarios"]:
        record["millis"] = 0.0
    assert json.dumps(doc, indent=2) + "\n" == \
        GOLDEN_REPORT.read_text(encoding="utf-8")


def test_text_summary_line(capsys):
    assert main(["run", "--scenario", "expansion", "--scenario", "branch"]) == 0
    out = capsys.readouterr().out
    assert "2/2 passed" in out


def test_unknown_id_is_rejected_before_work(capsys):
    assert main(["run", "--scenario", "no-such-id"]) == 2
    err = capsys.readouterr().err
    assert "no-such-id" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["run", "--scenario", "gamma", "--format", "json",
                 "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["scenarios"][0]["id"] == "gamma"
    assert capsys.readouterr().out == ""


def test_out_file_failure_is_io_error(tmp_path):
    bad = tmp_path / "missing-dir" / "report.json"
    assert main(["run", "--scenario", "gamma", "--out", str(bad)]) == 2

"""Command-line interface: formats, exit codes, output files."""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import stablelimit
from stablelimit.cli import main
from stablelimit.scenarios import SCENARIOS

# the seed's full JSON report with every "millis" set to 0.0
GOLDEN_REPORT = Path(__file__).resolve().parent.parent / "bench" \
    / "reference_report.json"
# the directory that holds the package under test
SRC = Path(stablelimit.__file__).resolve().parent.parent


def _python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter, with ``-O`` when this one has it, importing
    the package under test."""
    flags = ["-O"] if sys.flags.optimize else []
    path = os.pathsep.join(filter(None, (str(SRC),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *flags, *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=600)


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


def test_repeated_scenario_is_run_and_reported_once(capsys):
    assert main(["run", "--scenario", "diophantine",
                 "--scenario", "diophantine"]) == 0
    assert "1/1 passed" in capsys.readouterr().out
    assert main(["run", "--format", "json", "--scenario", "gamma",
                 "--scenario", "expansion", "--scenario", "gamma"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [s["id"] for s in doc["scenarios"]] == ["expansion", "gamma"]
    assert doc["summary"]["passed"] == 2


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


def test_cold_run_in_reversed_order():
    # a fresh process fills the shared caches in the order its ids run
    # in; the report lists them in canonical order whatever that was
    ids = list(SCENARIOS)[::-1]
    assert len(ids) == 18
    proc = _python("-m", "stablelimit", "run", "--format", "json",
                   *(arg for sid in ids for arg in ("--scenario", sid)))
    assert proc.returncode == 1, proc.stderr
    doc = json.loads(proc.stdout)
    for record in doc["scenarios"]:
        record["millis"] = 0.0
    assert json.dumps(doc, indent=2) + "\n" == \
        GOLDEN_REPORT.read_text(encoding="utf-8")


# The top-level stdlib modules that a cold ``python -S -m stablelimit run``
# may import beyond a bare ``python -S``: the package's own imports, the
# runpy and importlib of ``-m``, argparse with gettext, locale and shutil
# (with shutil's compression modules), and what typing and re import.
# sre_compile, sre_constants and sre_parse are re's modules in Python 3.10.
COLD_RUN_STDLIB = frozenset("""
    __future__ _bz2 _collections _collections_abc _compression _functools
    _json _locale _lzma _operator _sre _stat _struct _typing argparse bz2
    collections contextlib copyreg enum errno fnmatch functools gc
    genericpath gettext importlib itertools keyword locale lzma math
    operator os posixpath re reprlib runpy shutil sre_compile sre_constants
    sre_parse stat struct types typing warnings zlib
""".split())


def _stdlib_imports(*args):
    """A fresh ``python -S -X importtime`` process, and the top-level
    names of the stdlib modules that it imported."""
    proc = _python("-S", "-X", "importtime", *args)
    names = {line.rpartition("|")[2].strip().partition(".")[0]
             for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc, names & sys.stdlib_module_names


def test_a_cold_run_imports_only_the_listed_stdlib_modules():
    # without site, nothing that site imports first can hide a module
    # that a full run pulls in
    _, bare = _stdlib_imports("-c", "pass")
    proc, run = _stdlib_imports("-m", "stablelimit", "run", "--format", "json")
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["summary"]["failed"] == 1
    unlisted = run - bare - COLD_RUN_STDLIB
    assert not unlisted, sorted(unlisted)
    assert not COLD_RUN_STDLIB & {"fractions", "decimal", "numbers", "json",
                                  "dataclasses", "inspect", "random"}
    # the package itself is imported, so the probe sees what it imports
    assert {"argparse", "_json"} <= run - bare


def test_a_cold_run_rejects_an_unknown_id_with_exit_code_2():
    proc = _python("-m", "stablelimit", "run", "--scenario", "no-such-id")
    assert proc.returncode == 2
    assert "no-such-id" in proc.stderr
    assert proc.stdout == ""


def test_a_cold_run_writes_the_golden_report_to_its_out_file(tmp_path):
    target = tmp_path / "report.json"
    proc = _python("-m", "stablelimit", "run", "--format", "json",
                   "--out", str(target))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    text = re.sub(r'"millis": [-+.0-9e]+', '"millis": 0.0',
                  target.read_text(encoding="utf-8"))
    assert text == GOLDEN_REPORT.read_text(encoding="utf-8")


def test_main_leaves_the_collector_as_it_found_it(capsys):
    frozen = gc.get_freeze_count()
    try:
        for enabled in (False, True):
            (gc.enable if enabled else gc.disable)()
            assert main(["run", "--scenario", "gamma"]) == 0
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
    finally:
        gc.enable()


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

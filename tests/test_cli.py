"""Command-line interface: the reader of the command line against the
argparse parser it replaced, formats, exit codes, output files."""

import argparse
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stablelimit
from stablelimit import cli, scenarios
from stablelimit.cli import main, read_argv
from stablelimit.scenarios import SCENARIOS

# the seed's full JSON report with every "millis" set to 0.0
GOLDEN_REPORT = Path(__file__).resolve().parent.parent / "bench" \
    / "reference_report.json"
# the directory that holds the package under test
SRC = Path(stablelimit.__file__).resolve().parent.parent


def _python(*args, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """A fresh interpreter, with ``-O`` when this one has it, importing
    the package under test, its stdout buffered as a user's is."""
    flags = ["-O"] if sys.flags.optimize else []
    path = os.pathsep.join(filter(None, (str(SRC),
                                         os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *flags, *args], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=600)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser that read the command line before
    ``cli.read_argv``, kept as its reference."""
    parser = argparse.ArgumentParser(
        prog="stablelimit",
        description="exact verification engine for the characteristic-7 "
                    "stable-limit geometry of an explicit quintic surface")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="execute verification scenarios")
    run_p.add_argument("--scenario", action="append", metavar="ID",
                       help="scenario id (repeatable; default: all)")
    run_p.add_argument("--format", choices=("text", "json"), default="text")
    run_p.add_argument("--out", metavar="PATH",
                       help="write the report here instead of stdout")

    sub.add_parser("list", help="list scenario ids")
    return parser


def _reference(argv):
    """What the argparse route made of ``argv``: the
    ``(command, scenario, format, out)`` it read, or its exit code (2 for
    no command, as its ``main`` returned)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    if args.command is None:
        return 2
    return (args.command, getattr(args, "scenario", None),
            getattr(args, "format", "text"), getattr(args, "out", None))


def _read(argv):
    """The same for ``cli.read_argv``: 0 for help, 2 for a refusal."""
    try:
        read = read_argv(argv)
    except ValueError:
        return 2
    return 0 if read[0] == "help" else read


def test_the_reader_matches_the_argparse_reference():
    """Half the lists are accepted forms of ``run``: each option in full or
    by a prefix, with its value as the next word or after "=", repeated
    at will.  The rest mix those with refused values, missing values,
    help, bogus words, options after ``list``, and a command that is
    misspelt, missing or late."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # per option, the values argparse accepts and those it refuses
    values = {"--scenario": (["gamma", "delta", "x", "run", "-", "-1", "-.5",
                              "a b", "-a b", ""], ["-x", "-1.", "--", "-h"]),
              "--format": (["text", "json"], ["xml", "JSON", "", "-1"]),
              "--out": (["r.json", "-", "a b"], ["-x", "--out", "--o=x"])}

    @st.composite
    def option(draw, accepted):
        name = draw(st.sampled_from(sorted(values)))
        spelling = name[:draw(st.integers(3, len(name)))]
        good, bad = values[name]
        refused = not accepted and draw(st.integers(0, 4)) == 0
        value = draw(st.sampled_from(bad if refused else good))
        form = draw(st.sampled_from(("word", "=") if accepted
                                    else ("word", "word", "=", "missing")))
        return {"word": [spelling, value], "=": [f"{spelling}={value}"],
                "missing": [spelling]}[form]

    accepted = st.lists(option(True), max_size=5).map(
        lambda fragments: ["run", *(w for f in fragments for w in f)])
    other = st.sampled_from((
        ["-h"], ["--help"], ["--he"], ["--help=x"], ["-h=x"], ["--bogus"],
        ["--bogus=1"], ["--Format", "json"], ["-x"], ["-s"], ["--"], ["-"],
        ["-1"], ["stray"], ["run"], ["list"]))

    @st.composite
    def mixed(draw):
        fragments = st.one_of(*[option(False)] * 3, other)
        words = [w for f in draw(st.lists(fragments, max_size=5)) for w in f]
        command = draw(st.sampled_from(("run", "run", "list", "lis", None)))
        if command:
            at = draw(st.sampled_from((0, 0, len(words))))
            words.insert(draw(st.integers(0, at)), command)
        return words

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None,
                         database=None)
    @hypothesis.given(accepted | mixed())
    def agree(argv):
        assert _read(argv) == _reference(argv)

    agree()


@pytest.mark.parametrize("argv, read", [
    (["run"], ("run", None, "text", None)),
    (["list"], ("list", None, "text", None)),
    (["run", "--form", "json", "--sc=gamma", "--scenario", "delta",
      "--o", "r.json"], ("run", ["gamma", "delta"], "json", "r.json")),
    (["run", "--f", "json", "--format=text", "--out=", "--scen", "-"],
     ("run", ["-"], "text", "")),
    (["run", "--scenario", "-1", "--sc", "-.5", "--out", "-a b"],
     ("run", ["-1", "-.5"], "text", "-a b")),
], ids=["run", "list", "prefixes", "last-wins", "values"])
def test_the_reader_accepts_the_parser_forms(argv, read):
    assert read_argv(argv) == read == _reference(argv)


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["run", "--form", "json", "-h"], ["list", "--he"],
    ["--bogus", "run", "stray", "--help"], ["run", "-h", "--format", "xml"],
], ids=["short", "long", "after-options", "prefix", "after-strays",
        "before-an-error"])
def test_help_prints_the_usage_to_stdout_and_exits_0(argv, capsys):
    assert _reference(argv) == 0
    assert main(argv) == 0
    assert capsys.readouterr() == (cli.__doc__.strip() + "\n", "")


def test_help_without_docstrings_exits_0():
    # python -OO drops the module docstring that -h prints
    proc = _python("-OO", "-m", "stablelimit", "-h")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


@pytest.mark.parametrize("argv, reason", [
    ([], "a command is required"),
    (["bogus", "run"], "no command 'bogus'; use run or list"),
    (["run", "stray"], "unrecognized arguments: stray"),
    (["--bogus", "run", "--bogus=1"],
     "unrecognized arguments: --bogus --bogus=1"),
    (["list", "--format", "json"], "unrecognized arguments: --format json"),
    (["run", "--format"], "--format needs a value"),
    (["run", "--out", "--scenario", "gamma"], "--out needs a value"),
    (["run", "--scenario", "-1."], "--scenario needs a value"),
    (["run", "--format", "xml", "-h"],
     "--format is text or json, not 'xml'"),
    (["--help=x"], "--help takes no value: --help=x"),
    (["run", "--", "-h"], "unrecognized argument: --"),
], ids=["no-command", "unknown-command", "stray-word", "unknown-options",
        "option-after-list", "missing-value", "option-as-value",
        "option-like-number",
        "bad-format", "help-with-value", "double-dash"])
def test_a_refused_command_line_prints_the_usage_and_reason_and_exits_2(
        argv, reason, capsys):
    assert _reference(argv) == 2
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{cli.__doc__}\nstablelimit: error: {reason}\n"


@pytest.mark.parametrize("argv", [
    ["run", "--out="], ["run", "--scenario", "gamma", "--out", ""],
    ["run", "--out", "r.json", "--o="],
], ids=["equals", "separate", "last-wins"])
def test_an_empty_out_path_is_refused_before_any_scenario_runs(
        argv, capsys, monkeypatch):
    monkeypatch.setattr(scenarios, "run_many", None)
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"{cli.__doc__}\nstablelimit: error: --out needs a path\n")


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
# runpy and importlib of ``-m``, and what typing and re import.
# sre_compile, sre_constants and sre_parse are re's modules in Python 3.10,
# whose re also imports _locale.
COLD_RUN_STDLIB = frozenset("""
    __future__ _collections _collections_abc _functools _json _locale
    _operator _sre _stat _struct _typing collections contextlib copyreg
    enum functools gc genericpath importlib itertools keyword math operator
    os posixpath re reprlib runpy sre_compile sre_constants sre_parse stat
    struct types typing warnings
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
                                  "dataclasses", "inspect", "random",
                                  "argparse", "gettext", "locale"}
    # the package itself is imported through -m, so the probe sees what
    # a run imports
    assert {"_json", "runpy"} <= run - bare


def test_a_cold_run_rejects_an_unknown_id_with_exit_code_2():
    proc = _python("-m", "stablelimit", "run", "--scenario", "no-such-id")
    assert proc.returncode == 2
    assert "no-such-id" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [
    ["run", "--format", "json"], ["run", "--scenario", "gamma"], ["list"],
    ["--help"],
], ids=["full-report", "one-scenario", "list", "help"])
def test_a_cold_run_into_a_full_device_reports_it_and_exits_2(argv):
    # a report larger than stdout's buffer fails in the write, a smaller
    # one in the flush; either way once, with no traceback at shutdown
    with open("/dev/full", "w") as full:
        proc = _python("-m", "stablelimit", *argv, stdout=full)
    assert proc.returncode == 2
    assert proc.stderr.startswith("cannot write report: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_a_cold_run_writes_the_golden_report_to_its_out_file(tmp_path):
    target = tmp_path / "report.json"
    proc = _python("-m", "stablelimit", "run", "--format", "json",
                   "--out", str(target))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    text = re.sub(r'"millis": [-+.0-9e]+', '"millis": 0.0',
                  target.read_text(encoding="utf-8"))
    assert text == GOLDEN_REPORT.read_text(encoding="utf-8")


def test_a_full_run_leaves_the_committed_statements_unexecuted():
    """Each scope's count of statements that a full run leaves unexecuted
    equals ``tests/unexecuted.json``, so a change that deletes dead code,
    or leaves more code unrun, updates that file in the same diff
    (``PYTHONPATH=src python tests/unexecuted.py --json``)."""
    here = Path(__file__).parent
    proc = _python(str(here / "unexecuted.py"), "--json")
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    committed = json.loads((here / "unexecuted.json").read_text())
    # scope: (committed count, count found now)
    assert {scope: (committed.get(scope, 0), found.get(scope, 0))
            for scope in committed.keys() | found.keys()
            if committed.get(scope) != found.get(scope)} == {}


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

"""The package's standing rules, each held by a check: exact arithmetic
only, the same report under any hash seed, and a committed size."""

import ast
import json
import re
from pathlib import Path

import size
from test_cli import _python

SRC = size.SRC
# math functions that stay exact on ints
EXACT_MATH = {"comb", "gcd"}
# where a float may appear: the JSON rendering, and the run's millis
FLOAT_ALLOWED = {"report.py": None, "scenarios.py": "run_scenario"}


def _inexact(tree: ast.Module, skip: str | None):
    """(line, what) of each float literal, true division, ``float`` call
    and inexact ``math`` function in the tree, outside the top-level
    function named ``skip``."""
    math_names = set()
    nodes = [node for top in tree.body
             if not (isinstance(top, ast.FunctionDef) and top.name == skip)
             for node in ast.walk(top)]
    for node in nodes:
        if isinstance(node, ast.Import):
            math_names |= {a.asname or a.name for a in node.names
                           if a.name == "math"}
    for node in nodes:
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, (float, complex))):
            yield node.lineno, f"float literal {node.value!r}"
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.Div)):
            yield node.lineno, "true division"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float() call"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in EXACT_MATH:
                    yield node.lineno, f"math.{alias.name}"
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in math_names
              and node.attr not in EXACT_MATH):
            yield node.lineno, f"math.{node.attr}"


def test_src_has_no_float_true_division_or_inexact_math():
    """No float literal, true division, ``float`` call or ``math``
    function other than ``comb`` and ``gcd`` in the package, outside
    ``report.py`` and ``scenarios.run_scenario``'s timing."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in FLOAT_ALLOWED and FLOAT_ALLOWED[path.name] is None:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line}: {what}" for line, what
                  in _inexact(tree, FLOAT_ALLOWED.get(path.name))]
    assert found == []


def test_the_report_is_the_same_under_two_hash_seeds(monkeypatch):
    """Two fresh ``run --format json`` processes under different
    ``PYTHONHASHSEED`` values print the same report, ``millis`` zeroed:
    nothing in it follows the iteration order of a set or of a hash."""
    reports = []
    for seed in ("0", "12345"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        proc = _python("-m", "stablelimit", "run", "--format", "json")
        assert proc.returncode == 1, proc.stderr    # the lattice scenario
        reports.append(re.sub(r'"millis": [-+.0-9e]+', '"millis": 0.0',
                              proc.stdout))
    assert reports[0] == reports[1]


def test_src_sizes_equal_the_committed_counts():
    """The ``wc -l`` count of each file of the package and its code lines
    equal ``tests/size.json``, so every change in size shows in the diff
    (``python tests/size.py --json > tests/size.json``)."""
    committed = json.loads((Path(__file__).parent / "size.json").read_text())
    assert size.sizes() == committed

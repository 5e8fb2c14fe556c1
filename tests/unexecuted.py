"""The statements of the package that one full run leaves unexecuted.

A line tracer (``sys.settrace``; coverage is not a dependency), set before
the package is imported, follows one cold ``python -m stablelimit run
--format json`` as ``runpy`` runs it, entry point included, with its
report caught in memory and ``os._exit`` raising ``SystemExit`` in its
place, and then ``render_text`` of a second, warm ``run_many``, since the
cold run renders JSON only.  Statements are AST statements outside
``cli.py``, with docstrings left out; one counts as executed when its
first line ran.  Each statement is charged to its scope
``module:qualname``: the innermost function or class around it, or
``module:<module>`` at the top level.

    PYTHONPATH=src python tests/unexecuted.py          # table per module
    PYTHONPATH=src python tests/unexecuted.py --json   # {scope: count}

``--json`` prints the scopes with at least one unexecuted statement, in
the form of the committed ``tests/unexecuted.json``.
"""

import ast
import contextlib
import gc
import importlib.util
import io
import json
import os
import runpy
import sys

SRC = importlib.util.find_spec("stablelimit").submodule_search_locations[0]


def _trace_full_run() -> dict[str, set[int]]:
    """The lines of each file of the package that a full run executed."""
    ran = {}

    def lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(SRC):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return lines

    def raise_exit(code):
        raise SystemExit(code)

    argv, os_exit = sys.argv, os._exit
    sys.argv = ["stablelimit", "run", "--format", "json"]
    os._exit = raise_exit       # the entry point ends its process with it
    sys.settrace(calls)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_module("stablelimit", run_name="__main__")
    except SystemExit as exit_:
        if exit_.code != 1:     # the lattice scenario fails on purpose
            raise
    finally:
        sys.argv, os._exit = argv, os_exit
    from stablelimit import __version__, report, scenarios
    report.render_text(scenarios.run_many(None), __version__)
    sys.settrace(None)
    gc.enable()                 # the entry point turned the collector off
    return ran


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _statements(tree: ast.Module):
    """Each statement that is not a docstring, with its scope's qualname."""
    def walk(node, qualname, in_function):
        doc = (node.body[0] if isinstance(node, (ast.Module, *_SCOPES))
               and ast.get_docstring(node, clean=False) is not None else None)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and child is not doc:
                yield child, qualname or "<module>"
            if isinstance(child, _SCOPES):
                prefix = (f"{qualname}.<locals>." if in_function
                          else f"{qualname}." if qualname else "")
                yield from walk(child, prefix + child.name,
                                not isinstance(child, ast.ClassDef))
            else:
                yield from walk(child, qualname, in_function)

    yield from walk(tree, "", False)


def inventory() -> dict[str, list[int]]:
    """[unexecuted, all] statement counts of each scope of the package."""
    ran = _trace_full_run()
    counts = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "cli.py":
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node, qualname in _statements(tree):
            count = counts.setdefault(f"{name[:-3]}:{qualname}", [0, 0])
            count[0] += node.lineno not in ran.get(path, ())
            count[1] += 1
    return counts


def main(argv) -> None:
    counts = inventory()
    if argv == ["--json"]:
        print(json.dumps({scope: missed for scope, (missed, _) in
                          sorted(counts.items()) if missed}, indent=1))
        return
    modules = {}
    for scope, count in counts.items():
        total = modules.setdefault(scope.partition(":")[0], [0, 0])
        total[0] += count[0]
        total[1] += count[1]
    print("### Statements a full run leaves unexecuted")
    print("```")
    for module, (missed, total) in sorted(modules.items()):
        print(f"{module:16} {missed:4} of {total:4}")
    scopes = sum(1 for missed, _ in counts.values() if missed)
    print(f"{'total':16} {sum(m for m, _ in modules.values()):4} "
          f"in {scopes} scopes")
    print("```")


if __name__ == "__main__":
    main(sys.argv[1:])

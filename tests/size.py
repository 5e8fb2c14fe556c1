"""The size of the package: the ``wc -l`` line count of each file of
``src/stablelimit`` and its code lines, the lines that hold a token other
than a comment, a newline or indentation, outside every docstring.

    python tests/size.py          # the code-line count
    python tests/size.py --json   # per-file lines and code lines

``--json`` prints the form of the committed ``tests/size.json``.
"""

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stablelimit"

_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The lines of ``source`` with a code token, docstrings left out."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, _DOCUMENTED) and node.body
                and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _BLANK:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def sizes() -> dict:
    """{"lines": {file: wc -l count}, "code_lines": total code lines}."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    return {"lines": {name: source.count("\n")
                      for name, source in sources.items()},
            "code_lines": sum(map(code_lines, sources.values()))}


def main(argv) -> None:
    counts = sizes()
    if argv == ["--json"]:
        print(json.dumps(counts, indent=1))
        return
    print(f"code lines (tokenize, docstrings left out): "
          f"{counts['code_lines']}")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Structured verification reports.

Each scenario produces one report: a stable identifier, a pass/fail/error
status, the computed values, the expected values with provenance tags,
a one-line statement of the claim checked, optional flags (a flagged
report still passes but is surfaced in summaries), and free-form notes.
Reports are deterministic apart from the timing field.
"""

from __future__ import annotations

from _json import encode_basestring_ascii as _string


PROVENANCE_TAGS = ("published", "derived", "definitional")

_NONFINITE = {float("inf"): "Infinity", float("-inf"): "-Infinity"}

_UNSTATED = object()    # no expected value given to ``record``


# the text of a JSON scalar, by its exact type
_SCALAR = {str: _string, int: int.__repr__,
           float: lambda f: ("NaN" if f != f else
                             _NONFINITE.get(f) or float.__repr__(f)),
           bool: lambda b: "true" if b else "false",
           type(None): lambda _: "null"}


class VerificationReport:
    __slots__ = ("scenario_id", "status", "citation", "computed", "expected",
                 "provenance", "flags", "notes", "millis")

    def __init__(self, scenario_id: str, status: str = "pass",
                 citation: str = ""):
        self.scenario_id = scenario_id
        self.status = status            # "pass" | "fail" | "error"
        self.citation = citation        # one-line statement of the claim
        self.computed = {}
        self.expected = {}
        self.provenance = {}
        self.flags = []
        self.notes = []
        self.millis = 0.0

    def record(self, key: str, computed, tag: str,
               expected=_UNSTATED) -> None:
        """Record a computed value under its provenance tag and, when one
        is given, the value expected of it; pass or fail is not decided."""
        if tag not in PROVENANCE_TAGS:
            raise ValueError(f"unknown provenance tag {tag!r}")
        self.computed[key] = _plain(computed)
        if expected is not _UNSTATED:
            self.expected[key] = _plain(expected)
        self.provenance[key] = tag

    def check(self, key: str, computed, expected, tag: str = "published") -> bool:
        """Record a computed/expected pair; a mismatch fails the report."""
        self.record(key, computed, tag, expected)
        computed, expected = self.computed[key], self.expected[key]
        ok = computed == expected
        if not ok:
            self.status = "fail"
            self.notes.append(f"mismatch at {key}: computed "
                              f"{computed!r}, expected {expected!r}")
        return ok

    def require(self, key: str, condition: bool, note: str = "") -> bool:
        """Record a boolean check; False fails the report."""
        self.record(key, bool(condition), "definitional", True)
        if not condition:
            self.status = "fail"
            if note:
                self.notes.append(note)
        return bool(condition)

    def flag(self, message: str) -> None:
        self.flags.append(message)

    def note(self, message: str) -> None:
        self.notes.append(message)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "id": self.scenario_id,
            "status": self.status,
            "citation": self.citation,
            "computed": self.computed,
            "expected": self.expected,
            "provenance": self.provenance,
            "flags": list(self.flags),
            "notes": list(self.notes),
            "millis": round(self.millis, 3),
        }


def _plain(value):
    """Coerce values into JSON-stable primitives."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return str(value)


def render_json(reports, version: str) -> str:
    passed = sum(1 for r in reports if r.passed)
    failed = sum(1 for r in reports if r.status == "fail")
    errored = sum(1 for r in reports if r.status == "error")
    flagged = sum(1 for r in reports if r.flags)
    doc = {
        "version": version,
        "prime": 7,
        "scenarios": [r.to_dict() for r in reports],
        "summary": {
            "passed": passed,
            "failed": failed + errored,
            "flagged": flagged,
        },
    }
    return _render(doc, "")


def _render(value, indent: str) -> str:
    """The text of ``json.dumps(value, indent=2)``, without the pure-Python
    encoder that ``json`` falls back to when it indents, joined once from
    one list of pieces.  Object keys must be strings; any other non-JSON
    value raises ``TypeError``."""
    parts = []
    _write(value, indent, parts)
    return "".join(parts)


def _write(value, indent: str, parts: list) -> None:
    """Append the pieces of ``value``'s text to ``parts``.  An item whose
    exact type is a JSON scalar type is written with no recursive call."""
    write, scalar_of = parts.append, _SCALAR.get
    inner = indent + "  "
    sep = "\n" + inner
    if isinstance(value, dict):
        write("{")
        for k, v in value.items():
            write(f"{sep}{_string(k)}: ")   # TypeError if k is not a str
            scalar = scalar_of(type(v))
            if scalar is None:
                _write(v, inner, parts)
            else:
                write(scalar(v))
            sep = ",\n" + inner
        write("\n" + indent + "}" if value else "}")
    elif isinstance(value, (list, tuple)):
        write("[")
        for v in value:
            write(sep)
            scalar = scalar_of(type(v))
            if scalar is None:
                _write(v, inner, parts)
            else:
                write(scalar(v))
            sep = ",\n" + inner
        write("\n" + indent + "]" if value else "]")
    else:
        scalar = scalar_of(type(value)) or next(
            (_SCALAR[t] for t in (str, int, float) if isinstance(value, t)),
            None)
        if scalar is None:
            raise TypeError(f"Object of type {type(value).__name__} "
                            "is not JSON serializable")
        write(scalar(value))


def render_text(reports, version: str) -> str:
    lines = []
    width = max((len(r.scenario_id) for r in reports), default=10)
    for r in reports:
        mark = {"pass": "ok", "fail": "FAIL", "error": "ERROR"}[r.status]
        flag = " [flagged]" if r.flags else ""
        lines.append(f"{r.scenario_id:<{width}}  {mark}{flag}  {r.citation}")
        for f in r.flags:
            lines.append(f"{'':<{width}}    note: {f}")
        if r.status != "pass":
            for n in r.notes:
                lines.append(f"{'':<{width}}    {n}")
    passed = sum(1 for r in reports if r.passed)
    flagged = sum(1 for r in reports if r.flags)
    lines.append(f"{passed}/{len(reports)} passed"
                 + (f" ({flagged} flagged)" if flagged else ""))
    return "\n".join(lines)

"""Command-line runner for the verification scenarios.

usage: stablelimit run [--scenario ID]... [--format text|json] [--out PATH]
       stablelimit list
       stablelimit -h | --help

run runs the scenarios named by --scenario (default: all) and writes a
text or JSON report to stdout or to PATH; list prints the ids and claims.
A value follows its option as the next word or after "=", an option may
be cut to a prefix (--form json), and -h prints this text and exits 0.

Exit codes: 0 when every selected scenario passes (flagged passes count
as passes but are listed in the summary), 1 when any scenario fails,
2 for usage or I/O errors, also for a refused word before an -h.
"""

import sys

from . import __version__, scenarios
from .report import render_json, render_text

HELP = ("-h", "--help")


def _option(word, known):
    """The option of ``known`` that ``word`` names before any "=", in full
    or by a prefix; "" for another option-like word; None for a value."""
    name = word.partition("=")[0]
    for option in known:
        if name == option or (len(name) > 2 and name[:2] == "--"
                               and option.startswith(name)):
            return option
    number = word[1:].replace(".", "", 1).isdecimal() and word[-1] != "."
    return None if word[:1] != "-" or word == "-" or number or " " in word \
        else ""


def read_argv(argv):
    """``(command, scenario ids or None, format, out path or None)``, with
    command "help" after -h; ``ValueError`` with the reason on a refusal."""
    command, stray = None, []
    got = {"--scenario": None, "--format": "text", "--out": None}
    for word in (words := iter(argv)):
        known = HELP + tuple(got) if command == "run" else HELP
        option = _option(word, known)
        value = word.partition("=")[2] if "=" in word else None
        if option in HELP:
            if value is not None:
                raise ValueError(f"{option} takes no value: {word}")
            return "help", None, "text", None
        if option:
            if value is None:
                value = next(words, None)
                if value is None or _option(value, known) is not None:
                    raise ValueError(f"{option} needs a value")
            if option == "--format" and value not in ("text", "json"):
                raise ValueError(f"--format is text or json, not {value!r}")
            if option == "--scenario":
                value = (got[option] or []) + [value]
            got[option] = value
        elif word.partition("=")[0] == "--":
            raise ValueError(f"unrecognized argument: {word}")
        elif command is None and option is None:
            if word not in ("run", "list"):
                raise ValueError(f"no command {word!r}; use run or list")
            command = word
        else:
            stray.append(word)      # argparse, too, refused these last
    if stray or command is None:
        raise ValueError(f"unrecognized arguments: {' '.join(stray)}"
                         if stray else "a command is required")
    return command, *got.values()


def main(argv=None) -> int:
    try:
        command, ids, fmt, out = read_argv(
            sys.argv[1:] if argv is None else argv)
        if out == "":       # most likely a shell variable that was not set
            raise ValueError("--out needs a path")
    except ValueError as exc:
        print(__doc__ or "", f"stablelimit: error: {exc}", sep="\n",
              file=sys.stderr)
        return 2
    code = 0
    if command == "help":
        payload = (__doc__ or "").strip()     # python -OO drops it
    elif command == "list":
        width = max(map(len, scenarios.SCENARIOS))
        payload = "\n".join(f"{sid:<{width}}  {claim}" for sid, (claim, _)
                            in scenarios.SCENARIOS.items())
    else:
        unknown = [sid for sid in ids or () if sid not in scenarios.SCENARIOS]
        if unknown:
            print(f"unknown scenario id(s): {', '.join(unknown)}",
                  f"known ids: {', '.join(scenarios.SCENARIOS)}",
                  sep="\n", file=sys.stderr)
            return 2
        reports = scenarios.run_many(ids)
        render = render_json if fmt == "json" else render_text
        payload = render(reports, __version__)
        code = 0 if all(r.passed for r in reports) else 1
    try:
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        elif sys.stdout is None:    # the process started with it closed
            raise OSError("stdout is closed")
        else:
            print(payload, flush=True)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2
    return code

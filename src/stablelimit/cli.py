"""Command-line runner for the verification scenarios.

Usage:

    stablelimit run [--scenario ID ...] [--format text|json] [--out PATH]
    stablelimit list

Exit codes: 0 when every selected scenario passes (flagged passes count
as passes but are listed in the summary), 1 when any scenario fails,
2 for usage or I/O errors.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, scenarios
from .report import render_json, render_text


def build_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        width = max(map(len, scenarios.SCENARIOS))
        for sid, (claim, _) in scenarios.SCENARIOS.items():
            print(f"{sid:<{width}}  {claim}")
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2

    unknown = [sid for sid in args.scenario or ()
               if sid not in scenarios.SCENARIOS]
    if unknown:
        print(f"unknown scenario id(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"known ids: {', '.join(scenarios.SCENARIOS)}",
              file=sys.stderr)
        return 2

    reports = scenarios.run_many(args.scenario)
    if args.format == "json":
        payload = render_json(reports, __version__)
    else:
        payload = render_text(reports, __version__)

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        print(payload)

    return 0 if all(r.passed for r in reports) else 1

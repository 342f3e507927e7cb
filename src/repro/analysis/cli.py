"""Command line interface: ``python -m repro.analysis [paths...]``.

Runs every rule and prints the findings as text, one per line, then their
count.  Exit codes: 0 = clean, 1 = findings reported, 2 = usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, TextIO

from .rules import RULES
from .runner import lint_paths


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Codebase-specific lint for the WL-Reviver reproduction.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe every rule and exit")
    return parser


def main(argv: Optional[List[str]] = None,
         stream: Optional[TextIO] = None) -> int:
    """Run the linter; returns the process exit code."""
    out = stream if stream is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in RULES:
            print(f"{rule.id}: {rule.summary}", file=out)
            print(f"    guards against: {rule.rationale}", file=out)
        return 0
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(map(str, missing))}", file=out)
        return 2
    findings = lint_paths(paths)
    for finding in findings:
        print(finding.render(), file=out)
    noun = "finding" if len(findings) == 1 else "findings"
    print(f"{len(findings)} {noun}", file=out)
    return 1 if findings else 0

"""Command line interface: ``python -m repro.analysis [paths...]``.

Exit codes: 0 = clean, 1 = findings reported, 2 = usage error.

Beyond the original text/JSON report the CLI grew the CI machinery of
the whole-program analyzer:

* ``--format sarif`` emits a SARIF 2.1.0 log for PR annotation;
* ``--cache FILE`` makes re-runs incremental — an unchanged tree with an
  unchanged ruleset replays findings with zero re-parses; ``--stats``
  prints the hit/miss/parse counters that prove it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, TextIO

from ..errors import ConfigurationError
from .cache import AnalysisCache
from .core import Finding
from .registry import all_rules, get_rule
from .runner import lint_paths
from .sarif import to_sarif


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Codebase-specific lint for the WL-Reviver reproduction.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="output format (default: text)")
    parser.add_argument("--select", default=None, metavar="RULE[,RULE...]",
                        help="run only the named rules")
    parser.add_argument("--cache", default=None, metavar="FILE",
                        help="incremental-analysis cache file (content-"
                             "hashed, ruleset-versioned)")
    parser.add_argument("--stats", action="store_true",
                        help="print cache hit/miss/parse counters")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe every registered rule and exit")
    return parser


def _render_text(findings: List[Finding], stream: TextIO) -> None:
    for finding in findings:
        print(finding.render(), file=stream)
    noun = "finding" if len(findings) == 1 else "findings"
    print(f"{len(findings)} {noun}", file=stream)


def _render_json(findings: List[Finding], stream: TextIO) -> None:
    payload = {
        "findings": [finding.as_dict() for finding in findings],
        "count": len(findings),
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def main(argv: Optional[List[str]] = None,
         stream: Optional[TextIO] = None) -> int:
    """Run the linter; returns the process exit code."""
    out = stream if stream is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}: {rule.summary}", file=out)
            print(f"    guards against: {rule.rationale}", file=out)
        return 0
    try:
        rules = ([get_rule(name) for name in args.select.split(",")]
                 if args.select else None)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=out)
        return 2
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(map(str, missing))}", file=out)
        return 2
    cache = AnalysisCache(Path(args.cache)) if args.cache else None
    findings = lint_paths(paths, rules, cache=cache)
    if args.format == "json":
        _render_json(findings, out)
    elif args.format == "sarif":
        json.dump(to_sarif(findings, rules if rules is not None
                           else all_rules()), out, indent=2)
        out.write("\n")
    else:
        _render_text(findings, out)
    if args.stats and cache is not None:
        print(f"cache: {cache.stats.hits} hit(s), "
              f"{cache.stats.misses} miss(es), "
              f"{cache.stats.parses} parse(s)", file=out)
    return 1 if findings else 0

"""File discovery and rule execution.

``lint_source`` is the single entry point tests and the CLI share: parse,
run every applicable rule, then apply suppressions.  Two framework-level
findings exist outside the rule set: ``PARSE`` (a file that does not
parse cannot be certified clean) and ``ALLOW-REASON`` (a suppression comment
without a justification).  ``lint_paths`` lints every file under a set of
paths.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Sequence, Set

from .core import Finding, Rule, SourceFile
from .rules import RULES


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of unique ``.py`` files.

    Overlapping inputs — a directory plus a file inside it, or the same
    path twice — must not lint (and report) a file twice, so entries are
    deduplicated by resolved path before the final sort.
    """
    files: List[Path] = []
    seen: Set[Path] = set()
    for path in paths:
        candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(candidate)
    files.sort(key=lambda p: p.as_posix())
    return files


def _parse_finding(path: Path, exc: SyntaxError) -> Finding:
    # ``exc.offset`` is 1-based but tokenizer errors can report 0 (and the
    # attribute may be None); clamp so the rendered 1-based column never
    # underflows to ``:0``.
    return Finding(rule="PARSE", path=path.as_posix(),
                   line=exc.lineno or 1,
                   col=max(0, (exc.offset or 1) - 1),
                   message=f"file does not parse: {exc.msg}")


def lint_source(text: str, path: Path,
                rules: Iterable[Rule] = RULES) -> List[Finding]:
    """Lint one module's source; returns findings sorted by position."""
    try:
        src = SourceFile(path, text)
    except SyntaxError as exc:
        return [_parse_finding(path, exc)]
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies_to(src):
            continue
        findings.extend(
            finding for finding in rule.check(src)
            if not src.suppressions.is_suppressed(rule.id, finding.line))
    for line, col in src.suppressions.missing_reason:
        findings.append(Finding(
            rule="ALLOW-REASON", path=src.posix, line=line, col=col,
            message="suppression without a justification; write "
                    "`# repro: allow(RULE): why this is safe here`"))
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def lint_paths(paths: Sequence[Path]) -> List[Finding]:
    """Lint every python file under *paths* with every rule.

    Files come in posix-path order and each file's findings are sorted,
    so the result is sorted by location.
    """
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_source(path.read_text(encoding="utf-8"), path))
    return findings

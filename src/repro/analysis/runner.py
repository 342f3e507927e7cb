"""File discovery and rule execution.

``lint_source`` is the single entry point tests and the CLI share: parse,
run every applicable rule, then apply suppressions.  Two framework-level
findings exist outside the rule registry: ``PARSE`` (a file that does not
parse cannot be certified clean) and ``ALLOW-REASON`` (a suppression comment
without a justification).

``lint_paths`` lints every file under a set of paths.  An optional
:class:`~repro.analysis.cache.AnalysisCache` makes re-runs incremental:
when no file changed and the ruleset is the same, findings replay from
the cache with zero re-parses.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .cache import AnalysisCache, ruleset_fingerprint, tree_digest
from .core import Finding, Rule, SourceFile
from .registry import all_rules


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


def _check_source(src: SourceFile, rules: Sequence[Rule]) -> List[Finding]:
    """Run every applicable rule on one parsed file, apply suppressions."""
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
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(text: str, path: Path,
                rules: Optional[Iterable[Rule]] = None) -> List[Finding]:
    """Lint one module's source; returns findings sorted by position."""
    selected = list(rules) if rules is not None else all_rules()
    try:
        src = SourceFile(path, text)
    except SyntaxError as exc:
        return [_parse_finding(path, exc)]
    return _check_source(src, selected)


def lint_paths(paths: Sequence[Path],
               rules: Optional[Iterable[Rule]] = None,
               cache: Optional[AnalysisCache] = None) -> List[Finding]:
    """Lint every python file under *paths*; findings sorted by location.

    With *cache*, an unchanged tree (same contents, same ruleset) replays
    stored findings without parsing anything; any change re-lints the
    full tree.
    """
    selected = list(rules) if rules is not None else all_rules()
    files = iter_python_files(paths)
    contents: List[Tuple[Path, str]] = [
        (path, path.read_text(encoding="utf-8")) for path in files]
    if cache is not None:
        ruleset = ruleset_fingerprint(selected)
        digest = tree_digest(
            (path.as_posix(), text) for path, text in contents)
        cached = cache.lookup(ruleset, digest)
        if cached is not None:
            return cached
    findings: List[Finding] = []
    for path, text in contents:
        try:
            src = SourceFile(path, text)
        except SyntaxError as exc:
            findings.append(_parse_finding(path, exc))
            continue
        if cache is not None:
            cache.stats.parses += 1
        findings.extend(_check_source(src, selected))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    if cache is not None:
        cache.store(ruleset, digest, findings)
    return findings

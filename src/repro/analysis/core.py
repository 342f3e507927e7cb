"""Visitor core of the lint framework: findings, source files, rule base.

A :class:`Rule` owns one bug class.  It sees a fully parsed
:class:`SourceFile` and returns :class:`Finding` records; the runner applies
suppressions and path exemptions so rules stay purely syntactic.
"""

from __future__ import annotations

import ast
import fnmatch
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

from .suppressions import SuppressionIndex, scan_suppressions


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """Human-readable one-liner (1-based column, editor-clickable)."""
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


class SourceFile:
    """A parsed module plus everything rules and the runner need."""

    def __init__(self, path: Path, text: str) -> None:
        self.path = path
        self.text = text
        self.tree: ast.Module = ast.parse(text, filename=str(path))
        self.suppressions: SuppressionIndex = scan_suppressions(text)

    @property
    def posix(self) -> str:
        """Path with forward slashes, for pattern matching and output."""
        return self.path.as_posix()


class Rule:
    """Base class: one self-describing lint rule.

    Subclasses set :attr:`id`, :attr:`summary`, optionally
    :attr:`exempt_patterns` (fnmatch patterns over the posix path naming the
    modules allowed to do what the rule bans), and implement :meth:`check`.
    """

    id: str = ""
    summary: str = ""
    #: The shipped bug (or broken guarantee) this rule exists to prevent.
    rationale: str = ""
    exempt_patterns: Tuple[str, ...] = ()

    def applies_to(self, src: SourceFile) -> bool:
        """Whether *src* is subject to this rule (not an exempt module)."""
        return not any(fnmatch.fnmatch(src.posix, pattern)
                       for pattern in self.exempt_patterns)

    def check(self, src: SourceFile) -> List[Finding]:
        """Return every violation in *src* (suppressions handled later)."""
        raise NotImplementedError

    def finding(self, src: SourceFile, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at *node*."""
        return Finding(rule=self.id, path=src.posix,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       message=message)


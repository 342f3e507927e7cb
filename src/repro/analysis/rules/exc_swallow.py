"""EXC-SWALLOW: except clauses broad enough to eat ProtocolError.

:class:`~repro.errors.ProtocolError` means a framework invariant broke —
the one exception that must *never* be absorbed, because a swallowed
violation turns into silent wear-accounting divergence many epochs later.
A bare ``except:``, or a handler for ``Exception`` / ``BaseException`` /
``ReproError`` that does not re-raise, can absorb it; narrower handlers
(``WriteFault``, ``CapacityExhaustedError``, ...) cannot and stay legal.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..core import Finding, Rule, SourceFile

#: Exception names that cover ProtocolError.
BROAD_NAMES = frozenset({"Exception", "BaseException", "ReproError"})


def _caught_names(expr: ast.expr) -> Iterable[str]:
    """Exception class names caught by an ``except <expr>`` clause."""
    nodes = expr.elts if isinstance(expr, ast.Tuple) else [expr]
    for node in nodes:
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _reraises(body: List[ast.stmt]) -> bool:
    """Whether the handler body contains any ``raise``."""
    return any(isinstance(node, ast.Raise)
               for stmt in body for node in ast.walk(stmt))


class ExceptionSwallowRule(Rule):
    """Ban bare / over-broad excepts that could absorb ProtocolError."""

    id = "EXC-SWALLOW"
    summary = ("bare or over-broad except (Exception/BaseException/"
               "ReproError) without a re-raise")
    rationale = ("a swallowed ProtocolError hides a protocol violation at "
                 "the moment it is cheapest to diagnose and lets wear "
                 "accounting diverge silently")

    def check(self, src: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(self.finding(
                    src, node,
                    "bare except can swallow ProtocolError; catch the "
                    "narrowest exception that can actually occur"))
                continue
            broad = [name for name in _caught_names(node.type)
                     if name in BROAD_NAMES]
            if broad and not _reraises(node.body):
                findings.append(self.finding(
                    src, node,
                    f"except {', '.join(broad)} without re-raise can "
                    f"swallow ProtocolError; narrow the handler or re-raise"))
        return findings

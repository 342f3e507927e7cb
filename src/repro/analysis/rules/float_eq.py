"""FLOAT-EQ: exact equality against float literals.

Lifetime fractions, CoV values and usable-space metrics are accumulated
floating point; comparing them with ``==`` / ``!=`` against a float literal
is at best fragile (one reordered reduction flips the branch) and at worst a
latent experiment-assertion bug.  Use ``math.isclose`` / ``np.isclose``, a
comparison (``<=``), or integer representations; genuinely exact sentinel
checks carry a justified ``# repro: allow(FLOAT-EQ)``.
"""

from __future__ import annotations

import ast
from typing import List

from ..core import Finding, Rule, SourceFile

_EQ_OPS = (ast.Eq, ast.NotEq)


class FloatEqualityRule(Rule):
    """Ban ``==`` / ``!=`` where an operand is a float literal."""

    id = "FLOAT-EQ"
    summary = "float-literal equality comparison (==/!=)"
    rationale = ("metrics are accumulated floats; exact equality silently "
                 "flips with any change in reduction order")

    def check(self, src: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, _EQ_OPS):
                    continue
                pair = (operands[index], operands[index + 1])
                if any(isinstance(side, ast.Constant)
                       and type(side.value) is float for side in pair):
                    findings.append(self.finding(
                        src, node,
                        "float-literal equality; use math.isclose/"
                        "np.isclose, an inequality, or integers"))
                    break
        return findings

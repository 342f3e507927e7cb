"""LINK-MUT: reaching into LinkTable/SparePool internals from outside.

Theorems 1-3 (WL-Reviver §IV) hold because every link-table and spare-pool
mutation flows through :class:`~repro.reviver.links.LinkTable` /
:class:`~repro.reviver.registers.SparePool` methods, which keep both pointer
directions, the FIFO register semantics, and the pending metadata-write
records in sync.  Touching ``_pointer`` / ``_inverse`` / ``_spares`` from
another module bypasses all three, producing exactly the silent
accounting-divergence bugs PR 1 had to fix — so outside :mod:`repro.reviver`
(and a class's own ``self``), those attributes are off limits.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from ..core import Finding, Rule, SourceFile

#: Private attributes owned by the reviver protocol structures.
PROTECTED_ATTRS = frozenset({"_pointer", "_inverse", "_spares"})


class LinkMutationRule(Rule):
    """Ban foreign access to reviver protocol-structure internals."""

    id = "LINK-MUT"
    summary = ("access to LinkTable/SparePool internals (_pointer, _inverse, "
               "_spares) from outside repro.reviver")
    rationale = ("mutating one link direction without the other (or a spare "
                 "without its register accounting) silently violates "
                 "Theorems 1-3; only the reviver package may do it")
    exempt_patterns: Tuple[str, ...] = ("*/repro/reviver/*",)

    def check(self, src: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in PROTECTED_ATTRS
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                findings.append(self.finding(
                    src, node,
                    f"foreign access to protocol internal `{node.attr}`; "
                    f"use the LinkTable/SparePool API so both directions "
                    f"and the metadata accounting stay in sync"))
        return findings

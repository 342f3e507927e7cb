"""RAW-GEOM: hand-rolled page-geometry arithmetic outside its owners.

PR 1's victim-page bug was exactly this shape: ``pa // blocks_per_page``
computed a page id from a PA without the :class:`~repro.osmodel.allocator.
PagePool` ``base_pa`` offset, silently retiring the wrong page once the
software window moved.  Every ``//``, ``%``, ``*`` or ``divmod`` whose
operand is a ``blocks_per_page`` value (or a ``bpp`` or ``page_blocks``
alias) re-derives page geometry that has exactly two owners —
:class:`~repro.osmodel.allocator.PagePool` for software-window PAs and
:mod:`repro.units` for raw 0-based block spaces — so outside those two
modules it is banned.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from ..core import Finding, Rule, SourceFile

#: Names whose involvement in arithmetic marks page-geometry math.
GEOMETRY_NAMES = frozenset({"blocks_per_page", "bpp", "page_blocks"})

_BANNED_OPS = (ast.FloorDiv, ast.Mod, ast.Mult)
_OP_SYMBOL = {ast.FloorDiv: "//", ast.Mod: "%", ast.Mult: "*"}


def _is_geometry_ref(node: ast.AST) -> bool:
    """Whether *node* is a direct reference to a page-size name."""
    if isinstance(node, ast.Name):
        return node.id in GEOMETRY_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in GEOMETRY_NAMES
    return False


class RawGeometryRule(Rule):
    """Ban raw ``blocks_per_page`` arithmetic outside the geometry owners."""

    id = "RAW-GEOM"
    summary = ("page-geometry arithmetic (//, %, *, divmod with "
               "blocks_per_page) outside osmodel.allocator / units")
    rationale = ("PR 1 shipped `pa // blocks_per_page` in sim/fast.py that "
                 "ignored PagePool.base_pa and retired the wrong victim page")
    exempt_patterns: Tuple[str, ...] = (
        "*/repro/osmodel/allocator.py",
        "*/repro/units.py",
    )

    def check(self, src: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, _BANNED_OPS):
                if _is_geometry_ref(node.left) or _is_geometry_ref(node.right):
                    symbol = _OP_SYMBOL[type(node.op)]
                    findings.append(self.finding(
                        src, node,
                        f"raw `{symbol}` arithmetic with blocks_per_page; "
                        f"use a PagePool or repro.units helper"))
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "divmod"
                    and any(_is_geometry_ref(arg) for arg in node.args)):
                findings.append(self.finding(
                    src, node,
                    "raw divmod() with blocks_per_page; "
                    "use a PagePool or repro.units helper"))
        return findings

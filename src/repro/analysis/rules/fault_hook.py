"""FAULT-HOOK: touching fault-injection hooks outside repro.faultinject.

The chip, the controllers, and both engines carry an ``inject`` attribute
that is ``None`` by default; when set, the hardware is *allowed to lie* —
reads raise transient errors, the controller crashes at protocol sites,
thresholds are clamped.  The disabled-hook guarantee (zero behavioral and
performance impact) and the reproducibility of chaos campaigns both rest
on one rule: only :mod:`repro.faultinject` may attach, detach, or call
those hooks.  A stray ``engine.inject = ...`` in an experiment or a
convenience ``chip.inject.on_read(...)`` in a test helper silently turns
a deterministic simulation into an injected one.

The array layer (:mod:`repro.array`) is deliberately *not* exempt: shard
cells receive per-shard schedules projected by
:func:`repro.faultinject.for_shard` and wire them with
``ScheduleDriver.attach_fast`` like everyone else — N devices are N
times the temptation to poke a hook directly.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from ..core import Finding, Rule, SourceFile

#: Attribute naming the injection hooks on chip/controller/engines.
HOOK_ATTR = "inject"


class FaultHookRule(Rule):
    """Ban foreign access to the ``inject`` fault-injection hooks."""

    id = "FAULT-HOOK"
    summary = ("access to fault-injection `inject` hooks from outside "
               "repro.faultinject")
    rationale = ("the disabled-hook guarantee (hooks are None, zero cost, "
                 "deterministic behavior) only holds if attaching and "
                 "driving hooks is confined to the faultinject package")
    exempt_patterns: Tuple[str, ...] = ("*/repro/faultinject/*",)

    def check(self, src: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr == HOOK_ATTR
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                findings.append(self.finding(
                    src, node,
                    f"foreign access to fault-injection hook `{node.attr}`; "
                    f"attach schedules through "
                    f"repro.faultinject.ScheduleDriver instead"))
        return findings

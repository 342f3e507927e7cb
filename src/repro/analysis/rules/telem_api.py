"""TELEM-API: touching telemetry hooks or metrics outside repro.telemetry.

Instrumented objects (controllers, engines, the link table, the fault
reporter) carry a ``telem`` attribute that is ``None`` by default; the
disabled-telemetry guarantee — zero behavioral and performance impact,
byte-stable traces — rests on the same discipline as FAULT-HOOK: only
:mod:`repro.telemetry` may attach a session to a foreign object (use the
``attach_*`` functions), and only that package may construct the metric
primitives directly (everything else goes through a
:class:`~repro.telemetry.session.TelemetrySession` or a
:class:`~repro.telemetry.metrics.Registry` factory method, which is what
makes the single ``enabled`` flag authoritative).

The array layer (:mod:`repro.array`) is deliberately *not* exempt: each
shard cell opens its own :class:`TelemetrySession`, attaches it with
``attach_fast``, and the engine combines per-shard snapshots with the
pure :func:`~repro.telemetry.merge_snapshots` — merging data, never
reaching into another shard's hooks.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from ..core import Finding, Rule, SourceFile

#: Attribute naming the telemetry session hook on instrumented objects.
HOOK_ATTR = "telem"

#: Metric primitives whose direct construction bypasses the registry's
#: enabled flag (a bare Histogram() observes even when telemetry is off).
METRIC_NAMES = ("Counter", "Gauge", "Histogram", "Registry")


class TelemApiRule(Rule):
    """Ban foreign `telem` access and direct metric construction."""

    id = "TELEM-API"
    summary = ("access to telemetry `telem` hooks or direct metric "
               "construction outside repro.telemetry")
    rationale = ("the disabled-telemetry guarantee (hooks are None, zero "
                 "cost, byte-stable traces) only holds if attaching "
                 "sessions and constructing metrics is confined to the "
                 "telemetry package; use the attach_* functions and the "
                 "Registry factories")
    exempt_patterns: Tuple[str, ...] = ("*/repro/telemetry/*",)

    def check(self, src: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr == HOOK_ATTR
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                findings.append(self.finding(
                    src, node,
                    f"foreign access to telemetry hook `{node.attr}`; "
                    f"attach sessions through the repro.telemetry "
                    f"attach_* functions instead"))
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in METRIC_NAMES):
                findings.append(self.finding(
                    src, node,
                    f"direct construction of telemetry metric "
                    f"`{node.func.id}`; go through a TelemetrySession or "
                    f"a Registry factory so the enabled flag applies"))
        return findings

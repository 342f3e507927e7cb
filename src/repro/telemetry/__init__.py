"""Telemetry: counters, structured tracing, and profiling hooks.

A zero-dependency observability layer for the simulator, mirroring the
fault-injection package's hook discipline:

* :mod:`~repro.telemetry.metrics` — ``Counter``/``Gauge``/``Histogram``
  in a process-local :class:`~repro.telemetry.metrics.Registry` whose
  single ``enabled`` flag turns every metric into a shared no-op;
* :mod:`~repro.telemetry.trace` — canonical JSONL protocol events with
  monotonic sequence numbers and run metadata, deterministic to the byte
  for a seeded run;
* :mod:`~repro.telemetry.session` — the
  :class:`~repro.telemetry.session.TelemetrySession` facade instrumented
  code talks to through its ``telem`` hook (``None`` by default — the
  disabled mode costs one attribute test per *event*, nothing per write);
* the ``attach_*`` functions below — the **only** sanctioned way to wire
  a session into a controller or engine.  The TELEM-API lint rule
  confines foreign ``telem`` access and direct metric construction to
  this package, exactly like FAULT-HOOK does for ``inject``.

Summarize or diff trace files with ``python -m repro.telemetry``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .metrics import (Counter, GAUGE_MODES, Gauge, Histogram, Registry,
                      SLO_QUANTILES, deterministic_snapshot, gauge_payload,
                      gauge_value, histogram_quantile, merge_snapshots,
                      quantile_label, snapshot_quantiles)
from .session import PhaseTimer, TelemetrySession
from .timing import CellTiming, timed_call
from .trace import (EVENT_KINDS, META_KIND, PROFILE_KIND, TraceWriter,
                    census, diff_traces, read_trace, run_meta)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..mc.controller import BaseController
    from ..osmodel.faults import FaultReporter
    from ..reviver.reviver import WLReviver
    from ..sim.engine import ExactEngine
    from ..sim.fast import FastEngine
    from ..workloads.ftl import PageMappingFTL


def attach_reporter(session: TelemetrySession,
                    reporter: "FaultReporter") -> TelemetrySession:
    """Instrument a fault reporter (``page-retire`` events)."""
    reporter.telem = session
    return session


def attach_reviver(session: TelemetrySession,
                   reviver: "WLReviver") -> TelemetrySession:
    """Instrument a raw reviver: protocol events, link table, reporter."""
    reviver.telem = session
    reviver.links.telem = session
    attach_reporter(session, reviver.reporter)
    return session


def attach_controller(session: TelemetrySession,
                      controller: "BaseController") -> TelemetrySession:
    """Instrument a memory controller (and its reviver, if it has one)."""
    controller.telem = session
    attach_reporter(session, controller.reporter)
    reviver = getattr(controller, "reviver", None)
    if reviver is not None:
        attach_reviver(session, reviver)
    return session


def attach_exact(session: TelemetrySession,
                 engine: "ExactEngine") -> TelemetrySession:
    """Instrument an exact engine and its whole controller stack."""
    engine.telem = session
    attach_controller(session, engine.controller)
    return session


def attach_fast(session: TelemetrySession,
                engine: "FastEngine") -> TelemetrySession:
    """Instrument a fast engine (epoch phases, links, page retirement)."""
    engine.telem = session
    attach_reporter(session, engine.reporter)
    return session


def attach_ftl(session: TelemetrySession,
               ftl: "PageMappingFTL") -> TelemetrySession:
    """Instrument an FTL (write-amplification counters and WA gauges)."""
    ftl.telem = session
    return session


__all__ = [
    "Counter", "Gauge", "Histogram", "Registry", "SLO_QUANTILES",
    "GAUGE_MODES", "deterministic_snapshot", "gauge_payload", "gauge_value",
    "histogram_quantile", "merge_snapshots", "quantile_label",
    "snapshot_quantiles",
    "TelemetrySession", "PhaseTimer", "TraceWriter", "CellTiming",
    "timed_call", "EVENT_KINDS", "META_KIND", "PROFILE_KIND", "census",
    "diff_traces", "read_trace", "run_meta",
    "attach_reporter", "attach_reviver", "attach_controller",
    "attach_exact", "attach_fast", "attach_ftl",
]

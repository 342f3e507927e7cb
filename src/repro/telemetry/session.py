"""The TelemetrySession: one object instrumented code talks to.

Instrumented classes (controllers, engines, the link table, the fault
reporter) each carry a ``telem`` attribute that is ``None`` by default —
the same discipline as the fault-injection ``inject`` hooks: a system
without telemetry pays one ``is not None`` test per instrumented event,
and a phase timed through :func:`phase` enters one shared no-op context
manager.  Only this package may attach a session to a foreign object
(the TELEM-API lint rule enforces it), which keeps "who can observe and
account the run" audit-sized.

A session bundles:

* a :class:`~repro.telemetry.metrics.Registry` — counters, gauges,
  histograms, and the per-phase wall-time profile;
* an optional :class:`~repro.telemetry.trace.TraceWriter` — every
  :meth:`emit` both bumps the ``events.<kind>`` counter and appends the
  structured record, so the trace census and the registry reconcile by
  construction.

Phase timing accumulates into two counters per phase
(``phase.<name>.seconds`` and ``phase.<name>.calls``), so profiles merge
across worker processes exactly like any other counter.
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager, nullcontext
from types import TracebackType
from typing import Dict, Optional, Sequence, Type

from .metrics import DEFAULT_BUCKETS, Number, Registry
from .trace import Json, TraceWriter

_PHASE_PREFIX = "phase."

#: The one context a detached phase enters; sharing it keeps a phase
#: without a session to a function call and a ``with`` on a no-op.
_DETACHED: "AbstractContextManager[None]" = nullcontext()


class PhaseTimer:
    """Context manager adding one timed interval to a session's profile."""

    __slots__ = ("_session", "_name", "_started")

    def __init__(self, session: "TelemetrySession", name: str) -> None:
        self._session = session
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "PhaseTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self._session.add_phase_seconds(
            self._name, time.perf_counter() - self._started)


class TelemetrySession:
    """Metrics + tracing facade attached to instrumented objects."""

    def __init__(self, registry: Optional[Registry] = None,
                 writer: Optional[TraceWriter] = None) -> None:
        self.registry = registry if registry is not None else Registry()
        self.writer = writer

    # ---------------------------------------------------------------- events

    def emit(self, kind: str, **fields: Json) -> None:
        """Record one protocol event: census counter + optional trace."""
        self.registry.counter(f"events.{kind}").inc()
        if self.writer is not None:
            self.writer.emit(kind, **fields)

    def event_count(self, kind: str) -> Number:
        """How many events of *kind* this session has recorded."""
        return self.registry.counter(f"events.{kind}").value

    # --------------------------------------------------------------- metrics

    def count(self, name: str, amount: Number = 1) -> None:
        """Bump the counter *name* by *amount*."""
        self.registry.counter(name).inc(amount)

    def set_gauge(self, name: str, value: Number,
                  mode: Optional[str] = None) -> None:
        """Set the gauge *name* to *value* (*mode* fixes its merge policy)."""
        self.registry.gauge(name, mode).set(value)

    def observe(self, name: str, value: Number,
                bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        """Record *value* into the histogram *name*."""
        self.registry.histogram(name, bounds).observe(value)

    # ---------------------------------------------------------------- timing

    def phase(self, name: str) -> PhaseTimer:
        """Time a named phase: ``with session.phase("software-apply"): ...``"""
        return PhaseTimer(self, name)

    def add_phase_seconds(self, name: str, seconds: float) -> None:
        """Credit *seconds* of wall time to phase *name*."""
        self.registry.counter(f"{_PHASE_PREFIX}{name}.seconds").inc(
            max(0.0, seconds))
        self.registry.counter(f"{_PHASE_PREFIX}{name}.calls").inc()

    def profile(self) -> Dict[str, Dict[str, Number]]:
        """Per-phase ``{"seconds": ..., "calls": ...}``, by phase name."""
        phases: Dict[str, Dict[str, Number]] = {}
        for name, value in self.registry.snapshot()["counters"].items():
            if not name.startswith(_PHASE_PREFIX):
                continue
            phase_name, _, field = name[len(_PHASE_PREFIX):].rpartition(".")
            if field not in ("seconds", "calls") or not phase_name:
                continue
            phases.setdefault(phase_name, {"seconds": 0, "calls": 0})
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                phases[phase_name][field] = value
        return phases

    # ------------------------------------------------------------- finishing

    def append_profile(self) -> None:
        """Append the profile record to the trace (nondeterministic!)."""
        if self.writer is not None:
            self.writer.append_profile(
                {name: dict(stats) for name, stats in self.profile().items()})


def phase(session: Optional[TelemetrySession],
          name: str) -> "AbstractContextManager[object]":
    """Time phase *name* on *session*, or do nothing when it is ``None``.

    Instrumented code writes ``with phase(self.telem, "verify"): ...``
    once, for both the attached and the detached run.
    """
    if session is None:
        return _DETACHED
    return session.phase(name)


__all__ = ["TelemetrySession", "PhaseTimer", "phase"]

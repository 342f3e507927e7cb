"""The resilient online serving layer over the shard array.

The wear-leveling stack below this package answers "how long does the
device live"; this package answers the operator's question — "what does
a *service* on that device do while shards brown out and die".  A
deterministic virtual-clock discrete-event engine
(:class:`~repro.serve.engine.ServiceEngine`) runs N closed-loop clients
against an interleaved shard array and exercises the full resilience
tool-set end to end:

* **admission control** — per-shard bounded queues that *shed* or
  *block* (backpressure) on overflow, with batching windows;
* **deadline budgets** — bounded retries with exponential backoff,
  reusing the controller's ``READ_RETRY_LIMIT`` semantics;
* **circuit breakers** — per-shard open → half-open → closed cycles on
  consecutive failures, plus wear-fed *brownout* steering of writes
  away from nearly-worn shards;
* **live degraded-mode failover** — a :mod:`repro.faultinject` schedule
  can kill a shard mid-traffic; every in-flight request is drained and
  re-homed under the array's degraded re-home rule (or failed, under
  ``fail-stop``), with a zero-drop accounting identity asserted at the
  end of every run.

The event loop records plain tallies and per-shard sample lists; they
are folded into one telemetry snapshot after the run, in process, and
the SLO report (p50/p99 latency, throughput, shed/retry/failover
counts) derives from that snapshot alone, byte-identical for a fixed
seed.  Run one from the command line with ``python -m repro.serve``.
"""

from .breaker import BREAKER_STATES, CircuitBreaker
from .config import (ADMISSION_MODES, ARRIVAL_PROCESSES, LATENCY_BOUNDS,
                     SERVE_POLICIES, SERVE_WORKLOADS, ServeConfig)
from .engine import ServiceEngine, ServiceResult
from .report import build_report
from .requests import OUTCOMES, Request
from .station import ServeFaultDriver, ShardStation

__all__ = [
    "ServeConfig", "ServiceEngine", "ServiceResult",
    "CircuitBreaker", "BREAKER_STATES",
    "Request", "OUTCOMES",
    "ShardStation", "ServeFaultDriver",
    "build_report",
    "SERVE_POLICIES", "ADMISSION_MODES", "ARRIVAL_PROCESSES",
    "SERVE_WORKLOADS", "LATENCY_BOUNDS",
]

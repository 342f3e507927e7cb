"""Reliability-aware elastic array management (the PS-WL direction).

``repro.balance`` is the control plane that sits above the data planes
of :mod:`repro.array` (batch lifetime simulation) and :mod:`repro.serve`
(live traffic): it watches per-shard wear/failure telemetry, estimates
each shard's failure probability online, and *acts* on the estimate —
steering hot addresses away from near-death shards and growing the
array at runtime.  Three cooperating pieces:

* :class:`~repro.balance.health.ShardHealthModel` — deterministic,
  wall-clock-free per-shard failure-probability estimates from
  wear-headroom plus an EWMA of the recent failure rate (seeded, so
  results are byte-identical at any ``--jobs``);
* :class:`~repro.balance.remap.BalancedDecoder` — the elastic address
  map: wraps an :class:`~repro.array.decoder.InterleavedDecoder` with a
  remap table supporting bounded hot/cold swaps, consistent-hash shard
  addition (adding shard ``N+1`` moves only the ~``1/(N+1)`` of
  addresses that hash to it), and the degraded-mode re-home rule;
* :mod:`~repro.balance.leveler` — the bounded-budget planner that turns
  risk estimates into concrete swaps each rebalance round.

Every move the subsystem makes is charged as migration writes through
the existing write-amplification accounting (``balance.*`` counters in
the merged telemetry snapshot) — steering is never free.
"""

from __future__ import annotations

from .health import ShardHealthModel
from .leveler import plan_swaps
from .remap import BalancedDecoder, RemapTable, movers_mask

__all__ = [
    "ShardHealthModel", "plan_swaps",
    "BalancedDecoder", "RemapTable", "movers_mask",
]

"""Post-run accounting: per-shard sample lists → one telemetry snapshot.

The event loop records only plain data — tallies on the engine, sample
lists and counts on each :class:`~repro.serve.station.ShardStation` —
and this module folds every station into the engine's own session once
the run ends, in process.  Each sample list lands with one
:meth:`~repro.telemetry.metrics.Histogram.observe_many`, so the fold
costs a sort per list rather than a telemetry call per sample.

Shared metric names (``serve.latency.read``/``write``, ``serve.served``)
add across shards into global aggregates; per-shard names carry the
``serve.s<id>.`` prefix.  Every fold is a sum of integers or a per-shard
gauge, so the snapshot does not depend on the order stations fold in.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..array.shard import deterministic_snapshot
from ..telemetry import TelemetrySession
from .config import ServeConfig
from .station import ShardStation

#: Bucket bounds for per-shard batch-size and queue-depth histograms.
SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def assemble_snapshots(stations: List[ShardStation],
                       session: TelemetrySession,
                       config: ServeConfig) -> Dict[str, Dict[str, Any]]:
    """Fold every station into *session* and return its snapshot."""
    latency = config.latency_bounds
    for station in stations:
        sid = station.sid
        for name, values, bounds in (
                ("serve.latency.read", station.read_latencies, latency),
                ("serve.latency.write", station.write_latencies, latency),
                (f"serve.s{sid}.batch", station.batch_sizes, SIZE_BOUNDS),
                (f"serve.s{sid}.depth", station.depth_samples, SIZE_BOUNDS)):
            if values:  # a histogram exists only once observed
                session.registry.histogram(name, bounds).observe_many(values)
        session.count("serve.served", station.served)
        session.count(f"serve.s{sid}.served", station.served)
        session.count(f"serve.s{sid}.stalls", station.stalls)
        session.count(f"serve.s{sid}.writes", station.writes_served)
        session.set_gauge(f"serve.s{sid}.peak_depth", station.peak_depth)
        session.set_gauge(f"serve.s{sid}.wear", station.wear_fraction())
        session.set_gauge(f"serve.s{sid}.alive", int(station.alive))
        session.set_gauge(f"serve.s{sid}.died_at",
                          -1 if station.died_at is None
                          else station.died_at)
    return deterministic_snapshot(session.registry.snapshot())


__all__ = ["assemble_snapshots", "SIZE_BOUNDS"]

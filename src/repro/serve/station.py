"""Per-shard service stations and the serving-layer fault interpreter.

A :class:`ShardStation` owns everything one shard contributes to the
service: the bounded admission queue, the overflow lane used by the
``block`` admission mode, the batching window, the circuit breaker, a
write-count wear proxy, and the raw *sample lists* (latencies, batch
sizes, queue depths) that :mod:`repro.serve.account` folds into the
telemetry snapshot after the run.  Stations never touch the clock or the
event heap — the :class:`~repro.serve.engine.ServiceEngine` drives them.

:class:`ServeFaultDriver` is the serving layer's interpreter for
:class:`~repro.faultinject.FaultSchedule` actions, the counterpart of
the engine-side :class:`~repro.faultinject.ScheduleDriver`: schedules
stay pure data, and each layer applies the kinds it understands.  Here
``fail-block``/``endurance-burst`` clamps covering a shard's dead
fraction become a whole-shard death, smaller clamps and ``read-error``
become one-request stalls, ``shard-stall`` stalls a burst of requests,
and the controller-protocol kinds (``crash``, ``exhaust-spares``) are
no-ops — the service has no controller to crash.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..faultinject import FaultAction, FaultSchedule, for_shard
from .breaker import CircuitBreaker
from .config import ServeConfig
from .requests import Request


class ShardStation:
    """Queueing, batching, and accounting state of one shard device."""

    def __init__(self, sid: int, config: ServeConfig) -> None:
        self.sid = sid
        self.config = config
        self.alive = True
        #: Bounded admission queue (depth enforced by the engine).
        self.queue: Deque[Request] = deque()
        #: Overflow lane for the ``block`` admission mode (unbounded —
        #: backpressure parks requests here until a queue slot frees).
        self.waiting: Deque[Request] = deque()
        #: Requests currently in service (one batch at a time).
        self.in_service: List[Request] = []
        self.busy = False
        #: True while a batch-window close event is pending on the heap.
        self.window_armed = False
        #: Bumped whenever a scheduled dispatch becomes stale (a batch
        #: filled early, the shard died) so old events are ignored.
        self.generation = 0
        self.breaker = CircuitBreaker(config.breaker_threshold,
                                      config.breaker_cooldown)
        #: Requests this shard must swallow before answering again.
        self.stall_remaining = 0
        #: Lifetime writes served — the wear proxy driving both the
        #: fault schedule's ``at_write`` pins and brownout steering.
        self.writes_served = 0

        # Raw deterministic samples, folded into telemetry once after
        # the run (repro.serve.account); latencies are of ok requests.
        self.read_latencies: List[int] = []
        self.write_latencies: List[int] = []
        self.batch_sizes: List[int] = []
        self.depth_samples: List[int] = []
        self.served = 0
        self.stalls = 0
        self.peak_depth = 0
        self.died_at: Optional[int] = None

    # ------------------------------------------------------------- queueing

    @property
    def backlog(self) -> int:
        """Queued plus overflow-parked requests (dispatchable work)."""
        return len(self.queue) + len(self.waiting)

    def note_depth(self) -> None:
        """Sample the instantaneous backlog for the depth histogram."""
        depth = self.backlog
        self.depth_samples.append(depth)
        if depth > self.peak_depth:
            self.peak_depth = depth

    def wear_fraction(self) -> float:
        """Wear proxy in [0, ~1]: lifetime writes over endurance budget."""
        return self.writes_served / self.config.endurance_budget

    def drain(self) -> List[Request]:
        """Remove and return every live request this station holds.

        Called exactly once, at death: the in-service batch, the queue,
        and the overflow lane are emptied in deterministic order so the
        engine can re-home (degraded) or fail (fail-stop) each request.
        """
        drained = list(self.in_service)
        drained.extend(self.queue)
        drained.extend(self.waiting)
        self.in_service.clear()
        self.queue.clear()
        self.waiting.clear()
        self.busy = False
        self.window_armed = False
        self.generation += 1
        return drained


class ServeFaultDriver:
    """Applies a fault schedule to stations, on shard-local write counts.

    The schedule is projected per shard with
    :func:`repro.faultinject.for_shard` (broadcast actions reach every
    shard), sorted deterministically, and consumed cursor-style exactly
    like the engine-side driver: each action applies once, when the
    station's ``writes_served`` reaches its ``at_write``.
    """

    def __init__(self, schedule: Optional[FaultSchedule],
                 config: ServeConfig) -> None:
        self.config = config
        self._schedule = schedule
        self._pending: List[List[FaultAction]] = []
        self._cursor: List[int] = []
        for _ in range(config.num_shards):
            self.grow()
        #: Actions applied so far, as ``(sid, action)`` in order.
        self.applied: List[Tuple[int, FaultAction]] = []

    def grow(self) -> int:
        """Project the schedule onto one more shard (elastic scale-out).

        A shard that joins mid-run starts at write count zero, so every
        broadcast action whose ``at_write`` pin it eventually reaches
        still applies — kill schedules compose with rebalancing.
        """
        sid = len(self._pending)
        if self._schedule is None:
            self._pending.append([])
        else:
            projected = for_shard(self._schedule, sid)
            self._pending.append(list(projected.sorted_actions()))
        self._cursor.append(0)
        return sid

    def poll(self, station: ShardStation) -> bool:
        """Apply every action due at the station's write count.

        Returns True when one of them killed the shard — the engine then
        drains and re-homes everything the station held.
        """
        sid = station.sid
        died = False
        pending = self._pending[sid]
        while (self._cursor[sid] < len(pending)
               and pending[self._cursor[sid]].at_write
               <= station.writes_served):
            action = pending[self._cursor[sid]]
            self._cursor[sid] += 1
            died = self._apply(station, action) or died
            self.applied.append((sid, action))
        return died

    def _apply(self, station: ShardStation, action: FaultAction) -> bool:
        if action.kind in ("fail-block", "endurance-burst"):
            covered = len({da for da in action.das
                           if 0 <= da < self.config.shard_blocks})
            floor = self.config.dead_fraction * self.config.shard_blocks
            if covered >= floor:
                return True  # whole-shard death
            # A partial clamp: the targeted blocks fail their next access
            # and remap; the station swallows one request per block.
            station.stall_remaining += max(1, covered)
            return False
        if action.kind == "read-error":
            station.stall_remaining += 1
            return False
        if action.kind == "shard-stall":
            station.stall_remaining += action.requests
            return False
        # crash / exhaust-spares: controller-protocol actions; the
        # serving layer has no controller, exactly as the fast engine
        # has no crash sites.
        return False


__all__ = ["ShardStation", "ServeFaultDriver"]

"""The deterministic online serving engine.

:class:`ServiceEngine` runs a closed-loop service on a *virtual clock*:
a single heap of ``(tick, seq)``-ordered events drives N simulated
clients, routing through a :class:`~repro.balance.BalancedDecoder`
address map, per-shard bounded queues with batching windows, admission
control, deadline budgets with bounded exponential-backoff retries,
circuit breakers with wear-fed brownout steering, and live
degraded-mode failover when a fault schedule kills a shard mid-traffic.

No wall clock, no module-level randomness: every tick is an integer,
every draw flows through :func:`repro.rng.derive_rng`, and the event
heap is totally ordered by ``(tick, monotone sequence)`` — so a run is
a pure function of ``(config, schedule)``.  The loop bumps only plain
tallies and sample lists, folded into telemetry once, after the run.

The zero-drop discipline: a request finishes in exactly one of the
:data:`~repro.serve.requests.OUTCOMES`; every queue, overflow lane, and
in-service batch is drained at shard death and each displaced request is
re-homed (``degraded``) or failed (``fail-stop``).  The engine asserts
the accounting identity ``issued == sum(outcomes)`` before returning —
a violated identity is a framework bug and raises
:class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

import heapq
import itertools
import json
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..array.decoder import InterleavedDecoder
from ..balance import BalancedDecoder, ShardHealthModel, plan_swaps
from ..errors import ConfigurationError, ProtocolError
from ..faultinject import FaultSchedule
from ..rng import derive_rng
from ..telemetry import TelemetrySession
from ..traces import (DistributionTrace, uniform_distribution,
                      zipf_distribution)
from ..workloads import TraceReplay
from .account import assemble_snapshots
from .config import ServeConfig
from .report import build_report
from .requests import OUTCOMES, Request
from .station import ServeFaultDriver, ShardStation

# Event kinds, in tie-break-free heap entries (tick, seq, kind, payload,
# generation); station events carry the generation they were armed at.
_ISSUE = 0      # payload: client id
_ADMIT = 1      # payload: Request (fresh routing at fire time)
_DISPATCH = 2   # payload: ShardStation — batch window closed
_COMPLETE = 3   # payload: ShardStation — batch finished service

#: Think times drawn per refill of a client's buffer.
_THINK_BATCH = 256


@dataclass(frozen=True)
class ServiceResult:
    """Everything one serving run produced, JSON-canonical."""

    config: Dict[str, Any]
    #: Merged deterministic telemetry snapshot (front end + every shard).
    snapshot: Dict[str, Dict[str, Any]]
    #: The SLO report derived from the snapshot (latency quantiles,
    #: throughput, shed/retry/failover accounting).
    report: Dict[str, Any]
    #: Final virtual tick (the run's makespan).
    duration: int
    outcomes: Dict[str, int]

    def as_dict(self) -> Dict[str, Any]:
        return {"config": self.config, "snapshot": self.snapshot,
                "report": self.report, "duration": self.duration,
                "outcomes": self.outcomes}

    def to_json(self) -> str:
        """Canonical JSON — byte-identical for identical runs."""
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))


class ServiceEngine:
    """Virtual-clock closed-loop service over an interleaved shard array."""

    def __init__(self, config: ServeConfig,
                 schedule: Optional[FaultSchedule] = None) -> None:
        self.config = config
        #: The address map every request routes through; degraded
        #: deaths and growth mutate it, steering swaps entries in it.
        self.decoder = BalancedDecoder(InterleavedDecoder(
            config.num_shards, config.shard_blocks,
            interleave=config.interleave, page_blocks=config.page_blocks))
        # The repro.balance control plane: steering, growth, or both.
        self.health: Optional[ShardHealthModel] = None
        if config.balance or config.add_shard_at is not None:
            self.health = ShardHealthModel(config.num_shards,
                                           config.endurance_budget,
                                           seed=config.seed)
        #: Empirical per-address write demand the leveler steers against;
        #: writes issued since the last checkpoint wait in _new_demand.
        self._demand = np.zeros(config.global_blocks, dtype=np.float64)
        self._new_demand: List[int] = []
        self._shard_added = False
        self._writes_seen = 0
        self.stations = [ShardStation(sid, config)
                         for sid in range(config.num_shards)]
        self.faults = ServeFaultDriver(schedule, config)
        self.session = TelemetrySession()
        #: Event counters, folded in after the run (absent until bumped).
        self.tallies: Dict[str, int] = {}
        self.now = 0
        self.issued = 0
        self.issued_writes = 0
        self.finished = 0
        self.outcomes: Dict[str, int] = {o: 0 for o in OUTCOMES}
        self._events: List[Tuple[int, int, int, Any, int]] = []
        self._seq = itertools.count()
        # Issued addresses and write flags, unboxed (see issue_log).
        self._issued_addresses = array("q")
        self._issued_flags = bytearray()
        if config.workload == "trace":
            replay = self._trace_replay()
            self._streams: List[Any] = [replay] * config.clients
        else:
            law = self._address_law()
            self._streams = [
                law.request_stream(config.write_ratio,
                                   name=f"serve-client-{c}")
                for c in range(config.clients)]
        self._think_rngs = [derive_rng(config.seed, f"serve-think-{c}")
                            for c in range(config.clients)]
        #: Pre-drawn think times per client, next draw last (each client
        #: owns its stream, so bulk draws equal successive single ones).
        self._think_buffers: List[List[int]] = [
            [] for _ in range(config.clients)]

    # --------------------------------------------------------------- set-up

    def _address_law(self) -> DistributionTrace:
        """The clients' shared address law, ``("serve", config.seed)``;
        each client draws its own ``serve-client-<c>`` stream from it."""
        config = self.config
        if config.workload == "zipf":
            return zipf_distribution(
                config.global_blocks, exponent=config.zipf_exponent,
                name="serve", seed=config.seed)
        return uniform_distribution(config.global_blocks, name="serve",
                                    seed=config.seed)

    def _trace_replay(self) -> TraceReplay:
        """One shared file cursor for every client: requests are issued
        in file order no matter which client's think timer fires, so the
        per-shard routing sequence equals the file's decode order."""
        assert self.config.trace_path is not None  # validated by config
        replay = TraceReplay.load(self.config.trace_path)
        if replay.virtual_blocks != self.config.global_blocks:
            raise ConfigurationError(
                f"trace covers {replay.virtual_blocks} blocks, the array "
                f"decodes {self.config.global_blocks}")
        return replay

    @property
    def issue_log(self) -> List[Tuple[int, int]]:
        """Issued requests as ``(address, is_write)``, in issue order:
        the serving side of the per-shard trace-equivalence pin."""
        return list(zip(self._issued_addresses, self._issued_flags))

    def _push(self, tick: int, kind: int, payload: Any,
              generation: int = 0) -> None:
        heapq.heappush(self._events,
                       (tick, next(self._seq), kind, payload, generation))

    def _think(self, client: int) -> int:
        if self.config.arrival == "uniform":
            return self.config.think_ticks
        buffer = self._think_buffers[client]
        if not buffer:
            draws = self._think_rngs[client].exponential(
                self.config.think_ticks, size=_THINK_BATCH)
            buffer.extend(draws.astype(np.int64)[::-1].tolist())
        return buffer.pop()

    def _tally(self, name: str, amount: int = 1) -> None:
        self.tallies[name] = self.tallies.get(name, 0) + amount

    # ------------------------------------------------------------------ run

    def run(self, jobs: int = 1) -> ServiceResult:
        """Drive the service to quiescence and assemble the result.

        *jobs* is accepted and ignored: accounting folds in process.
        """
        for client in range(self.config.clients):
            self._push(0, _ISSUE, client)
        events, pop = self._events, heapq.heappop
        issue, complete = self._issue, self._complete
        while events:
            tick, _seq, kind, payload, generation = pop(events)
            self.now = tick
            if kind == _ISSUE:
                issue(payload)
            elif kind == _COMPLETE:
                complete(payload, generation)
            elif kind == _DISPATCH:
                # A current window finds its shard idle with work queued.
                if payload.generation == generation and payload.alive:
                    self._dispatch(payload)
            else:
                self._route(payload)
        self._check_identity()
        self._final_gauges()
        merged = assemble_snapshots(self.stations, self.session,
                                    self.config)
        report = build_report(merged, self.config)
        return ServiceResult(config=self.config.as_dict(), snapshot=merged,
                             report=report, duration=self.now,
                             outcomes=dict(self.outcomes))

    def _check_identity(self) -> None:
        accounted = sum(self.outcomes.values())
        if not (self.issued == self.finished == accounted
                == self.config.total_requests):
            raise ProtocolError(
                f"request accounting broken: issued {self.issued}, "
                f"finished {self.finished}, accounted {accounted}, "
                f"target {self.config.total_requests}")

    def _final_gauges(self) -> None:
        session = self.session
        session.count("serve.issued", self.issued)
        for kind, amount in (("write", self.issued_writes),
                             ("read", self.issued - self.issued_writes)):
            if amount:
                session.count(f"serve.issued_{kind}", amount)
        for name, amount in self.tallies.items():
            session.count(name, amount)
        for outcome, amount in self.outcomes.items():
            if amount:
                session.count(f"serve.{outcome}", amount)
        session.set_gauge("serve.duration", self.now)
        session.set_gauge("serve.clients", self.config.clients)
        session.set_gauge("serve.shards", len(self.stations))
        session.set_gauge("serve.live_shards", len(self._live()))
        if self.health is not None:
            self.health.publish(session)
        session.count("serve.deaths", sum(not s.alive for s in self.stations))
        session.count("serve.breaker_opened",
                      sum(s.breaker.opened for s in self.stations))
        session.count("serve.breaker_closed",
                      sum(s.breaker.closed_after_probe
                          for s in self.stations))

    # ------------------------------------------------------------- clients

    def _issue(self, client: int) -> None:
        config = self.config
        if self.issued >= config.total_requests:
            return  # quota reached while this client was thinking
        if (config.add_shard_at is not None and not self._shard_added
                and self.issued >= config.add_shard_at):
            self._add_shard()
        address, is_write = self._streams[client].next_request()
        self._issued_addresses.append(address)
        self._issued_flags.append(is_write)
        if is_write:
            self.issued_writes += 1
            if config.balance:
                self._new_demand.append(address)
        rid, now = self.issued, self.now
        self.issued = rid + 1
        self._route(Request(rid, client, address, is_write, now,
                            now + config.deadline_ticks))

    def _finish(self, request: Request, outcome: str) -> None:
        """End *request* (the ok arm folds its counts in _complete)."""
        self.outcomes[outcome] += 1
        self.finished += 1
        self._rearm(request.client)

    def _rearm(self, client: int) -> None:
        """Schedule *client*'s next issue after a think, unless at quota."""
        if self.issued < self.config.total_requests:
            self._push(self.now + self._think(client), _ISSUE, client)

    def _live(self) -> List[int]:
        return [s.sid for s in self.stations if s.alive]

    # ------------------------------------------------------ the route step

    def _route(self, request: Request,
               station: Optional[ShardStation] = None
               ) -> Optional[ShardStation]:
        """Home, steer, admit (deadline -> capacity -> breaker), queue and
        kick one request; promotion passes the station it is parked at.
        Returns the station it queued on, else None."""
        config = self.config
        if station is None:
            station = self.stations[
                int(self.decoder.shard_of(request.address))]
            if not station.alive:
                # A degraded death re-homes its addresses at the kill,
                # so a dead home means fail-stop (or no survivor).
                self._finish(request, "failed")
                return None
            if (request.is_write
                    and station.wear_fraction() >= config.brownout_wear):
                station = self._steer(station)
        if self.now >= request.deadline:
            self._finish(request, "deadline")
            return None
        queue = station.queue
        if len(queue) >= config.queue_depth:
            if config.admission == "shed":
                self._tally("serve.shed_full_queue")
                self._finish(request, "shed")
            else:
                station.waiting.append(request)
                self._tally("serve.blocked")
                station.note_depth()
            return None
        if station.breaker.state != "closed":
            if station.breaker.admit(self.now) == "fast-fail":
                self._tally("serve.breaker_fast_fail")
                self._retry(station, request, shard_failure=False)
                return None
            request.probe = True
            self._tally("serve.breaker_probes")
        queue.append(request)
        station.note_depth()
        if not station.busy:
            self._kick(station)
        return station

    def _steer(self, home: ShardStation) -> ShardStation:
        """Wear-fed brownout: steer a write off a worn-out *home*."""
        line = self.config.brownout_wear
        fresh = [s for s in self.stations
                 if s.alive and s.wear_fraction() < line]
        if not fresh:
            return home  # everything is browned out; wear evenly
        self._tally("serve.steered")
        return min(fresh, key=lambda s: (s.writes_served, s.sid))

    # ------------------------------------------------------------ batching

    def _kick(self, station: ShardStation) -> None:
        """Start a full batch on an idle shard, else arm its window."""
        if len(station.queue) >= self.config.batch_max:
            self._dispatch(station)
        elif station.queue and not station.window_armed:
            station.window_armed = True
            self._push(self.now + self.config.batch_window, _DISPATCH,
                       station, station.generation)

    def _dispatch(self, station: ShardStation) -> None:
        config, queue = self.config, station.queue
        batch = [queue.popleft()
                 for _ in range(min(len(queue), config.batch_max))]
        station.in_service = batch
        station.busy = True
        station.window_armed = False
        station.generation += 1
        station.batch_sizes.append(len(batch))
        writes = sum([request.is_write for request in batch])
        duration = (config.service_base + writes * config.write_ticks
                    + (len(batch) - writes) * config.read_ticks)
        self._push(self.now + max(1, duration), _COMPLETE, station,
                   station.generation)
        # Promote parked requests into freed slots (busy: no new batch).
        waiting = station.waiting
        while waiting and len(queue) < config.queue_depth:
            self._route(waiting.popleft(), station)

    # ------------------------------------------------- the completion step

    def _complete(self, station: ShardStation, generation: int) -> None:
        """Serve a finished batch: each request stalls and retries, or
        succeeds and re-arms its client; writes advance faults/steering."""
        if station.generation != generation or not station.alive:
            return  # stale: the shard died and drained mid-service
        batch, station.in_service = station.in_service, []
        station.busy = False
        config, now, breaker = self.config, self.now, station.breaker
        rearm, poll = self._rearm, self.faults.poll
        rebalance_every = config.rebalance_every if config.balance else 0
        served = 0
        for index, request in enumerate(batch):
            if not station.alive:
                # Death fired mid-batch: the rest of the batch joins the
                # displaced set the drain already re-homed.
                self._displace(batch[index:])
                break
            if station.stall_remaining > 0:
                station.stall_remaining -= 1
                station.stalls += 1
                self._tally("serve.stalled")
                self._retry(station, request, shard_failure=True)
                continue
            if request.probe or breaker.failures:
                breaker.record_success(request.probe)
            served += 1
            if now > request.deadline:
                self._tally("serve.deadline_miss")
            rearm(request.client)
            if not request.is_write:
                station.read_latencies.append(now - request.issued_at)
                continue
            station.write_latencies.append(now - request.issued_at)
            station.writes_served += 1
            if poll(station):
                self._kill(station)
            if rebalance_every:
                self._writes_seen += 1
                if self._writes_seen % rebalance_every == 0:
                    self._rebalance()
        self.outcomes["ok"] += served
        self.finished += served
        if station.alive:
            self._kick(station)

    # ------------------------------------------------------- retry/backoff

    def _retry(self, station: ShardStation, request: Request,
               shard_failure: bool) -> None:
        """Bounded exponential-backoff retry (READ_RETRY_LIMIT semantics)."""
        if shard_failure:
            station.breaker.record_failure(self.now, request.probe)
        request.probe = False
        request.attempts += 1
        if request.attempts >= self.config.retry_limit:
            self._tally("serve.retries_exhausted")
            self._finish(request, "error")
            return
        backoff = self.config.backoff_base * 2 ** (request.attempts - 1)
        retry_at = self.now + backoff
        if retry_at >= request.deadline:
            self._finish(request, "deadline")
            return
        self._tally("serve.retries")
        self._push(retry_at, _ADMIT, request)

    # ------------------------------------------------------------ failover

    def _kill(self, station: ShardStation) -> None:
        station.alive = False
        station.died_at = self.now
        if self.health is not None:
            self.health.observe(station.sid, station.writes_served, 0.0,
                                dead=True)
        live = self._live()
        if self.config.policy == "degraded" and live:
            self.decoder.rehome(station.sid, live)
        self._displace(station.drain())

    def _displace(self, requests: List[Request]) -> None:
        """Re-home (degraded) or fail (fail-stop) displaced requests."""
        for request in requests:
            request.probe = False
            self._tally("serve.failover")
            if self.config.policy == "fail-stop":
                self._finish(request, "failed")
            else:
                self._push(self.now, _ADMIT, request)

    # ---------------------------------------------- elastic balancing

    def _add_shard(self) -> None:
        """Grow the array by one shard, live, at an issue boundary.

        Consistent-hashing migration: ~1/(N+1) of the address space
        re-homes onto the fresh shard; everything else keeps its exact
        home, so in-flight requests are unaffected (routing is fixed at
        admit time) and the zero-drop identity is preserved.
        """
        self._shard_added = True
        movers, _donors = self.decoder.add_shard()
        sid = len(self.stations)
        self.stations.append(ShardStation(sid, self.config))
        self.faults.grow()
        assert self.health is not None  # balanced whenever add_shard_at set
        self.health.add_shard()
        self._tally("serve.migrated", int(movers.size))
        self._tally("serve.shards_added")

    def _rebalance(self) -> None:
        """One steering checkpoint: wear telemetry -> bounded swaps."""
        assert self.health is not None
        if self._new_demand:
            # Integer-valued float64 counts, so the fold is exact.
            np.add.at(self._demand, self._new_demand, 1.0)
            self._new_demand.clear()
        live = self._live()
        for sid in live:
            self.health.observe(sid, self.stations[sid].writes_served, 0.0)
        if len(live) < 2:
            return
        swaps = plan_swaps(self.decoder, self._demand,
                           self.health.risks(), live,
                           self.config.remap_budget)
        if swaps:
            self._tally("serve.remap_swaps", len(swaps))


__all__ = ["ServiceEngine", "ServiceResult"]

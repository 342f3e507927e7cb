"""The array engine: shared-nothing shards behind one decoder.

:class:`ArrayEngine` services a single global write distribution with an
array of independent shard stacks (chip + Start-Gap + recovery), each a
full :class:`~repro.sim.fast.FastEngine` held in this process.  Shards
never share state; what couples them is pure arithmetic:

* one address map — a :class:`~repro.balance.BalancedDecoder` over the
  :class:`~repro.array.decoder.InterleavedDecoder` — projects the
  global distribution into per-shard local mass vectors (a shard's
  *share* is its mass);
* a **global write clock** relates the shards: a shard with share ``f``
  advances its local clock ``f`` writes per global write, giving each
  shard a piecewise-linear local<->global map that the engine maintains
  as shares change.

End-of-life is decided on the global clock.  The live shards advance in
lockstep, the one furthest behind stepping one epoch at a time
(:meth:`ArrayEngine._advance`), so the first death is found when it
happens and nothing runs past it (ties broken by shard id):

``fail-stop``
    The array dies with its first shard.  Survivors end on the epoch
    boundary covering the death point, so the merged result describes
    the array at the moment it stopped.
``degraded``
    The dead shard drops out of the map: its addresses re-home
    round-robin onto the survivors (:meth:`BalancedDecoder.rehome
    <repro.balance.BalancedDecoder.rehome>`), whose traces gain a new
    segment at their next epoch boundary, and the array keeps serving at
    reduced usable capacity until the last shard dies (or the budget
    runs out).

A static array and a balanced one run the same loop; steering
checkpoints and the elastic shard addition are control events on the
global clock, and a static array simply has none.

Determinism: per-shard seeds derive from the array seed and shard index
only, segment boundaries and write caps are quantized to whole epochs,
and per-segment trace generators are independent — so a shard's engine,
continued epoch by epoch across segment changes, ends in the state a
fresh run over its final segments would reach.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..config import StartGapConfig
from ..errors import ConfigurationError
from ..faultinject import FaultSchedule
from ..pcm.endurance import check_endurance
from ..rng import SeedLike
from ..sim.fast import FastConfig, FastEngine
from ..sim.metrics import LifetimeSeries, SamplePoint
from ..sim.stop import EndOfLifeReport, StopCause, StopReason
from ..telemetry import (TelemetrySession, deterministic_snapshot,
                         merge_snapshots)
from ..traces.base import DistributionTrace
from ..units import blocks_of_pages, ceil_div, page_count
from .decoder import INTERLEAVE_MODES, InterleavedDecoder
from .report import ArrayEndOfLifeReport, ShardCensus
from .shard import build_shard
from .trace import SegmentedTrace

#: Array end-of-life policies.
ARRAY_POLICIES: Tuple[str, ...] = ("fail-stop", "degraded")

#: Shard recovery modes.  FREE-p is out: its pre-reserve needs a
#: wear-leveler sized to the working space, and every shard's Start-Gap
#: spans its whole chip.
ARRAY_RECOVERY: Tuple[str, ...] = ("reviver", "none")

#: The report of a shard that never had traffic: it never wore and never
#: advanced its local clock (running an engine for it would need a
#: drawable distribution it does not have).
IDLE_REPORT = EndOfLifeReport(
    stop=StopReason(StopCause.MAX_WRITES, "no traffic decoded to shard"),
    total_writes=0, failed_fraction=0.0, usable_fraction=1.0,
    os_interruptions=0, victimized_writes=0, pages_acquired=0,
    spares_available=0, linked_blocks=0, pa_da_loops=0,
    crashes_recovered=0)


@dataclass
class ArrayConfig:
    """Parameters of a homogeneous shard array."""

    num_shards: int = 4
    #: Device blocks per shard chip (must be a whole number of pages).
    shard_blocks: int = 1024
    interleave: str = "block"
    policy: str = "degraded"
    #: OS page size in blocks (shared by decoder and every shard stack).
    page_blocks: int = 64
    mean_endurance: float = 800.0
    endurance_cov: float = 0.2
    psi: int = 12
    recovery: str = "reviver"
    dead_fraction: float = 0.3
    #: Software writes per shard epoch (segment boundaries are quantized
    #: to this, so prefix replay is draw-for-draw identical).
    batch_writes: int = 4000
    #: Global write budget (None = run the array to death).
    max_writes: Optional[int] = None
    telemetry: bool = True
    seed: SeedLike = None
    #: Enable risk-steered inter-shard leveling (the balance subsystem).
    balance: bool = False
    #: Max hot/cold swaps per rebalance round (2 migration writes each).
    remap_budget: int = 8
    #: Global writes between steering checkpoints (None with ``balance``:
    #: steer only at shard-death boundaries).
    balance_every: Optional[int] = None
    #: Global write count at which one fresh shard joins (None = never).
    add_shard_at: Optional[int] = None

    def __post_init__(self) -> None:
        if self.policy not in ARRAY_POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; "
                f"choose from {ARRAY_POLICIES}")
        if self.interleave not in INTERLEAVE_MODES:
            raise ConfigurationError(
                f"unknown interleave {self.interleave!r}; "
                f"choose from {INTERLEAVE_MODES}")
        if self.num_shards < 1:
            raise ConfigurationError("array needs at least one shard")
        if self.page_blocks < 1:
            raise ConfigurationError("page_blocks must be >= 1")
        if self.shard_blocks < 2 * self.page_blocks:
            # Start-Gap spends one line on the gap, which costs the
            # software space a whole page; below two pages nothing is
            # left to serve.
            raise ConfigurationError(
                "shard_blocks must be at least two OS pages")
        if self.shard_blocks % self.page_blocks:
            raise ConfigurationError(
                "shard_blocks must be a whole number of OS pages")
        if self.recovery not in ARRAY_RECOVERY:
            raise ConfigurationError(
                f"unknown recovery {self.recovery!r}; "
                f"choose from {ARRAY_RECOVERY}")
        # Every shard stack is built from these knobs; building its configs
        # here runs their checks before any shard exists.
        FastConfig(recovery=self.recovery, dead_fraction=self.dead_fraction,
                   batch_writes=self.batch_writes, max_writes=self.max_writes)
        StartGapConfig(psi=self.psi)
        check_endurance(self.mean_endurance, self.endurance_cov)
        if self.remap_budget < 0:
            raise ConfigurationError("remap_budget cannot be negative")
        if self.balance_every is not None and self.balance_every < 1:
            raise ConfigurationError("balance_every must be >= 1 writes")
        if self.add_shard_at is not None and self.add_shard_at < 1:
            raise ConfigurationError("add_shard_at must be >= 1 writes")

    @property
    def software_blocks(self) -> int:
        """Software-visible blocks per shard (whole pages after the gap)."""
        return blocks_of_pages(
            page_count(self.shard_blocks - 1, self.page_blocks),
            self.page_blocks)

    @property
    def global_blocks(self) -> int:
        """Size of the decoded global address space."""
        return self.num_shards * self.software_blocks


@dataclass
class _ShardState:
    """Book-keeping the engine keeps per shard."""

    #: Current local mass vector (in global-probability units).
    mass: np.ndarray
    #: ``(start_write, mass_vector)`` trace segments, epoch-aligned.
    segments: List[Tuple[int, np.ndarray]]
    #: ``(local_start, global_start, share)`` pieces of the clock map.
    pieces: List[Tuple[int, float, float]]
    #: The shard's stack, built at its first step (``None`` while idle),
    #: and its telemetry session (``None`` without telemetry).
    engine: Optional[FastEngine] = None
    session: Optional[TelemetrySession] = None
    dead: bool = False
    death_global: Optional[float] = None

    @property
    def share(self) -> float:
        """Current share of global traffic."""
        return float(self.mass.sum())


@dataclass
class ArrayResult:
    """Everything one array run produces."""

    label: str
    config: ArrayConfig
    #: Merged survival/usable series on the global write clock.
    series: LifetimeSeries
    #: Associatively merged per-shard telemetry (plus array counters).
    snapshot: Dict[str, Dict[str, object]]
    report: ArrayEndOfLifeReport
    rounds: int = 0

    def as_dict(self) -> dict:
        """JSON-ready form for the CLI and experiment artifacts."""
        return {"label": self.label,
                "policy": self.config.policy,
                "interleave": self.config.interleave,
                "num_shards": self.report.num_shards,
                "rounds": self.rounds,
                "report": self.report.as_dict(),
                "series": self.series.to_payload(),
                "snapshot": self.snapshot}


class ArrayEngine:
    """Lockstep lifetime simulation of a shard array.

    *jobs* is accepted and ignored: every shard advances in this process.
    """

    def __init__(self, config: ArrayConfig, trace: DistributionTrace,
                 label: str = "array", jobs: int = 1,
                 schedule: Optional[FaultSchedule] = None) -> None:
        # Imported here: repro.balance wraps this package's decoder.
        from ..balance import BalancedDecoder, ShardHealthModel
        self.config = config
        self.label = label
        self.schedule = schedule
        self.decoder = BalancedDecoder(InterleavedDecoder(
            config.num_shards, config.software_blocks,
            interleave=config.interleave, page_blocks=config.page_blocks))
        if trace.virtual_blocks < self.decoder.global_blocks:
            raise ConfigurationError(
                f"trace covers {trace.virtual_blocks} blocks, the array "
                f"decodes {self.decoder.global_blocks}; build the workload "
                f"for the array's global space")
        folded = trace.restricted_to(self.decoder.global_blocks)
        self.probabilities = folded.probabilities
        self.result: Optional[ArrayResult] = None
        #: The balance control plane, live only when steering or growth
        #: is configured: a static run carries no health model, no
        #: leveler and no ``balance.*`` metrics.
        self.health: Optional[ShardHealthModel] = None
        if config.balance or config.add_shard_at is not None:
            self.health = ShardHealthModel(
                config.num_shards,
                endurance_budget=config.shard_blocks * config.mean_endurance,
                seed=config.seed)
        self._states: List[_ShardState] = []
        self._migration_writes = 0
        self._remap_swaps = 0
        self._shards_added = 0

    # -------------------------------------------------------------- the clock

    def _global_at_local(self, state: _ShardState, local: int) -> float:
        """Global write count when *state*'s local clock reads *local*."""
        for start, global_start, share in reversed(state.pieces):
            if local >= start:
                if share <= 0:
                    return global_start
                return global_start + (local - start) / share
        return 0.0

    def _local_at_global(self, state: _ShardState, at: float) -> float:
        """*state*'s local clock when the global clock reads *at*."""
        for start, global_start, share in reversed(state.pieces):
            if at >= global_start:
                return start + share * (at - global_start)
        return 0.0

    def _epoch_ceil(self, value: float) -> int:
        """Smallest whole-epoch local write count >= *value*."""
        whole = max(0, int(math.ceil(value - 1e-9)))
        return ceil_div(whole, self.config.batch_writes) \
            * self.config.batch_writes

    # ------------------------------------------------------------------- run

    def run(self) -> ArrayResult:
        """Simulate the array to its end of life; return the merged result.

        Each pass of the loop advances the live shards in lockstep
        (:meth:`_advance`) to the *horizon* — the next scheduled control
        event (a steering checkpoint or the shard addition) on the global
        clock — or to the first shard death, whichever comes first.  A
        static array has no control events, so it advances to the next
        death.  A death takes priority: the event it overtakes slips to
        the death's global time so segment boundaries stay monotone.
        Otherwise the event fires — feed the health model, add the
        scheduled shard, plan bounded swaps — and the loop resumes.
        ``rounds`` counts the passes of this loop.
        """
        cfg = self.config
        states = self._states = [self._boot_state(i)
                                 for i in range(cfg.num_shards)]
        dead_order: List[int] = []
        add_at = float(cfg.add_shard_at or math.inf)
        step = float(cfg.balance_every or math.inf) if cfg.balance \
            else math.inf
        next_balance = step
        rounds = 0
        stop: Optional[StopReason] = None
        while stop is None:
            horizon = self._next_horizon(min(add_at, next_balance))
            rounds += 1
            death = self._advance(horizon)
            live = [i for i, state in enumerate(states) if not state.dead]
            self._observe_health(live)
            if death is not None:
                death_global, victim = death
                self._mark_dead(victim, death_global)
                dead_order.append(victim)
                live.remove(victim)
                if cfg.policy == "fail-stop":
                    stop = StopReason(
                        StopCause.SHARD_FAILED,
                        f"shard {victim} at ~{int(death_global):,} "
                        f"global writes")
                elif not live:
                    stop = StopReason(StopCause.EXHAUSTED,
                                      "all shards dead")
                else:
                    self._redistribute(victim, live, death_global)
                    self._apply_masses(self._steer(live), death_global)
                    add_at = max(add_at, death_global)
                    next_balance = max(next_balance, death_global)
                continue
            if horizon is None:
                stop = StopReason(StopCause.MAX_WRITES)
                continue
            affected: Set[int] = set()
            if horizon >= add_at:
                affected |= self.add_shard(horizon)
                add_at = math.inf
            if horizon >= next_balance:
                affected |= self._steer(live)
                next_balance = horizon + step
            self._apply_masses(affected, horizon)
        return self._assemble(states, dead_order, stop, rounds)

    def _next_horizon(self, event: float) -> Optional[float]:
        """The next control event's global time, if inside the budget."""
        if event == math.inf or (self.config.max_writes is not None
                                 and event >= self.config.max_writes):
            return None
        return event

    def _advance(self, horizon: Optional[float],
                 ) -> Optional[Tuple[float, int]]:
        """Step the live shards to *horizon* or the first death.

        The shard furthest behind on the global clock steps next, one
        epoch at a time, capped at the epoch boundary covering the
        horizon or the earliest death found so far.  Epochs therefore
        run in order of their start time, and a death found at an
        epoch's end is never overtaken: when no shard can step, every
        survivor sits exactly on the epoch boundary of that death (or
        of the horizon).  Returns ``(global write, shard)`` of the
        earliest death, ties to the lowest shard id, or ``None``.

        A death an earlier pass found but did not process (it came after
        that pass's first death) is reported again here.
        """
        deaths: List[Tuple[float, int]] = []
        ready: List[Tuple[float, int]] = []

        def place(shard: int) -> None:
            """Queue *shard* at its position, or record its death there."""
            state = self._states[shard]
            assert state.engine is not None and state.engine.stop
            at = self._global_at_local(state, state.engine.total_writes)
            if state.engine.stop.cause is StopCause.MAX_WRITES:
                heapq.heappush(ready, (at, shard))
            else:
                deaths.append((at, shard))

        for i, state in enumerate(self._states):
            if not state.dead and state.share > 0:
                if state.engine is None:
                    self._build(i, 0)
                place(i)
        while ready:
            _, i = heapq.heappop(ready)
            state = self._states[i]
            assert state.engine is not None
            bound = horizon
            if deaths:
                first = min(deaths)[0]
                bound = first if bound is None else min(bound, first)
            cap = self._cap_for(state, bound)
            position = state.engine.total_writes
            if cap is not None and position >= cap:
                continue
            step = position + self.config.batch_writes
            state.engine.resume(step if cap is None else min(step, cap))
            place(i)
        if not deaths:
            return None
        death = min(deaths)
        self._repair_ties(death)
        return death

    def _repair_ties(self, death: Tuple[float, int]) -> None:
        """Rebuild every survivor that stepped past *death*'s epoch boundary.

        An exhausted chip reports its death at the start of the epoch it
        failed in, so a survivor tied with it on the global clock (equal
        shares put every shard on one clock) may already have stepped
        that epoch.  Each such survivor runs fresh from its segments to
        the boundary instead.
        """
        death_global, victim = death
        for i, state in enumerate(self._states):
            if state.dead or state.engine is None or i == victim:
                continue
            ceiling = self._cap_for(state, death_global)
            assert ceiling is not None
            if state.engine.total_writes > ceiling:
                self._build(i, ceiling)

    def _build(self, shard: int, cap: int) -> None:
        """Build *shard*'s stack from its segments and run it to *cap*."""
        state = self._states[shard]
        state.engine, state.session = build_shard(
            self.config, shard, state.segments, cap, self.schedule,
            label=f"{self.label}/s{shard}")
        state.engine.run()

    def _cap_for(self, state: _ShardState,
                 horizon: Optional[float] = None) -> Optional[int]:
        """Epoch-aligned local write cap for one shard's next step."""
        cfg = self.config
        cap: Optional[int] = None
        if cfg.max_writes is not None:
            cap = self._epoch_ceil(
                self._local_at_global(state, float(cfg.max_writes)))
        if horizon is not None:
            capped = self._epoch_ceil(self._local_at_global(state, horizon))
            cap = capped if cap is None else min(cap, capped)
        return cap

    def _mark_dead(self, victim: int, death_global: float) -> None:
        state = self._states[victim]
        state.dead = True
        state.death_global = death_global
        if self.health is not None:
            writes, failed = self._reading(state)
            self.health.observe(victim, writes, failed, dead=True)

    def _observe_health(self, live: List[int]) -> None:
        """Feed every live shard's current reading into the health model."""
        if self.health is None:
            return
        for i in live:
            writes, failed = self._reading(self._states[i])
            self.health.observe(i, writes, failed)

    @staticmethod
    def _reading(state: _ShardState) -> Tuple[float, float]:
        """``(local writes, failed fraction)`` of a shard's engine now."""
        if state.engine is None:
            return 0.0, 0.0
        return (float(state.engine.total_writes),
                state.engine.chip.failed_fraction())

    def _steer(self, live: List[int]) -> Set[int]:
        """One bounded leveler round; returns the shards whose map changed.

        A no-op when steering is off.
        """
        from ..balance.leveler import plan_swaps
        if self.health is None or not self.config.balance:
            return set()
        swaps = plan_swaps(self.decoder, self.probabilities,
                           self.health.risks(), live,
                           self.config.remap_budget)
        affected: Set[int] = set()
        if swaps:
            self._remap_swaps += len(swaps)
            self._migration_writes += 2 * len(swaps)
            for hot, cold in swaps:
                affected.add(int(self.decoder.shard_of(hot)))
                affected.add(int(self.decoder.shard_of(cold)))
        return affected

    def add_shard(self, at_global: float) -> Set[int]:
        """Grow the array by one fresh shard at a control event.

        The new chip+reviver stack starts pristine with its local clock
        pinned to the global clock at *at_global*; the consistent-hash
        movers give it ~``1/(N+1)`` of the address space.  Returns the
        donor shards whose traffic changed (the new shard's own state is
        installed directly).
        """
        assert self.health is not None  # built whenever add_shard_at is set
        movers, donors = self.decoder.add_shard()
        new_index = len(self._states)
        mass = self.decoder.local_mass(self.probabilities, new_index)
        self._states.append(_ShardState(
            mass=mass, segments=[(0, mass.copy())],
            pieces=[(0, float(at_global), float(mass.sum()))]))
        self.health.add_shard()
        self._migration_writes += int(movers.size)
        self._shards_added += 1
        return {int(s) for s in np.unique(np.asarray(donors))}

    def _apply_masses(self, affected: Iterable[int],
                      at_global: float) -> None:
        """Re-project masses for *affected* shards at the event boundary."""
        for i in sorted(set(affected)):
            if not self._states[i].dead:
                self._append_segment(
                    i, self.decoder.local_mass(self.probabilities, i),
                    at_global)

    def _boot_state(self, shard: int) -> _ShardState:
        mass = self.decoder.local_mass(self.probabilities, shard)
        return _ShardState(mass=mass, segments=[(0, mass.copy())],
                           pieces=[(0, 0.0, float(mass.sum()))])

    def _redistribute(self, victim: int, live: List[int],
                      death_global: float) -> None:
        """Degraded mode: move the dead shard's traffic onto survivors.

        The map decides where it goes (:meth:`BalancedDecoder.rehome`
        holds the re-home rule); each survivor then gains the dead
        shard's mass at exactly the slots it received, on a new trace
        segment.  Survivors that inherit no mass keep their trace.

        Survivor masses are carried incrementally rather than
        re-projected with ``local_mass``: its scatter-add sums a slot's
        addresses in address order, which after a second death differs
        from this running sum in the last bit, and those low-order bits
        change the trace draws.
        """
        moved = self.decoder.rehome(victim, live)
        owners, slots = self.decoder.decode(moved)
        dead_mass = self._states[victim].mass
        self._states[victim].mass = np.zeros_like(dead_mass)
        for survivor in live:
            take = np.zeros(dead_mass.size, dtype=bool)
            take[slots[owners == survivor]] = True
            inherited = dead_mass[take]
            if inherited.sum() <= 0:
                continue
            mass = self._states[survivor].mass.copy()
            mass[take] += inherited
            self._append_segment(survivor, mass, death_global)

    def _append_segment(self, shard: int, mass: np.ndarray,
                        at_global: float) -> None:
        """Switch *shard* to traffic *mass* from the event at *at_global*.

        The new trace segment and clock piece start at the first epoch
        boundary the shard reaches at or after *at_global*.  A boundary
        equal to the last segment's start *replaces* it — the shard had
        not consumed any of that segment yet (e.g. an idle shard
        inheriting its first traffic, or two events at one boundary).
        Every live shard is parked at or before the boundary, so its
        engine's trace takes the new segments as they are.
        """
        state = self._states[shard]
        boundary = max(self._epoch_ceil(self._local_at_global(state,
                                                              at_global)),
                       state.segments[-1][0])
        global_start = max(at_global,
                           self._global_at_local(state, boundary))
        if state.segments[-1][0] == boundary:
            state.segments.pop()
            state.pieces.pop()
        state.segments.append((boundary, mass.copy()))
        state.pieces.append((boundary, global_start, float(mass.sum())))
        state.mass = mass
        if state.engine is not None and state.share > 0:
            trace = state.engine.trace
            assert isinstance(trace, SegmentedTrace)
            trace.reschedule(state.segments)

    # -------------------------------------------------------------- assembly

    def _assemble(self, states: List[_ShardState], dead_order: List[int],
                  stop: Optional[StopReason],
                  rounds: int) -> ArrayResult:
        cfg = self.config
        # A shard's boot-time share is its first trace segment's mass —
        # identical to the decoder projection for the initial shards,
        # and well-defined for shards added mid-run.
        base_shares = [float(state.segments[0][1].sum())
                       for state in states]
        reports = [state.engine.end_of_life_report()
                   if state.engine is not None else IDLE_REPORT
                   for state in states]
        census = []
        rescaled = []
        for i, (state, report) in enumerate(zip(states, reports)):
            assert report.stop is not None
            died_at = (int(state.death_global)
                       if state.death_global is not None else None)
            census.append(ShardCensus(
                shard=i, share=base_shares[i], final_share=state.share,
                local_writes=report.total_writes,
                stop=report.stop.cause.value, died_at_global=died_at,
                report=report.as_dict()))
            rescaled.append(self._global_series(i, state))
        merged = LifetimeSeries.merge(
            rescaled, access_weights=(base_shares
                                      if any(base_shares) else None),
            label=self.label)
        total_writes = sum(report.total_writes for report in reports)
        shards = len(states)
        self.result = ArrayResult(
            label=self.label, config=cfg, series=merged,
            snapshot=self._merged_snapshot(states, dead_order, rounds,
                                           total_writes),
            report=ArrayEndOfLifeReport(
                stop=stop, total_writes=total_writes,
                failed_fraction=sum(r.failed_fraction
                                    for r in reports) / shards,
                usable_fraction=sum(
                    0.0 if state.dead else report.usable_fraction
                    for state, report in zip(states, reports)) / shards,
                os_interruptions=sum(r.os_interruptions for r in reports),
                victimized_writes=sum(r.victimized_writes for r in reports),
                pages_acquired=sum(r.pages_acquired for r in reports),
                spares_available=sum(r.spares_available for r in reports),
                linked_blocks=sum(r.linked_blocks for r in reports),
                pa_da_loops=sum(r.pa_da_loops for r in reports),
                crashes_recovered=sum(r.crashes_recovered
                                      for r in reports),
                policy=cfg.policy, interleave=cfg.interleave,
                num_shards=shards, rounds=rounds,
                dead_shards=tuple(dead_order), shards=tuple(census)),
            rounds=rounds)
        return self.result

    def _global_series(self, shard: int,
                       state: _ShardState) -> LifetimeSeries:
        """One shard's series rescaled onto the global write clock."""
        local = state.engine.series.points if state.engine is not None \
            else []
        points = [SamplePoint(
            int(round(self._global_at_local(state, p.writes))),
            p.survival, p.usable, p.avg_access) for p in local]
        if state.dead and state.death_global is not None:
            last = points[-1] if points else SamplePoint(0, 1.0, 1.0)
            # A dead shard serves nothing: its capacity is gone from the
            # array at the death point onward.
            points.append(SamplePoint(int(round(state.death_global)),
                                      last.survival, 0.0,
                                      last.avg_access))
        return LifetimeSeries(label=f"s{shard}", points=points)

    def _merged_snapshot(self, states: List[_ShardState],
                         dead_order: List[int], rounds: int,
                         total_writes: int,
                         ) -> Dict[str, Dict[str, object]]:
        # Phase timers record wall-clock seconds, which would make the
        # merged snapshot differ between runs; their ``.calls`` twins
        # stay.
        merged: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {}}
        for state in states:
            if state.session is not None:
                merged = merge_snapshots(merged, deterministic_snapshot(
                    state.session.registry.snapshot()))
        extra: Dict[str, Dict[str, object]] = {
            "counters": {"array.rounds": rounds,
                         "array.shard-deaths": len(dead_order),
                         "array.writes": total_writes},
            "gauges": {"array.shards-live":
                       sum(1 for s in states if not s.dead)}}
        if self.health is not None:
            extra["counters"]["balance.migration-writes"] = \
                self._migration_writes
            extra["counters"]["balance.remap-swaps"] = self._remap_swaps
            extra["counters"]["balance.shards-added"] = self._shards_added
        merged = merge_snapshots(merged, extra)
        if self.health is not None:
            session = TelemetrySession()
            self.health.publish(session)
            merged = merge_snapshots(merged,
                                     session.registry.snapshot())
        return merged

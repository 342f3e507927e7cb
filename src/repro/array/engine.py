"""The array engine: shared-nothing shards behind one decoder.

:class:`ArrayEngine` services a single global write distribution with an
array of independent shard stacks (chip + Start-Gap + recovery), each a
full :class:`~repro.sim.fast.FastEngine` run as a grid cell of the
parallel harness.  Shards never share state; what couples them is pure
arithmetic:

* one address map — a :class:`~repro.balance.BalancedDecoder` over the
  :class:`~repro.array.decoder.InterleavedDecoder` — projects the
  global distribution into per-shard local mass vectors (a shard's
  *share* is its mass);
* a **global write clock** relates the shards: a shard with share ``f``
  advances its local clock ``f`` writes per global write, giving each
  shard a piecewise-linear local<->global map that the engine maintains
  as shares change.

End-of-life is decided on the global clock.  Each *round*, the live
shards run to their own stop conditions, the likeliest casualty first
so the others can park at its death (the lead rule,
:meth:`ArrayEngine._run_round`); the earliest death on the global clock
wins (ties broken by shard id):

``fail-stop``
    The array dies with its first shard.  Survivors end capped at the
    death point (epoch-aligned) so the merged result describes the
    array at the moment it stopped: the lead rule parks them there when
    the lead was the casualty, and the same round re-runs any that ran
    past it.
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
and per-segment trace generators are independent — so re-running a
survivor with appended segments replays its prefix byte-identically, a
shard parked at its write cap continues its saved engine to the state a
fresh run would reach, and the whole array result (merged telemetry
snapshot included) is invariant under ``jobs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..experiments.parallel import Cell, GridRunner, ProgressFn
from ..faultinject import FaultSchedule, for_shard
from ..rng import SeedLike
from ..sim.metrics import LifetimeSeries, SamplePoint
from ..sim.stop import StopCause, StopReason
from ..telemetry import TelemetrySession, merge_snapshots
from ..traces.base import DistributionTrace
from ..units import blocks_of_pages, ceil_div, page_count
from .decoder import INTERLEAVE_MODES, InterleavedDecoder
from .report import ArrayEndOfLifeReport, ShardCensus
from .shard import idle_result, run_shard_cell, shard_seed

#: Array end-of-life policies.
ARRAY_POLICIES: Tuple[str, ...] = ("fail-stop", "degraded")

#: Dotted reference GridRunner workers re-import for each shard cell.
_CELL_FN = f"{run_shard_cell.__module__}:{run_shard_cell.__name__}"


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
    max_order: int = 16
    ecp_k: int = 6
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
    #: Minimum risk spread before the leveler engages.
    min_risk_gap: float = 0.02
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
        if self.shard_blocks < 2 * self.page_blocks:
            # Start-Gap spends one line on the gap, which costs the
            # software space a whole page; below two pages nothing is
            # left to serve.
            raise ConfigurationError(
                "shard_blocks must be at least two OS pages")
        if self.remap_budget < 0:
            raise ConfigurationError("remap_budget cannot be negative")
        if self.min_risk_gap < 0:
            raise ConfigurationError("min_risk_gap cannot be negative")
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


@dataclass
class _ShardState:
    """Book-keeping the engine keeps per shard between rounds."""

    #: Current local mass vector (in global-probability units).
    mass: np.ndarray
    #: ``(start_write, mass_vector)`` trace segments, epoch-aligned.
    segments: List[Tuple[int, np.ndarray]]
    #: ``(local_start, global_start, share)`` pieces of the clock map.
    pieces: List[Tuple[int, float, float]]
    result: Optional[dict] = None
    #: Earliest boundary of a segment appended since ``result`` was
    #: recorded (``None``: the record matches the trace).
    changed_at: Optional[int] = None
    #: ``(engine, context)`` kept from the last run, which stopped at its
    #: write cap; the next run may continue it (see ``_checkpoint_for``).
    checkpoint: Optional[tuple] = None
    dead: bool = False
    death_global: Optional[float] = None
    #: Fail-stop: epoch-aligned local write cap for the truncation re-run.
    forced_cap: Optional[int] = None

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
    #: Raw per-shard cell records, by shard index.
    shards: List[dict] = field(default_factory=list)
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
    """Round-based lifetime simulation of a shard array."""

    def __init__(self, config: ArrayConfig, trace: DistributionTrace,
                 label: str = "array", jobs: int = 1, batch: int = 1,
                 schedule: Optional[FaultSchedule] = None,
                 progress: Optional[ProgressFn] = None) -> None:
        # Imported here: repro.balance wraps this package's decoder.
        from ..balance import BalancedDecoder, LevelerPolicy, ShardHealthModel
        self.config = config
        self.label = label
        self.jobs = jobs
        self.batch = batch
        self.schedule = schedule
        self.progress = progress
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
        self._policy: Optional[LevelerPolicy] = None
        if config.balance or config.add_shard_at is not None:
            self.health = ShardHealthModel(
                config.num_shards,
                endurance_budget=config.shard_blocks * config.mean_endurance,
                seed=config.seed)
            if config.balance:
                self._policy = LevelerPolicy(budget=config.remap_budget,
                                            min_gap=config.min_risk_gap)
        self._states: List[_ShardState] = []
        self._seeds: List[int] = []
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

        Each round re-runs the live shards whose recorded run is out of
        date (continuing a shard's saved engine where
        :meth:`_checkpoint_for` allows, else from write 0), capped at
        the *horizon*: the next scheduled control event
        (a steering checkpoint or the shard addition) on the global
        clock.  A static array has no control events, so its shards run
        to their own stop conditions, or to the lead's death
        (:meth:`_run_round`).  The earliest death on the global clock
        wins; deaths take priority over control events, and an event a
        death overtakes slips to the death's global time so segment
        boundaries stay monotone.  Under fail-stop the round that finds
        the death also re-runs, capped at the death epoch, any survivor
        that ran past it.  When a round ends with every live shard
        parked at the horizon, the event fires — feed the health model,
        add the scheduled shard, plan bounded swaps — and the loop
        resumes.  ``rounds`` counts the passes of this loop.
        """
        cfg = self.config
        states = self._states = [self._boot_state(i)
                                 for i in range(cfg.num_shards)]
        self._seeds = [shard_seed(cfg.seed, i)
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
            self._run_round(rounds, self._pending_shards(horizon), horizon)
            live = [i for i, state in enumerate(states) if not state.dead]
            self._observe_health(live)
            death = self._first_death()
            if death is not None:
                death_global, victim = death
                self._mark_dead(victim, death_global)
                dead_order.append(victim)
                live.remove(victim)
                if cfg.policy == "fail-stop":
                    self._run_cells(rounds, self._truncate_survivors(
                        live, death_global), tag="/cap")
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

    def _pending_shards(self, horizon: Optional[float]) -> List[int]:
        """Live shards whose recorded run is out of date.

        A record is out of date when the shard has none yet, when its
        trace changed after the record was made (``changed_at`` is set),
        or when it stopped at its write cap and the cap has moved.  A
        record ending in a death that no trace change touched stands as
        it is.
        """
        pending = []
        for i, state in enumerate(self._states):
            if state.dead or state.share <= 0:
                if state.result is None:
                    state.result = idle_result(
                        i, self.config.software_blocks)
                continue
            record = state.result
            if (record is None or state.changed_at is not None
                    or (record["stop"] == StopCause.MAX_WRITES.value
                        and int(record["local_writes"])
                        != self._cap_for(state, horizon))):
                pending.append(i)
        return pending

    def _first_death(self) -> Optional[Tuple[float, int]]:
        """``(global write, shard)`` of the earliest unprocessed death."""
        deaths: List[Tuple[float, int]] = []
        for i, state in enumerate(self._states):
            record = state.result
            if (not state.dead and record is not None
                    and record["stop"] != StopCause.MAX_WRITES.value):
                deaths.append((self._global_at_local(
                    state, int(record["local_writes"])), i))
        return min(deaths) if deaths else None

    def _mark_dead(self, victim: int, death_global: float) -> None:
        state = self._states[victim]
        state.dead = True
        state.death_global = death_global
        if self.health is not None:
            record = state.result
            writes = (float(record["local_writes"])
                      if record is not None else 0.0)
            self.health.observe(victim, writes,
                                self._failed_fraction(record), dead=True)

    def _observe_health(self, live: List[int]) -> None:
        """Feed every live shard's latest record into the health model."""
        if self.health is None:
            return
        for i in live:
            record = self._states[i].result
            if record is not None:
                self.health.observe(i, float(record["local_writes"]),
                                    self._failed_fraction(record))

    @staticmethod
    def _failed_fraction(record: Optional[dict]) -> float:
        if record is None:
            return 0.0
        report = record.get("report", {})
        value = report.get("failed_fraction", 0.0) \
            if isinstance(report, dict) else 0.0
        return float(value) if isinstance(value, (int, float)) \
            and not isinstance(value, bool) else 0.0

    def _steer(self, live: List[int]) -> Set[int]:
        """One bounded leveler round; returns the shards whose map changed.

        A no-op when steering is off.
        """
        from ..balance.leveler import plan_swaps
        if self.health is None or self._policy is None:
            return set()
        swaps = plan_swaps(self.decoder, self.probabilities,
                           self.health.risks(), live, self._policy)
        affected: Set[int] = set()
        if swaps:
            self._remap_swaps += len(swaps)
            self._migration_writes += 2 * len(swaps)
            for hot, cold in swaps:
                affected.add(int(self.decoder.shard_of(hot)))
                affected.add(int(self.decoder.shard_of(cold)))
        return affected

    def add_shard(self, at_global: float) -> Set[int]:
        """Grow the array by one fresh shard at a round boundary.

        The new chip+reviver cell starts pristine with its local clock
        pinned to the global clock at *at_global*; the consistent-hash
        movers give it ~``1/(N+1)`` of the address space.  Returns the
        donor shards whose traffic changed (the new shard's own state is
        installed directly).
        """
        assert self.health is not None  # built whenever add_shard_at is set
        cfg = self.config
        movers, donors = self.decoder.add_shard()
        new_index = len(self._states)
        self._seeds.append(shard_seed(cfg.seed, new_index))
        mass = self.decoder.local_mass(self.probabilities, new_index)
        state = _ShardState(
            mass=mass, segments=[(0, mass.copy())],
            pieces=[(0, float(at_global), float(mass.sum()))])
        if state.share <= 0:
            state.result = idle_result(new_index, cfg.software_blocks)
        self._states.append(state)
        self.health.add_shard()
        self._migration_writes += int(movers.size)
        self._shards_added += 1
        return {int(s) for s in np.unique(np.asarray(donors))}

    def _apply_masses(self, affected: Iterable[int],
                      at_global: float) -> None:
        """Re-project masses for *affected* shards at the event boundary."""
        for i in sorted(set(affected)):
            state = self._states[i]
            if not state.dead:
                self._append_segment(
                    state, self.decoder.local_mass(self.probabilities, i),
                    at_global)

    # ---------------------------------------------------------------- rounds

    def _boot_state(self, shard: int) -> _ShardState:
        mass = self.decoder.local_mass(self.probabilities, shard)
        return _ShardState(mass=mass, segments=[(0, mass.copy())],
                           pieces=[(0, 0.0, float(mass.sum()))])

    def _run_round(self, round_no: int, pending: List[int],
                   horizon: Optional[float] = None) -> None:
        """Run the pending shards' cells in two waves (the lead rule).

        *horizon* caps every cell at the epoch boundary covering that
        global write count, so a control event can fire with all live
        shards parked at the same point of the clock.  The lead
        (:meth:`_lead`) runs alone first.  If it dies, the death moves
        the horizon for the rest of the round: every other pending shard
        parks at the epoch boundary covering the lead's death, exactly
        the boundary a degraded re-home or a fail-stop truncation gives
        it, so its next cell continues the saved engine instead of
        replaying from write 0.  A shard that dies before the lead
        still reports its death, and the round does no more work than
        running every shard to the horizon.

        An array with a health model runs one wave instead: the model
        reads every live record after the round, and a survivor parked
        at the lead's death reads differently from one run to the
        horizon, which would make steering depend on the lead.
        """
        if not pending:
            return
        if self.health is not None:
            self._run_cells(round_no, pending, horizon)
            return
        lead = self._lead(pending)
        self._run_cells(round_no, [lead], horizon)
        state = self._states[lead]
        assert state.result is not None
        if state.result["stop"] != StopCause.MAX_WRITES.value:
            death = self._global_at_local(
                state, int(state.result["local_writes"]))
            horizon = death if horizon is None else min(horizon, death)
        self._run_cells(round_no, [i for i in pending if i != lead],
                        horizon)

    def _lead(self, pending: List[int]) -> int:
        """The pending shard likeliest to die first.

        The largest current share wears out first under skewed traffic;
        ties go to the lowest shard id.  The choice only saves work: the
        round's result is the same whichever shard leads.
        """
        return min(pending, key=lambda i: (-self._states[i].share, i))

    def _run_cells(self, round_no: int, shards: List[int],
                   horizon: Optional[float] = None, tag: str = "") -> None:
        """Run one cell per shard in one grid call; record the results.

        Cell keys are ``<label>/r<round>/s<shard><tag>``.
        """
        if not shards:
            return
        states = self._states
        keys = {i: f"{self.label}/r{round_no}/s{i}{tag}" for i in shards}
        cells = [Cell(key=keys[i], fn=_CELL_FN,
                      kwargs=self._cell_kwargs(i, states[i], self._seeds[i],
                                               horizon))
                 for i in shards]
        runner = GridRunner(jobs=self.jobs, progress=self.progress,
                            batch=self.batch)
        values = runner.run(cells)
        for i in shards:
            record = values[keys[i]]
            states[i].checkpoint = record.pop("checkpoint", None)
            states[i].result = record
            states[i].changed_at = None

    def _cap_for(self, state: _ShardState,
                 horizon: Optional[float] = None) -> Optional[int]:
        """Epoch-aligned local write cap for one shard's next cell run."""
        cfg = self.config
        cap: Optional[int] = None
        if cfg.max_writes is not None:
            cap = self._epoch_ceil(
                self._local_at_global(state, float(cfg.max_writes)))
        if horizon is not None:
            capped = self._epoch_ceil(self._local_at_global(state, horizon))
            cap = capped if cap is None else min(cap, capped)
        if state.forced_cap is not None:
            cap = (state.forced_cap if cap is None
                   else min(cap, state.forced_cap))
        return cap

    @staticmethod
    def _checkpoint_for(state: _ShardState,
                        cap: Optional[int]) -> Optional[tuple]:
        """The saved engine *state*'s next run continues, if any.

        Only a record that stopped at its write cap keeps a checkpoint.
        The shard continues it when the new *cap* is not behind that
        record's ``local_writes`` and no segment appended since starts
        behind it either.  Everything else runs fresh from write 0: a
        degraded re-home behind the shard's position, a fail-stop
        truncation, a shard's first run.
        """
        record = state.result
        if state.checkpoint is None or record is None:
            return None
        writes = int(record["local_writes"])
        if cap is not None and cap < writes:
            return None
        if state.changed_at is not None and state.changed_at < writes:
            return None
        return state.checkpoint

    def _cell_kwargs(self, shard: int, state: _ShardState, seed: int,
                     horizon: Optional[float] = None) -> dict:
        cfg = self.config
        cap = self._cap_for(state, horizon)
        schedule_json: Optional[str] = None
        if self.schedule is not None:
            schedule_json = for_shard(self.schedule, shard).to_json()
        segments = [[start, [float(x) for x in mass]]
                    for start, mass in state.segments]
        return dict(shard=shard, seed=seed,
                    device_blocks=cfg.shard_blocks,
                    mean_endurance=cfg.mean_endurance,
                    endurance_cov=cfg.endurance_cov,
                    max_order=cfg.max_order, ecp_k=cfg.ecp_k, psi=cfg.psi,
                    batch_writes=cfg.batch_writes, recovery=cfg.recovery,
                    dead_fraction=cfg.dead_fraction,
                    page_blocks=cfg.page_blocks, segments=segments,
                    max_writes=cap, schedule=schedule_json,
                    telemetry=cfg.telemetry,
                    label=f"{self.label}/s{shard}",
                    checkpoint=self._checkpoint_for(state, cap))

    def _truncate_survivors(self, live: List[int],
                            death_global: float) -> List[int]:
        """Fail-stop: cap every survivor at the death point (epoch-aligned).

        Returns the shards that must re-run; a survivor already parked
        at that cap (the lead rule parks them there when the lead was
        the casualty) keeps its result.
        """
        pending = []
        for i in live:
            state = self._states[i]
            cap = self._epoch_ceil(
                self._local_at_global(state, death_global))
            assert state.result is not None
            if int(state.result["local_writes"]) != cap:
                state.forced_cap = cap
                pending.append(i)
        return pending

    def _redistribute(self, victim: int, live: List[int],
                      death_global: float) -> None:
        """Degraded mode: move the dead shard's traffic onto survivors.

        The map decides where it goes (:meth:`BalancedDecoder.rehome`
        holds the re-home rule); each survivor then gains the dead
        shard's mass at exactly the slots it received, on a new trace
        segment.  Survivors that inherit no mass keep their trace and
        their recorded run.

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
            state = self._states[survivor]
            mass = state.mass.copy()
            mass[take] += inherited
            self._append_segment(state, mass, death_global)

    def _append_segment(self, state: _ShardState, mass: np.ndarray,
                        at_global: float) -> None:
        """Switch *state* to traffic *mass* from the event at *at_global*.

        The new trace segment and clock piece start at the first epoch
        boundary the shard reaches at or after *at_global*.  A boundary
        equal to the last segment's start *replaces* it — the shard had
        not consumed any of that segment yet (e.g. an idle shard
        inheriting its first traffic, or two events at one boundary).
        The shard's recorded run no longer matches its trace from the
        boundary on, so ``changed_at`` keeps the earliest such boundary.
        """
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
        state.changed_at = (boundary if state.changed_at is None
                            else min(state.changed_at, boundary))

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
        census = []
        rescaled = []
        total_writes = 0
        for i, state in enumerate(states):
            record = state.result
            assert record is not None
            report = record["report"]
            local_writes = int(record["local_writes"])
            total_writes += local_writes
            died_at = (int(state.death_global)
                       if state.death_global is not None else None)
            census.append(ShardCensus(
                shard=i, share=base_shares[i], final_share=state.share,
                local_writes=local_writes, stop=str(record["stop"]),
                died_at_global=died_at, report=dict(report)))
            rescaled.append(self._global_series(i, state, record))
        merged = LifetimeSeries.merge(
            rescaled, access_weights=(base_shares
                                      if any(base_shares) else None),
            label=self.label)
        snapshot = self._merged_snapshot(states, dead_order, rounds,
                                         total_writes)
        report_out = self._array_report(states, census, dead_order, stop,
                                        rounds, total_writes)
        self.result = ArrayResult(
            label=self.label, config=cfg, series=merged, snapshot=snapshot,
            report=report_out,
            shards=[dict(s.result) for s in states if s.result is not None],
            rounds=rounds)
        return self.result

    def _global_series(self, shard: int, state: _ShardState,
                       record: dict) -> LifetimeSeries:
        """One shard's series rescaled onto the global write clock."""
        local = LifetimeSeries.from_payload(record["series"],
                                            label=f"s{shard}")
        points = [SamplePoint(
            int(round(self._global_at_local(state, p.writes))),
            p.survival, p.usable, p.avg_access) for p in local.points]
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
        merged: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {}}
        for state in states:
            assert state.result is not None
            snapshot = state.result.get("snapshot")
            if snapshot:
                merged = merge_snapshots(merged, snapshot)
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

    def _array_report(self, states: List[_ShardState],
                      census: List[ShardCensus], dead_order: List[int],
                      stop: Optional[StopReason], rounds: int,
                      total_writes: int) -> ArrayEndOfLifeReport:
        cfg = self.config
        shards = len(states)

        def summed(name: str) -> int:
            return sum(int(self._num(c.report.get(name, 0)))
                       for c in census)

        failed = sum(float(self._num(c.report.get("failed_fraction", 0.0)))
                     for c in census) / shards
        usable = sum(
            0.0 if states[c.shard].dead
            else float(self._num(c.report.get("usable_fraction", 0.0)))
            for c in census) / shards
        return ArrayEndOfLifeReport(
            stop=stop, total_writes=total_writes,
            failed_fraction=failed, usable_fraction=usable,
            os_interruptions=summed("os_interruptions"),
            victimized_writes=summed("victimized_writes"),
            pages_acquired=summed("pages_acquired"),
            spares_available=summed("spares_available"),
            linked_blocks=summed("linked_blocks"),
            pa_da_loops=summed("pa_da_loops"),
            crashes_recovered=summed("crashes_recovered"),
            policy=cfg.policy, interleave=cfg.interleave,
            num_shards=shards, rounds=rounds,
            dead_shards=tuple(dead_order), shards=tuple(census))

    @staticmethod
    def _num(value: object) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"expected a number in a shard report, got {value!r}")
        return value

"""One array shard: an independent chip + WL + recovery stack in a cell.

:func:`run_shard_cell` is the module-level grid-cell function the
:class:`~repro.experiments.parallel.GridRunner` executes (possibly in a
worker process, which re-imports it by its dotted name).  A fresh cell
gets plain JSON-able data — the segment tables of its
:class:`~repro.array.trace.SegmentedTrace`, a per-shard
:class:`~repro.faultinject.FaultSchedule` as canonical JSON — and returns
a plain-data record.  A shard that stopped at its write cap also returns
its live ``(engine, context)`` as a *checkpoint* beside the record; the
array hands it back in the shard's next cell, which continues that
engine instead of re-simulating the shard from write 0.  A checkpoint
crosses a process pool by pickle, and the serial and pooled paths stay
bit-for-bit identical (the harness's standing guarantee).

Seeding discipline: each shard receives one integer seed derived by
:func:`shard_seed` from the array seed and the shard index **only** —
never from the re-decode round — so re-running a surviving shard with
extended segments replays its life prefix byte-identically, and a
continued checkpoint ends where a fresh run to the same cap ends.

Telemetry: the per-shard snapshot is filtered through
:func:`deterministic_snapshot` before leaving the cell — phase timers
record wall-clock seconds, which would make the merged array snapshot
differ between runs; their deterministic ``.calls`` twins stay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ecc import ECP
from ..config import StartGapConfig
from ..faultinject import FaultSchedule, ScheduleDriver
from ..pcm import AddressGeometry, EnduranceModel, PCMChip
from ..rng import SeedLike, derive_rng, spawn_seed
from ..sim.batched import register_batchable
from ..sim.fast import FastConfig, FastEngine
from ..sim.stop import StopCause
from ..telemetry import TelemetrySession, attach_fast
from ..wl import StartGap
from .trace import SegmentedTrace


def shard_seed(array_seed: SeedLike, shard: int) -> int:
    """The shard's root seed: a function of array seed and shard id only."""
    return spawn_seed(derive_rng(array_seed, f"array-shard-{shard}"))


def deterministic_snapshot(snapshot: Dict[str, Dict[str, object]],
                           ) -> Dict[str, Dict[str, object]]:
    """Drop wall-clock phase counters so snapshots are run-stable.

    ``phase.<name>.seconds`` counters measure real elapsed time and differ
    between otherwise identical runs; every other metric in a seeded
    shard run is deterministic (``phase.<name>.calls`` included).
    """
    counters = {name: value
                for name, value in snapshot.get("counters", {}).items()
                if not (name.startswith("phase.")
                        and name.endswith(".seconds"))}
    return {"counters": counters,
            "gauges": dict(snapshot.get("gauges", {})),
            "histograms": dict(snapshot.get("histograms", {}))}


def _segment_tables(segments: list) -> List[Tuple[int, np.ndarray]]:
    """The JSON ``[[start_write, [probabilities...]], ...]`` form as tables."""
    return [(int(start), np.asarray(probabilities, dtype=np.float64))
            for start, probabilities in segments]


def build_shard_cell(shard: int, seed: int, device_blocks: int,
                     mean_endurance: float, endurance_cov: float,
                     max_order: int, ecp_k: int, psi: int,
                     batch_writes: int, recovery: str, dead_fraction: float,
                     page_blocks: int, segments: list,
                     max_writes: Optional[int], schedule: Optional[str],
                     telemetry: bool, label: str,
                     checkpoint: Optional[tuple] = None,
                     ) -> Optional[tuple]:
    """Assemble one shard stack; returns ``(engine, context)``.

    ``segments`` is a list of ``[start_write, [probabilities...]]`` pairs
    (the JSON form of the shard's segmented local trace); ``schedule`` is
    a shard-local fault schedule as canonical JSON, already projected by
    :func:`repro.faultinject.for_shard`.

    A cell carrying a *checkpoint* continues a saved engine, so there is
    nothing to build: it returns ``None``, and the batched kernel, which
    takes fresh engines only, hands the cell to :func:`run_shard_cell`.
    """
    if checkpoint is not None:
        return None
    geometry = AddressGeometry(num_blocks=device_blocks, block_bytes=64,
                               page_bytes=64 * page_blocks)
    endurance = EnduranceModel(num_blocks=device_blocks,
                               mean=mean_endurance, cov=endurance_cov,
                               max_order=max_order,
                               seed=spawn_seed(derive_rng(seed, "endurance")))
    chip = PCMChip(geometry, ECP(endurance, ecp_k))
    wl = StartGap(device_blocks, config=StartGapConfig(
        psi=psi, seed=spawn_seed(derive_rng(seed, "startgap"))))
    trace = SegmentedTrace(_segment_tables(segments), name=f"s{shard}",
                           seed=spawn_seed(derive_rng(seed, "trace")))
    config = FastConfig(recovery=recovery, dead_fraction=dead_fraction,
                        batch_writes=batch_writes, max_writes=max_writes,
                        blocks_per_page=page_blocks,
                        seed=spawn_seed(derive_rng(seed, "engine")))
    engine = FastEngine(chip, wl, trace, config,
                        label=label or f"shard-{shard}")
    if schedule is not None:
        ScheduleDriver(FaultSchedule.from_json(schedule)).attach_fast(engine)
    session = TelemetrySession() if telemetry else None
    if session is not None:
        attach_fast(session, engine)
    return engine, (shard, session)


def finish_shard_cell(engine: FastEngine, summary: object,
                      context: tuple) -> dict:
    """Turn a completed shard engine into the cell's plain-data record."""
    shard, session = context
    report = engine.end_of_life_report()
    assert report.stop is not None
    snapshot = (deterministic_snapshot(session.registry.snapshot())
                if session is not None else None)
    return {"shard": shard,
            "stop": report.stop.cause.value,
            "local_writes": engine.total_writes,
            "virtual_blocks": engine.ospool.virtual_blocks,
            "series": engine.series.to_payload(),
            "report": report.as_dict(),
            "snapshot": snapshot}


def run_shard_cell(checkpoint: Optional[tuple] = None,
                   **kwargs: object) -> dict:
    """Run one shard stack to its stop condition; return its record.

    Without a *checkpoint* the stack is built and run from write 0.  A
    checkpoint is the ``(engine, context)`` an earlier call for the same
    shard returned: its trace takes the new ``segments`` (keeping those
    it has drawn from, :meth:`SegmentedTrace.reschedule`) and the engine
    resumes to the new ``max_writes``; the other kwargs describe the
    stack it already is.  Both paths end in the same record.

    A run that stopped at its write cap adds its own checkpoint under
    ``"checkpoint"``.  A death adds none: nothing continues a death, and
    keeping the engine would only hold memory.
    """
    if checkpoint is None:
        made = build_shard_cell(**kwargs)  # type: ignore[arg-type]
        assert made is not None
        engine, context = made
        engine.run()
    else:
        engine, context = checkpoint
        engine.trace.reschedule(_segment_tables(
            kwargs["segments"]))  # type: ignore[arg-type]
        engine.resume(kwargs["max_writes"])
    record = finish_shard_cell(engine, None, context)
    if engine.stop.cause is StopCause.MAX_WRITES:
        record["checkpoint"] = (engine, context)
    return record


register_batchable(f"{__name__}:run_shard_cell",
                   build_shard_cell, finish_shard_cell)


def idle_result(shard: int, virtual_blocks: int) -> dict:
    """Synthetic record for a shard that receives no traffic.

    A shard whose share of the global distribution is zero never wears
    and never advances its local clock; running an engine for it would
    require a drawable distribution it does not have.  The record mirrors
    :func:`run_shard_cell`'s shape with a pristine, zero-write life.
    """
    return {"shard": shard,
            "stop": "max-writes",
            "local_writes": 0,
            "virtual_blocks": virtual_blocks,
            "series": {"writes": [], "survival": [], "usable": [],
                       "avg_access": []},
            "report": {"stop": "max-writes: no traffic decoded to shard",
                       "total_writes": 0, "failed_fraction": 0.0,
                       "usable_fraction": 1.0, "os_interruptions": 0,
                       "victimized_writes": 0, "pages_acquired": 0,
                       "spares_available": 0, "linked_blocks": 0,
                       "pa_da_loops": 0, "crashes_recovered": 0},
            "snapshot": None}

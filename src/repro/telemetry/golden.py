"""The golden-trace run: one frozen, seeded, fully instrumented lifetime.

``golden_trace`` assembles a small exact-engine system (Start-Gap +
WL-Reviver), drives it through a seeded fault schedule with telemetry
attached, and returns the JSONL trace text.  Its purpose is *regression
pinning*: the byte-identical fixture under ``tests/data/`` fails loudly
on any ordering or determinism drift, so this builder must stay frozen —
it deliberately duplicates (rather than imports) the campaign's system
recipe, because the campaign is allowed to evolve and the golden run is
not.

The same function backs the chaos-smoke CI job's ``--trace-out`` (an
instrumented replay of a campaign seed whose summary becomes a build
artifact) and is a module-level, JSON-kwargs cell function, so
:class:`~repro.experiments.parallel.GridRunner` can run it in a worker —
which is how the regression test proves the trace is identical under
``--jobs > 1``.
"""

from __future__ import annotations

from ..config import ReviverConfig
from ..ecc import ECP
from ..mc import ReviverController
from ..osmodel import PagePool
from ..pcm import AddressGeometry, EnduranceModel, PCMChip
from ..sim import ExactEngine
from ..traces import hotspot_distribution
from ..wl import StartGap
from . import attach_exact
from .session import TelemetrySession
from .trace import TraceWriter

#: Format version stamped into the run-meta record; bump on any
#: deliberate vocabulary or field change (and regenerate the fixture).
TRACE_FORMAT = 1


def _golden_engine(seed: int, num_blocks: int, mean: float) -> ExactEngine:
    """The frozen golden system (do not edit without regenerating)."""
    geometry = AddressGeometry(num_blocks=num_blocks, block_bytes=64,
                               page_bytes=512)
    endurance = EnduranceModel(num_blocks=num_blocks, mean=mean, cov=0.25,
                               max_order=8, seed=11 + seed)
    chip = PCMChip(geometry, ECP(endurance, 1), track_contents=True)
    wl = StartGap(num_blocks)
    ospool = PagePool(wl.logical_blocks, blocks_per_page=8,
                      utilization=1.0, seed=5)
    controller = ReviverController(
        chip, wl, ospool,
        reviver_config=ReviverConfig(check_invariants=False),
        copy_on_retire=True)
    trace = hotspot_distribution(ospool.virtual_blocks, 4.0, seed=6 + seed)
    return ExactEngine(controller, trace, dead_fraction=0.3,
                       sample_interval=2_000, verify=True,
                       read_fraction=0.25)


def golden_trace(seed: int = 2014, num_blocks: int = 64, mean: float = 150.0,
                 max_writes: int = 12_000) -> str:
    """Run the golden system under telemetry; return the trace text.

    Deterministic to the byte in ``seed`` and the geometry arguments: the
    trace carries no timestamps and every event is emitted from the
    seeded simulation's own ordering.
    """
    from ..faultinject.hooks import ScheduleDriver
    from ..faultinject.schedule import random_schedule

    # The campaign's horizon rule, frozen alongside the system recipe.
    horizon = max(100, min(max_writes, int(mean) * num_blocks // 16))
    schedule = random_schedule(seed, num_blocks, horizon)
    engine = _golden_engine(seed, num_blocks, mean)
    ScheduleDriver(schedule).attach_exact(engine)
    writer = TraceWriter(meta={
        "engine": "exact", "format": TRACE_FORMAT, "max_writes": max_writes,
        "mean": mean, "num_blocks": num_blocks, "seed": seed,
    })
    session = TelemetrySession(writer=writer)
    attach_exact(session, engine)
    engine.run(max_writes=max_writes)
    engine.verify_all()
    return writer.getvalue()


__all__ = ["golden_trace", "TRACE_FORMAT"]

"""One array shard: an independent chip + WL + recovery stack.

:func:`build_shard` assembles a shard's stack from the array's
:class:`~repro.array.engine.ArrayConfig`, the segments of its
:class:`~repro.array.trace.SegmentedTrace` and the array's fault
schedule, projected onto the shard.  The array engine keeps each live
shard's engine in process, steps it epoch by epoch with
:meth:`FastEngine.resume <repro.sim.fast.FastEngine.resume>` and reads
its report, series and telemetry straight off the engine at the end.

Seeding discipline: each shard's stack is seeded by :func:`shard_seed`
from the array seed and the shard index **only**, so a shard rebuilt
from its segments replays its life prefix byte-identically, and a
continued engine ends where a fresh run to the same cap ends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from ..config import StartGapConfig
from ..ecc import ECP
from ..faultinject import FaultSchedule, ScheduleDriver, for_shard
from ..pcm import AddressGeometry, EnduranceModel, PCMChip
from ..rng import SeedLike, derive_rng, spawn_seed
from ..sim.fast import FastConfig, FastEngine
from ..telemetry import TelemetrySession, attach_fast
from ..wl import StartGap
from .trace import SegmentedTrace

if TYPE_CHECKING:
    from .engine import ArrayConfig

#: Cell-lifetime order statistics the endurance model samples per block,
#: and ECP correction pointers per block (the paper's ECP6), on every
#: shard chip.
MAX_ORDER = 16
ECP_K = 6


def shard_seed(array_seed: SeedLike, shard: int) -> int:
    """The shard's root seed: a function of array seed and shard id only."""
    return spawn_seed(derive_rng(array_seed, f"array-shard-{shard}"))


def build_shard(config: "ArrayConfig", shard: int,
                segments: Sequence[Tuple[int, np.ndarray]],
                max_writes: Optional[int],
                schedule: Optional[FaultSchedule] = None, label: str = "",
                ) -> Tuple[FastEngine, Optional[TelemetrySession]]:
    """Assemble shard *shard*'s stack; returns ``(engine, session)``.

    ``segments`` are the shard's ``(start_write, probabilities)`` trace
    segments; ``schedule`` is the array-wide fault schedule, of which
    the shard keeps its own actions.  ``session`` is ``None`` when the
    array runs without telemetry.
    """
    seed = shard_seed(config.seed, shard)
    blocks, page = config.shard_blocks, config.page_blocks
    geometry = AddressGeometry(num_blocks=blocks, block_bytes=64,
                               page_bytes=64 * page)
    endurance = EnduranceModel(num_blocks=blocks,
                               mean=config.mean_endurance,
                               cov=config.endurance_cov, max_order=MAX_ORDER,
                               seed=spawn_seed(derive_rng(seed, "endurance")))
    chip = PCMChip(geometry, ECP(endurance, ECP_K))
    wl = StartGap(blocks, config=StartGapConfig(
        psi=config.psi, seed=spawn_seed(derive_rng(seed, "startgap"))))
    trace = SegmentedTrace(segments, name=f"s{shard}",
                           seed=spawn_seed(derive_rng(seed, "trace")))
    fast = FastConfig(recovery=config.recovery,
                      dead_fraction=config.dead_fraction,
                      batch_writes=config.batch_writes, max_writes=max_writes,
                      blocks_per_page=page,
                      seed=spawn_seed(derive_rng(seed, "engine")))
    engine = FastEngine(chip, wl, trace, fast,
                        label=label or f"shard-{shard}")
    if schedule is not None:
        ScheduleDriver(for_shard(schedule, shard)).attach_fast(engine)
    session = TelemetrySession() if config.telemetry else None
    if session is not None:
        attach_fast(session, engine)
    return engine, session

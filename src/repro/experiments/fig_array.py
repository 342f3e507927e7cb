"""Array scaling — lifetime and usable space vs shard count.

Beyond the paper's single-chip figures: shard the same total PCM capacity
across N independent devices behind the interleaved decoder
(:mod:`repro.array`) and run each array to its end of life in degraded
mode.  Expected shapes:

* under *uniform* and *hotspot* workloads, block interleaving spreads the
  hot set across every shard, so total lifetime is roughly flat in the
  shard count while the tail degrades more gracefully (shards die one at
  a time instead of the whole chip at once);
* under the *attack* workload — a layout-aware adversary aiming 90 % of
  the traffic at the addresses one shard owns — the victim shard dies an
  array-equivalent of N times early, and the degraded array's survival
  advantage over fail-stop is at its largest.

Per cell one :class:`~repro.array.ArrayEngine` campaign runs serially
(``jobs=1``); the experiment grid itself parallelizes across cells, so
there is never a pool inside a pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..array import (ArrayConfig, ArrayEngine, InterleavedDecoder,
                     shard_attack_workload)
from ..errors import ConfigurationError
from ..sim.metrics import LifetimeSeries
from ..traces import (DistributionTrace, hotspot_distribution,
                      uniform_distribution, zipf_distribution)
from .common import scaled_parameters
from .parallel import Cell, GridRunner, cell_seed
from .report import format_series

#: Shard counts swept (1 = the single-chip baseline).
SHARD_COUNTS = (1, 2, 4, 8)

#: Global workloads; "attack" concentrates 90% of traffic on shard 0,
#: "zipf" is the serving-traffic popularity law (skew not layout-aligned).
WORKLOADS = ("uniform", "hotspot", "attack", "zipf")

#: OS page size in blocks — small enough that the tiny scale still
#: divides into 8 shards of whole pages.
PAGE_BLOCKS = 16


@dataclass(frozen=True)
class ArrayCurve:
    """One (workload, shard count) array campaign."""

    workload: str
    shards: int
    total_writes: int
    dead_shards: int
    rounds: int
    stop: str
    series: LifetimeSeries


@dataclass(frozen=True)
class FigArrayResult:
    """All campaigns of the scaling sweep."""

    curves: List[ArrayCurve]
    scale: str
    policy: str
    floor: float = 0.0


def _workload_trace(workload: str, config: ArrayConfig,
                    seed: int) -> DistributionTrace:
    """Build the global distribution for one cell."""
    size = config.global_blocks
    if workload == "uniform":
        return uniform_distribution(size, seed=seed)
    if workload == "hotspot":
        return hotspot_distribution(size, 3.0, seed=seed)
    if workload == "attack":
        decoder = InterleavedDecoder(config.num_shards,
                                     config.software_blocks,
                                     interleave=config.interleave,
                                     page_blocks=config.page_blocks)
        return shard_attack_workload(decoder, shard=0, hot_share=0.9,
                                     seed=seed)
    if workload == "zipf":
        return zipf_distribution(size, exponent=1.0, seed=seed)
    raise ConfigurationError(
        f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _cell(scale: str, workload: str, shards: int, policy: str,
          seed: int) -> dict:
    """One grid cell: a whole array campaign (executes in a worker)."""
    params = scaled_parameters(scale)
    config = ArrayConfig(
        num_shards=shards,
        shard_blocks=params.num_blocks // shards,
        policy=policy, page_blocks=PAGE_BLOCKS,
        mean_endurance=params.mean_endurance,
        psi=params.psi,
        batch_writes=max(1, params.batch_writes // shards),
        seed=seed)
    trace = _workload_trace(workload, config, seed)
    engine = ArrayEngine(config, trace,
                         label=f"{workload}/{shards}x", jobs=1)
    result = engine.run()
    report = result.report
    stop = report.stop.render() if report.stop is not None else "running"
    return {"total_writes": report.total_writes,
            "dead_shards": len(report.dead_shards),
            "rounds": result.rounds,
            "stop": stop,
            "series": result.series.to_payload()}


def _key(scale: str, workload: str, shards: int, policy: str) -> str:
    return f"fig_array/{scale}/{policy}/{workload}/{shards}x"


def grid(scale: str, workloads: List[str], shard_counts: List[int],
         policy: str, seed: int) -> List[Cell]:
    """The (workload x shard count) grid."""
    cells = []
    for workload in workloads:
        for shards in shard_counts:
            key = _key(scale, workload, shards, policy)
            cells.append(Cell(key=key, fn=f"{__name__}:_cell",
                              kwargs=dict(scale=scale, workload=workload,
                                          shards=shards, policy=policy,
                                          seed=cell_seed(seed, key))))
    return cells


def run(scale: str = "small",
        benchmarks: Optional[List[str]] = None,
        shard_counts: Optional[List[int]] = None,
        policy: str = "degraded",
        seed: int = 1,
        runner: Optional[GridRunner] = None) -> FigArrayResult:
    """Sweep shard counts and workloads at constant total capacity.

    ``benchmarks`` (the harness's generic filter flag) selects workload
    names here — there are no trace benchmarks at the array level.
    """
    workloads = [w for w in WORKLOADS
                 if benchmarks is None or w in benchmarks]
    if not workloads:
        raise ConfigurationError(
            f"no array workloads selected; choose from {WORKLOADS}")
    counts = list(shard_counts) if shard_counts is not None \
        else list(SHARD_COUNTS)
    runner = runner or GridRunner()
    values = runner.run(grid(scale, workloads, counts, policy, seed))
    curves = []
    for workload in workloads:
        for shards in counts:
            value = values[_key(scale, workload, shards, policy)]
            curves.append(ArrayCurve(
                workload=workload, shards=shards,
                total_writes=int(value["total_writes"]),
                dead_shards=int(value["dead_shards"]),
                rounds=int(value["rounds"]),
                stop=str(value["stop"]),
                series=LifetimeSeries.from_payload(
                    value["series"], label=f"{workload}/{shards}x")))
    return FigArrayResult(curves=curves, scale=scale, policy=policy)


def render(result: FigArrayResult) -> str:
    """Usable-space sparkline and milestones per (workload, shards)."""
    lines = [f"Array scaling: lifetime and usable space vs shard count "
             f"(scale={result.scale}, policy={result.policy})"]
    for workload in sorted({c.workload for c in result.curves}):
        lines.append(f"\n[{workload}]")
        for curve in result.curves:
            if curve.workload != workload:
                continue
            writes = [p.writes for p in curve.series.points]
            usable = [p.usable for p in curve.series.points]
            label = f"{curve.shards}x shards"
            lines.append(format_series(label, writes, usable,
                                       lo=result.floor, hi=1.0))
            milestone = curve.series.writes_to_usable(0.5)
            lines.append(
                f"{'':24s} lifetime {curve.total_writes:,} writes, "
                f"{curve.dead_shards} shard deaths, "
                "writes to 50% usable: "
                + (f"{milestone:,}" if milestone is not None
                   else "not reached"))
    return "\n".join(lines)


def as_dict(result: FigArrayResult) -> Dict[str, Dict[str, dict]]:
    """Lifetime/milestone table keyed by workload and shard count."""
    table: Dict[str, Dict[str, dict]] = {}
    for curve in result.curves:
        table.setdefault(curve.workload, {})[f"{curve.shards}x"] = {
            "total_writes": curve.total_writes,
            "dead_shards": curve.dead_shards,
            "rounds": curve.rounds,
            "stop": curve.stop,
            "writes_to_50pct_usable":
                curve.series.writes_to_usable(0.5),
        }
    return table

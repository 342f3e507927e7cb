"""Elastic balancing — static vs steered vs scaled-out shard arrays.

Beyond the paper: layer the :mod:`repro.balance` control plane over the
shard array (:mod:`repro.array`) and compare three management modes
under the same popularity-skewed (zipf) traffic:

``static``
    The baseline round-robin interleaved array: no steering, fixed
    shard count.
``balanced``
    The bounded-budget leveler steers hot addresses away from the
    shards the health model flags as high-risk at periodic checkpoints
    (plus at every shard death).
``elastic``
    Balanced, plus one scale-out event: a fresh shard joins the array
    live mid-run via consistent-hashing migration.

Expected shapes: steering extends the *full-capacity* lifetime (global
writes until the first shard death) by spending migration writes to
equalize forward wear, and the scale-out mode adds capacity headroom on
top — the capacity-over-time curve stays at 100 % for longer and the
total-writes budget grows with the fourth shard.

Per cell one :class:`~repro.array.ArrayEngine` campaign runs serially
(``jobs=1``); the experiment grid parallelizes across cells, so there
is never a pool inside a pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..array import ArrayConfig, ArrayEngine
from ..errors import ConfigurationError
from ..sim.metrics import LifetimeSeries
from ..traces import zipf_distribution
from .common import scaled_parameters
from .parallel import Cell, GridRunner, cell_seed
from .report import format_series

#: Array-management modes compared by the figure.
MODES = ("static", "balanced", "elastic")

#: Base shard count (the elastic mode grows to one more mid-run).
BASE_SHARDS = 3

#: OS page size in blocks; page interleaving keeps whole hot pages on
#: one shard, which is what gives steering something to move.
PAGE_BLOCKS = 16

#: Popularity skew of the driving workload.  Rank-ordered zipf mass
#: under page interleaving lands the hottest pages on the low shards —
#: a real, persistent shard imbalance for the leveler to correct
#: (a randomly-placed hot set averages out across shards and leaves
#: steering nothing to do).
ZIPF_EXPONENT = 1.0


@dataclass(frozen=True)
class ElasticCurve:
    """One management mode's campaign."""

    mode: str
    total_writes: int
    #: Global writes until the first shard death (full-capacity life).
    first_death: Optional[int]
    writes_to_50pct: Optional[int]
    shards: int
    dead_shards: int
    migration_writes: int
    remap_swaps: int
    series: LifetimeSeries


@dataclass(frozen=True)
class FigElasticResult:
    """All management modes under the same traffic."""

    curves: List[ElasticCurve]
    scale: str
    floor: float = 0.0


def _cell(scale: str, mode: str, seed: int) -> dict:
    """One grid cell: a whole array campaign (executes in a worker)."""
    params = scaled_parameters(scale)
    shard_blocks = max(PAGE_BLOCKS, params.num_blocks // 4)
    batch = max(1, params.batch_writes // BASE_SHARDS)
    budget = int(BASE_SHARDS * shard_blocks * params.mean_endurance)
    config = ArrayConfig(
        num_shards=BASE_SHARDS, shard_blocks=shard_blocks,
        interleave="page", page_blocks=PAGE_BLOCKS,
        mean_endurance=params.mean_endurance, psi=params.psi,
        batch_writes=batch, seed=seed,
        balance=mode in ("balanced", "elastic"),
        balance_every=4 * batch if mode != "static" else None,
        remap_budget=32,
        add_shard_at=budget // 10 if mode == "elastic" else None)
    trace = zipf_distribution(config.global_blocks, exponent=ZIPF_EXPONENT,
                              seed=seed)
    engine = ArrayEngine(config, trace, label=f"elastic/{mode}", jobs=1)
    result = engine.run()
    report = result.report
    deaths = [shard.died_at_global for shard in report.shards
              if shard.died_at_global is not None]
    counters = result.snapshot.get("counters", {})
    return {"total_writes": report.total_writes,
            "first_death": min(deaths) if deaths else None,
            "shards": report.num_shards,
            "dead_shards": len(report.dead_shards),
            "migration_writes": int(
                counters.get("balance.migration-writes", 0)),
            "remap_swaps": int(counters.get("balance.remap-swaps", 0)),
            "series": result.series.to_payload()}


def _key(scale: str, mode: str) -> str:
    return f"fig_elastic/{scale}/{mode}"


def grid(scale: str, modes: List[str], seed: int) -> List[Cell]:
    """One cell per management mode."""
    return [Cell(key=_key(scale, mode), fn=f"{__name__}:_cell",
                 kwargs=dict(scale=scale, mode=mode,
                             seed=cell_seed(seed, _key(scale, mode))))
            for mode in modes]


def run(scale: str = "small",
        benchmarks: Optional[List[str]] = None,
        seed: int = 1,
        runner: Optional[GridRunner] = None) -> FigElasticResult:
    """Compare the management modes under identical zipf traffic.

    ``benchmarks`` (the harness's generic filter flag) selects mode
    names here — the workload is fixed so the modes stay comparable.
    """
    modes = [m for m in MODES if benchmarks is None or m in benchmarks]
    if not modes:
        raise ConfigurationError(
            f"no management modes selected; choose from {MODES}")
    runner = runner or GridRunner()
    values = runner.run(grid(scale, modes, seed))
    curves = []
    for mode in modes:
        value = values[_key(scale, mode)]
        series = LifetimeSeries.from_payload(value["series"], label=mode)
        curves.append(ElasticCurve(
            mode=mode,
            total_writes=int(value["total_writes"]),
            first_death=(None if value["first_death"] is None
                         else int(value["first_death"])),
            writes_to_50pct=series.writes_to_usable(0.5),
            shards=int(value["shards"]),
            dead_shards=int(value["dead_shards"]),
            migration_writes=int(value["migration_writes"]),
            remap_swaps=int(value["remap_swaps"]),
            series=series))
    return FigElasticResult(curves=curves, scale=scale)


def render(result: FigElasticResult) -> str:
    """Capacity-over-time sparkline and milestones per mode."""
    lines = [f"Elastic balancing: lifetime and capacity vs management "
             f"mode (scale={result.scale})"]
    for curve in result.curves:
        writes = [p.writes for p in curve.series.points]
        usable = [p.usable for p in curve.series.points]
        lines.append(format_series(curve.mode, writes, usable,
                                   lo=result.floor, hi=1.0))
        first = (f"{curve.first_death:,}" if curve.first_death is not None
                 else "none")
        half = (f"{curve.writes_to_50pct:,}"
                if curve.writes_to_50pct is not None else "not reached")
        lines.append(
            f"{'':24s} lifetime {curve.total_writes:,} writes over "
            f"{curve.shards} shards ({curve.dead_shards} died), "
            f"first death: {first}, writes to 50% usable: {half}")
        if curve.remap_swaps or curve.migration_writes:
            lines.append(
                f"{'':24s} steering: {curve.remap_swaps} swaps, "
                f"{curve.migration_writes} migration writes")
    return "\n".join(lines)


def as_dict(result: FigElasticResult) -> Dict[str, dict]:
    """Milestone table keyed by management mode."""
    return {curve.mode: {
        "total_writes": curve.total_writes,
        "first_death": curve.first_death,
        "writes_to_50pct_usable": curve.writes_to_50pct,
        "shards": curve.shards,
        "dead_shards": curve.dead_shards,
        "migration_writes": curve.migration_writes,
        "remap_swaps": curve.remap_swaps,
    } for curve in result.curves}

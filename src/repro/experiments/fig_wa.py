"""fig_wa — reviver overhead under FTL write amplification.

Beyond the paper: the numbered figures drive the wear-leveler with the
*host* write stream, but a PCM deployed behind a page-mapping FTL sees
the *amplified* stream — host programs plus the garbage collector's
relocations (Desnoyers-style page-mapping accounting; see
:mod:`repro.workloads.ftl`).  This experiment measures how WL-Reviver's
lifetime gain holds up when the device-level stream is 1.2-4x the host
stream and skewed differently (GC relocations are drawn from the victim
blocks, not from the host's hot set):

* per (workload x GC policy) cell, a recorded host write stream is
  pushed through a :class:`~repro.workloads.ftl.PageMappingFTL`; the
  resulting physical program stream replays, as an all-write
  :class:`~repro.workloads.tracefile.TraceReplay`, into the single-chip
  fast engine twice — recovery ``reviver`` vs ``none``;
* write-amplification counters flow through ``repro.telemetry``
  (``wa.host_writes`` / ``wa.gc_writes``) exactly as a production cell
  would report them;
* the table reports the WA ratio next to the lifetime gain, so the
  reviver's benefit can be read *per amplified write*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..config import StartGapConfig
from ..sim import FastConfig, FastEngine
from ..telemetry import TelemetrySession, attach_ftl
from ..wl import StartGap
from ..workloads import (FTLConfig, GC_POLICIES, PageMappingFTL, TraceMeta,
                         TraceReplay, phase_shifting_hotspot,
                         uniform_workload, zipf_workload)
from .common import build_chip, scaled_parameters
from .parallel import Cell, GridRunner, cell_seed

#: Host workloads the FTL amplifies, in report order.
WA_WORKLOADS = ("uniform", "zipf", "hotshift")

#: FTL geometry: pages per erase block, and free blocks the collector
#: keeps in reserve.  The physical page space is sized to the chip
#: (``num_blocks`` pages), so the program stream replays 1:1.
FTL_PAGES_PER_BLOCK = 64
FTL_FREE_BLOCKS = 2


@dataclass(frozen=True)
class FigWARow:
    """One (workload x GC policy) cell of the amplification table."""

    workload: str
    policy: str
    wa_ratio: float
    host_writes: int
    gc_writes: int
    erases: int
    lifetime_reviver: int
    lifetime_none: int
    avg_access: float

    @property
    def gain(self) -> float:
        """Lifetime multiplier of the reviver over plain Start-Gap."""
        if self.lifetime_none == 0:
            return float("inf")
        return self.lifetime_reviver / self.lifetime_none


@dataclass(frozen=True)
class FigWAResult:
    """All rows plus the scale they were measured at."""

    rows: List[FigWARow]
    scale: str


def _ftl_geometry(num_blocks: int, policy: str = "greedy") -> FTLConfig:
    """Size the FTL so physical pages == chip blocks (1:1 replay)."""
    physical_blocks = num_blocks // FTL_PAGES_PER_BLOCK
    logical_pages = (num_blocks
                     - (FTL_FREE_BLOCKS + 1) * FTL_PAGES_PER_BLOCK)
    return FTLConfig(logical_pages=logical_pages,
                     physical_blocks=physical_blocks,
                     pages_per_block=FTL_PAGES_PER_BLOCK,
                     gc_policy=policy,
                     gc_free_blocks=FTL_FREE_BLOCKS)


def _host_workload(kind: str, logical_pages: int, seed: int) -> Any:
    """The host-side write stream (write_ratio 1: every request wears)."""
    if kind == "uniform":
        return uniform_workload(logical_pages, write_ratio=1.0,
                                name="wa-uniform", seed=seed)
    if kind == "zipf":
        return zipf_workload(logical_pages, exponent=1.0, write_ratio=1.0,
                             name="wa-zipf", seed=seed)
    return phase_shifting_hotspot(logical_pages, phases=4,
                                  phase_requests=1024, write_ratio=1.0,
                                  name="wa-hotshift", seed=seed)


def _cell(scale: str, workload: str, policy: str, seed: int) -> dict:
    """One cell: amplify one host stream, run reviver vs none on it."""
    params = scaled_parameters(scale)
    ftl_config = _ftl_geometry(params.num_blocks, policy)
    host_writes = 2 * params.batch_writes
    host = _host_workload(workload, ftl_config.logical_pages, seed)
    addresses = host.take(host_writes)[:, 0]

    ftl = PageMappingFTL(ftl_config)
    session = TelemetrySession()
    attach_ftl(session, ftl)
    programmed = ftl.replay(addresses,
                            epoch_writes=params.batch_writes // 4)
    records = np.column_stack([programmed, np.ones_like(programmed)])
    meta = TraceMeta(name=f"wa-{workload}-{policy}",
                     virtual_blocks=params.num_blocks,
                     requests=len(records), epoch_requests=len(records),
                     write_ratio=1.0)

    lifetimes: Dict[str, Dict[str, Any]] = {}
    for recovery in ("reviver", "none"):
        chip = build_chip(params, seed=seed)
        wl = StartGap(params.num_blocks,
                      config=StartGapConfig(psi=params.psi))
        trace = TraceReplay(records, meta)
        config = FastConfig(recovery=recovery,
                            batch_writes=params.batch_writes, seed=seed)
        engine = FastEngine(chip, wl, trace, config,
                            label=f"{workload}/{policy}/{recovery}")
        summary = engine.run()
        lifetimes[recovery] = {"lifetime_writes": summary.lifetime_writes,
                               "avg_access": summary.avg_access}

    counters = session.registry.snapshot()["counters"]
    return {
        "wa_ratio": ftl.wa_ratio(),
        "host_writes": int(counters["wa.host_writes"]),
        "gc_writes": int(counters["wa.gc_writes"]),
        "erases": int(counters["wa.erases"]),
        "epoch_series": ftl.epoch_series,
        "lifetimes": lifetimes,
    }


def _key(scale: str, workload: str, policy: str) -> str:
    return f"fig_wa/{scale}/{workload}/{policy}"


def grid(scale: str, workloads: List[str], policies: List[str],
         seed: int) -> List[Cell]:
    """The (workload x GC policy) grid."""
    cells = []
    for workload in workloads:
        for policy in policies:
            key = _key(scale, workload, policy)
            cells.append(Cell(key=key, fn=f"{__name__}:_cell",
                              kwargs=dict(scale=scale, workload=workload,
                                          policy=policy,
                                          seed=cell_seed(seed, key))))
    return cells


def run(scale: str = "small",
        benchmarks: Optional[List[str]] = None,
        policies: Optional[List[str]] = None,
        seed: int = 1,
        runner: Optional[GridRunner] = None) -> FigWAResult:
    """Measure reviver gain under FTL-amplified streams.

    *benchmarks* filters the host workloads (the generic CLI's
    ``--benchmarks`` flag reaches this parameter), *policies* the GC
    victim-selection policies.
    """
    workloads = list(benchmarks) if benchmarks is not None \
        else list(WA_WORKLOADS)
    sweep = list(policies) if policies is not None else list(GC_POLICIES)
    runner = runner or GridRunner()
    values = runner.run(grid(scale, workloads, sweep, seed))
    rows = []
    for workload in workloads:
        for policy in sweep:
            value = values[_key(scale, workload, policy)]
            rows.append(FigWARow(
                workload=workload, policy=policy,
                wa_ratio=value["wa_ratio"],
                host_writes=value["host_writes"],
                gc_writes=value["gc_writes"],
                erases=value["erases"],
                lifetime_reviver=(
                    value["lifetimes"]["reviver"]["lifetime_writes"]),
                lifetime_none=value["lifetimes"]["none"]["lifetime_writes"],
                avg_access=value["lifetimes"]["reviver"]["avg_access"]))
    return FigWAResult(rows=rows, scale=scale)


def render(result: FigWAResult) -> str:
    """The reviver-overhead-vs-WA table."""
    header = (f"{'workload':>10s} {'gc':>12s} {'WA':>6s} "
              f"{'host':>8s} {'gc-wr':>8s} {'erase':>6s} "
              f"{'WLR life':>10s} {'SG life':>10s} {'gain':>6s} "
              f"{'access':>7s}")
    lines = [f"fig_wa: reviver gain under FTL write amplification "
             f"(scale={result.scale})", header, "-" * len(header)]
    for row in result.rows:
        lines.append(
            f"{row.workload:>10s} {row.policy:>12s} {row.wa_ratio:>6.3f} "
            f"{row.host_writes:>8,} {row.gc_writes:>8,} {row.erases:>6,} "
            f"{row.lifetime_reviver:>10,} {row.lifetime_none:>10,} "
            f"{row.gain:>6.2f} {row.avg_access:>7.3f}")
    return "\n".join(lines)


def as_dict(result: FigWAResult) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Machine-readable rows keyed by workload, then GC policy."""
    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    for row in result.rows:
        table.setdefault(row.workload, {})[row.policy] = {
            "wa_ratio": row.wa_ratio,
            "host_writes": row.host_writes,
            "gc_writes": row.gc_writes,
            "erases": row.erases,
            "lifetime_reviver": row.lifetime_reviver,
            "lifetime_none": row.lifetime_none,
            "gain": row.gain,
            "avg_access": row.avg_access,
        }
    return table

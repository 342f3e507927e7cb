"""Table I — benchmark summary with measured write CoVs.

Regenerates the paper's workload-characterization table: for every
benchmark, the suite, description, the paper's CoV, and the CoV of our
calibrated synthetic trace measured two ways (asymptotically from the
probability field and empirically from a sampled address stream).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..traces import BENCHMARKS, benchmark_trace, counts_cov
from .common import scaled_parameters
from .parallel import Cell, GridRunner
from .report import format_table


@dataclass(frozen=True)
class Table1Row:
    """One benchmark's characterization."""

    name: str
    suite: str
    paper_cov: float
    calibrated_cov: float
    sampled_cov: float


@dataclass(frozen=True)
class Table1Result:
    """All rows plus the sampling parameters."""

    rows: List[Table1Row]
    virtual_blocks: int
    sampled_writes: int


def _cell(scale: str, benchmark: str, sample_writes: int,
          seed: int) -> dict:
    """One grid cell: calibrate + sample one benchmark trace.

    The trace seed is the experiment seed verbatim (not per-cell derived):
    the CoV calibration is a measurement of a *fixed* workload, and the
    measured values must match the paper regardless of grid shape.
    """
    params = scaled_parameters(scale)
    trace = benchmark_trace(benchmark, params.num_blocks, seed=seed)
    asymptotic = counts_cov(trace.probabilities)
    sampled = counts_cov(trace.batch_counts(sample_writes))
    return {"calibrated": asymptotic, "sampled": sampled}


def grid(scale: str, sample_writes: int, seed: int) -> List[Cell]:
    """One cell per benchmark."""
    return [Cell(key=f"table1/{scale}/{name}", fn=f"{__name__}:_cell",
                 kwargs=dict(scale=scale, benchmark=name,
                             sample_writes=sample_writes, seed=seed))
            for name in BENCHMARKS]


def run(scale: str = "small", sample_writes: int = 2_000_000,
        seed: int = 9,
        runner: Optional[GridRunner] = None) -> Table1Result:
    """Build every benchmark trace and measure its CoV."""
    params = scaled_parameters(scale)
    runner = runner or GridRunner()
    values = runner.run(grid(scale, sample_writes, seed))
    rows = [Table1Row(name=spec.name, suite=spec.suite,
                      paper_cov=spec.write_cov,
                      calibrated_cov=values[f"table1/{scale}/{spec.name}"]
                      ["calibrated"],
                      sampled_cov=values[f"table1/{scale}/{spec.name}"]
                      ["sampled"])
            for spec in BENCHMARKS.values()]
    return Table1Result(rows=rows, virtual_blocks=params.num_blocks,
                        sampled_writes=sample_writes)


def render(result: Table1Result) -> str:
    """The paper's Table I with our measured columns appended."""
    headers = ["Name", "Suite", "Paper CoV", "Calibrated CoV", "Sampled CoV"]
    rows = [[r.name, r.suite, f"{r.paper_cov:.2f}",
             f"{r.calibrated_cov:.2f}", f"{r.sampled_cov:.2f}"]
            for r in result.rows]
    title = (f"Table I: benchmark write CoVs "
             f"({result.virtual_blocks} blocks, "
             f"{result.sampled_writes:,} sampled writes)")
    return format_table(headers, rows, title=title)


def as_dict(result: Table1Result) -> Dict[str, Dict[str, float]]:
    """Machine-readable form for tests and notebooks."""
    return {r.name: {"paper": r.paper_cov, "calibrated": r.calibrated_cov,
                     "sampled": r.sampled_cov} for r in result.rows}

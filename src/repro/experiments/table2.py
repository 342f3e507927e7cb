"""Table II — average access time and software-usable space, LLS vs WLR.

The paper ages the chip to 10 %, 20 % and 30 % failed blocks, then measures
(a) the average number of PCM accesses per software-issued request with a
32 KB remap cache in front of both systems, and (b) the percentage of PCM
capacity still available to software.  Expected shape: both systems sit at
~1.00x access time thanks to the cache (LLS pays 3 accesses per miss, WLR
2), and WL-Reviver retains ~5-6 points more usable space than LLS at every
failure ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import CacheConfig
from ..mc.cache import RemapCache
from ..rng import derive_rng
from ..sim.fast import FastEngine
from .common import build_engine, build_lls_engine, scaled_parameters
from .parallel import Cell, GridRunner, cell_seed
from .report import format_table

#: Failure ratios of the paper's rows.
FAILURE_RATIOS = (0.10, 0.20, 0.30)

#: Extra PCM accesses a cache miss on a failed block costs per system.
EXTRA_ACCESSES = {"LLS": 2, "WL-Reviver": 1}


def measure_access_time(engine: FastEngine, extra_accesses: int,
                        samples: int = 200_000,
                        cache: Optional[RemapCache] = None,
                        seed: int = 17) -> float:
    """Replay a sampled request stream through the aged chip's remapping.

    ``extra_accesses`` is what a *cache miss* on a failed block costs beyond
    the data access itself: 1 for WL-Reviver (the pointer read), 2 for LLS
    (pointer read + bitmap read).  A cache hit goes straight to the final
    block (1 access), exactly the paper's model.
    """
    rng = derive_rng(seed, "table2-sample")
    probabilities = getattr(engine.trace, "probabilities", None)
    if probabilities is None:
        addresses = rng.integers(0, engine.ospool.virtual_blocks,
                                 size=samples)
    else:
        addresses = rng.choice(len(probabilities), size=samples,
                               p=probabilities)
    engine._rebuild_redirect()
    pas = engine.ospool.translate_many(addresses)
    das = engine.wl.map_many(pas)
    finals = engine._redirect[das]
    redirected = finals != das
    total = samples  # one data access per request
    if cache is None:
        total += int(redirected.sum()) * extra_accesses
    else:
        for da in das[redirected].tolist():
            if cache.get(da) is None:
                total += extra_accesses
                cache.put(da, int(engine._redirect[da]))
    return total / samples


@dataclass(frozen=True)
class Table2Row:
    """One (failure ratio, system, benchmark) measurement."""

    failure_ratio: float
    system: str
    benchmark: str
    avg_access_time: float
    usable_fraction: float


@dataclass(frozen=True)
class Table2Result:
    """All rows in the paper's order."""

    rows: List[Table2Row]
    scale: str
    cache_entries: int


def _cell(scale: str, benchmark: str, system: str, ratio: float,
          cache_entries: int, samples: int, seed: int) -> dict:
    """One grid cell: age a chip to *ratio* and measure it (in a worker)."""
    params = scaled_parameters(scale)
    if system == "LLS":
        engine = build_lls_engine(params, benchmark, dead_fraction=ratio,
                                  stop_on_capacity=False, seed=seed,
                                  label=f"{benchmark}/LLS@{ratio:.0%}")
    else:
        engine = build_engine(params, benchmark, recovery="reviver",
                              dead_fraction=ratio, stop_on_capacity=False,
                              seed=seed,
                              label=f"{benchmark}/WLR@{ratio:.0%}")
    engine.run()
    cache = RemapCache(CacheConfig(capacity_entries=cache_entries))
    return {"access_time": measure_access_time(
                engine, extra_accesses=EXTRA_ACCESSES[system],
                samples=samples, cache=cache),
            "usable": engine._usable_fraction()}


def _key(scale: str, ratio: float, system: str, bench: str) -> str:
    return f"table2/{scale}/{ratio:g}/{system}/{bench}"


def grid(scale: str, benchmarks: List[str], ratios: List[float],
         cache_entries: int, samples: int, seed: int) -> List[Cell]:
    """The table's (ratio x benchmark x system) grid."""
    cells = []
    for ratio in ratios:
        for bench in benchmarks:
            for system in ("LLS", "WL-Reviver"):
                key = _key(scale, ratio, system, bench)
                cells.append(Cell(
                    key=key, fn=f"{__name__}:_cell",
                    kwargs=dict(scale=scale, benchmark=bench, system=system,
                                ratio=ratio, cache_entries=cache_entries,
                                samples=samples,
                                seed=cell_seed(seed, key))))
    return cells


def run(scale: str = "small",
        benchmarks: Optional[List[str]] = None,
        ratios: Optional[List[float]] = None,
        cache_entries: int = 4096,
        samples: int = 200_000,
        seed: int = 1,
        runner: Optional[GridRunner] = None) -> Table2Result:
    """Age chips to each failure ratio and measure both systems."""
    benches = benchmarks if benchmarks is not None else ["mg", "ocean"]
    sweep = ratios if ratios is not None else list(FAILURE_RATIOS)
    runner = runner or GridRunner()
    values = runner.run(grid(scale, benches, sweep, cache_entries,
                             samples, seed))
    rows = []
    for ratio in sweep:
        for bench in benches:
            for system in ("LLS", "WL-Reviver"):
                cell = values[_key(scale, ratio, system, bench)]
                rows.append(Table2Row(
                    failure_ratio=ratio, system=system, benchmark=bench,
                    avg_access_time=cell["access_time"],
                    usable_fraction=cell["usable"]))
    return Table2Result(rows=rows, scale=scale, cache_entries=cache_entries)


def render(result: Table2Result) -> str:
    """The paper's Table II layout."""
    benches = sorted({r.benchmark for r in result.rows})
    headers = (["Failure", "System"]
               + [f"AccTime {b}" for b in benches]
               + [f"Usable {b}" for b in benches])
    lines = []
    ratios = sorted({r.failure_ratio for r in result.rows})
    for ratio in ratios:
        for system in ("LLS", "WL-Reviver"):
            cells = [f"{ratio:.0%}", system]
            for bench in benches:
                row = _find(result.rows, ratio, system, bench)
                cells.append(f"{row.avg_access_time:.3f}" if row else "-")
            for bench in benches:
                row = _find(result.rows, ratio, system, bench)
                cells.append(f"{row.usable_fraction:.0%}" if row else "-")
            lines.append(cells)
    title = (f"Table II: avg PCM accesses per request and software-usable "
             f"space ({result.cache_entries}-entry remap cache, "
             f"scale={result.scale})")
    return format_table(headers, lines, title=title)


def _find(rows: List[Table2Row], ratio: float, system: str,
          bench: str) -> Optional[Table2Row]:
    for row in rows:
        if (abs(row.failure_ratio - ratio) < 1e-9 and row.system == system
                and row.benchmark == bench):
            return row
    return None


def as_dict(result: Table2Result) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Nested dict keyed by ratio -> system -> benchmark metrics."""
    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    for row in result.rows:
        ratio_key = f"{row.failure_ratio:.0%}"
        table.setdefault(ratio_key, {}).setdefault(row.system, {})[
            row.benchmark] = {
                "access_time": row.avg_access_time,
                "usable": row.usable_fraction,
        }
    return table

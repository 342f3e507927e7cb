"""Seed-campaign runner: many Monte-Carlo lifetimes through one grid.

The reproduction's statistical results come from campaigns of independent
seeded lifetimes.  This module defines the canonical campaign cell — one
WL-Reviver chip stack per seed, all derived seed streams rooted at the
cell seed, run by :meth:`FastEngine.run <repro.sim.fast.FastEngine.run>`
— and runs N of them through :class:`~repro.experiments.parallel.
GridRunner`.

``python -m repro.sim.campaign --seeds 100 --jobs 2`` runs the standard
100-seed campaign; the output is byte-identical at any ``--jobs``, which
the CI ``campaign-smoke`` job checks with ``cmp``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Tuple, Union)

from ..config import StartGapConfig
from ..ecc import ECP
from ..pcm import AddressGeometry, EnduranceModel, PCMChip
from ..rng import derive_rng, spawn_seed
from ..errors import ConfigurationError
from ..telemetry import (TelemetrySession, attach_fast,
                         deterministic_snapshot, merge_snapshots)
from ..traces.synthetic import hotspot_distribution
from ..wl import StartGap
from .fast import FastConfig, FastEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.parallel import Cell

#: Campaign hardware defaults: a migration-heavy working point (psi=4 at
#: 1024 blocks) where wear-leveling traffic dominates the epoch loop.
DEFAULTS: Dict[str, Any] = {
    "num_blocks": 1024,
    "mean_endurance": 2000.0,
    "endurance_cov": 0.25,
    "max_order": 16,
    "ecp_k": 6,
    "psi": 4,
    "batch_writes": 8000,
    "recovery": "reviver",
    "dead_fraction": 0.3,
    "trace_cov": 3.0,
}

#: Recovery modes a campaign cell runs.  FREE-p is out: its pre-reserve
#: needs a wear-leveler sized to the working space, and the cell's
#: Start-Gap spans the whole chip.
CAMPAIGN_RECOVERY: Tuple[str, ...] = ("reviver", "none")


def campaign_cell(seed: int,
                  num_blocks: int = 1024,
                  mean_endurance: float = 2000.0,
                  endurance_cov: float = 0.25,
                  max_order: int = 16,
                  ecp_k: int = 6,
                  psi: int = 4,
                  batch_writes: int = 8000,
                  recovery: str = "reviver",
                  dead_fraction: float = 0.3,
                  trace_cov: float = 3.0,
                  telemetry: bool = True,
                  ) -> Dict[str, Any]:
    """Grid cell function: build, run, and summarize one campaign seed.

    Every random stream is derived from the cell seed by purpose-named
    :func:`~repro.rng.derive_rng` children.
    """
    if recovery not in CAMPAIGN_RECOVERY:
        raise ConfigurationError(
            f"campaign cells cannot run recovery {recovery!r}; "
            f"choose from {CAMPAIGN_RECOVERY}")
    geometry = AddressGeometry(num_blocks=num_blocks)
    endurance = EnduranceModel(
        num_blocks=num_blocks, mean=mean_endurance, cov=endurance_cov,
        max_order=max_order,
        seed=spawn_seed(derive_rng(seed, "endurance")))
    chip = PCMChip(geometry, ECP(endurance, ecp_k))
    wl = StartGap(num_blocks, config=StartGapConfig(
        psi=psi, seed=spawn_seed(derive_rng(seed, "startgap"))))
    trace = hotspot_distribution(
        wl.logical_blocks, trace_cov,
        seed=spawn_seed(derive_rng(seed, "trace")))
    config = FastConfig(recovery=recovery, dead_fraction=dead_fraction,
                        batch_writes=batch_writes,
                        seed=spawn_seed(derive_rng(seed, "engine")))
    engine = FastEngine(chip, wl, trace, config, label=f"campaign-{seed}")
    session: Optional[TelemetrySession] = None
    if telemetry:
        session = TelemetrySession()
        attach_fast(session, engine)
    summary = engine.run()
    payload: Dict[str, Any] = {
        "lifetime": summary.lifetime_writes,
        "stop": engine.stopped_reason,
        "total_writes": engine.total_writes,
        "series": engine.series.to_payload(),
        "report": engine.end_of_life_report().as_dict(),
    }
    if session is not None:
        payload["snapshot"] = deterministic_snapshot(
            session.registry.snapshot())
    return payload


def campaign_grid(seeds: int, seed: int = 0, telemetry: bool = True,
                  **params: Any) -> List["Cell"]:
    """The campaign's cells: ``campaign/NNNN`` keys with derived seeds."""
    from ..experiments.parallel import Cell, cell_seed
    cells = []
    merged = dict(DEFAULTS)
    merged.update(params)
    for index in range(seeds):
        key = f"campaign/{index:04d}"
        kwargs = dict(merged)
        kwargs["seed"] = cell_seed(seed, key)
        kwargs["telemetry"] = telemetry
        # The literal module name: under ``python -m`` this module is
        # ``__main__``, and a resume file must name the same cell either way.
        cells.append(Cell(key=key, fn="repro.sim.campaign:campaign_cell",
                          kwargs=kwargs))
    return cells


def run_campaign(seeds: int, seed: int = 0, jobs: int = 1, batch: int = 1,
                 telemetry: bool = True,
                 resume: Union[None, str, Path] = None,
                 **params: Any) -> Dict[str, Any]:
    """Run the campaign; return cells, lifetime stats, merged telemetry.

    ``batch`` is validated and otherwise ignored: every cell runs through
    its own engine.  It survives only for the benchmark workload, which
    still passes it.
    """
    from ..experiments.parallel import GridRunner
    if batch < 1:
        raise ConfigurationError("batch must be >= 1")
    cells = campaign_grid(seeds, seed=seed, telemetry=telemetry, **params)
    results = GridRunner(jobs=jobs, resume=resume).run(cells)
    ordered = [results[cell.key] for cell in cells]
    lifetimes = [record["lifetime"] for record in ordered]
    payload: Dict[str, Any] = {
        "seeds": seeds,
        "seed": seed,
        "cells": {cell.key: record
                  for cell, record in zip(cells, ordered)},
        "lifetimes": lifetimes,
        "mean_lifetime": (sum(lifetimes) / len(lifetimes)
                          if lifetimes else 0.0),
    }
    if telemetry:
        merged: Dict[str, Dict[str, object]] = {}
        for record in ordered:
            merged = merge_snapshots(merged, record["snapshot"])
        payload["snapshot"] = merged
    return payload


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.campaign",
        description="Monte-Carlo lifetime campaign over seeded cells.")
    parser.add_argument("--seeds", type=int, default=100,
                        help="number of campaign seeds (default 100)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root experiment seed (default 0)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--blocks", type=int,
                        default=int(DEFAULTS["num_blocks"]),
                        help="device blocks per cell")
    parser.add_argument("--mean", type=float,
                        default=float(DEFAULTS["mean_endurance"]),
                        help="mean block endurance (scaled writes)")
    parser.add_argument("--psi", type=int, default=int(DEFAULTS["psi"]),
                        help="Start-Gap psi (writes per gap move)")
    parser.add_argument("--recovery", default=str(DEFAULTS["recovery"]),
                        choices=CAMPAIGN_RECOVERY,
                        help="recovery mode (default reviver)")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="skip per-cell telemetry sessions")
    parser.add_argument("--resume", type=Path, default=None,
                        help="JSON file persisting completed cells")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the full campaign payload here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary line")
    args = parser.parse_args(argv)

    params = dict(num_blocks=args.blocks, mean_endurance=args.mean,
                  psi=args.psi, recovery=args.recovery)
    telemetry = not args.no_telemetry
    payload = run_campaign(args.seeds, seed=args.seed, jobs=args.jobs,
                           telemetry=telemetry, resume=args.resume, **params)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(payload, sort_keys=True, indent=2))
    if not args.quiet:
        print(f"campaign: {args.seeds} seeds, jobs={args.jobs}, mean "
              f"lifetime {payload['mean_lifetime']:.1f} writes")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())

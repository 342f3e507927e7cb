"""Command-line entry point for the experiment harness.

Examples::

    python -m repro.experiments table1
    python -m repro.experiments fig5 --scale small --jobs 4
    python -m repro.experiments all --scale tiny --jobs 4 --resume out/
    repro-experiments fig7 --benchmarks ocean
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from . import EXPERIMENTS
from .parallel import CellOutcome, GridRunner


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The harness CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the WL-Reviver paper's tables and figures.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all"],
                        help="which table/figure to regenerate")
    parser.add_argument("--scale", default="small",
                        choices=["tiny", "small", "full"],
                        help="chip scale (default: small)")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="restrict to these benchmarks where applicable")
    parser.add_argument("--seed", type=int, default=1,
                        help="experiment seed (default: 1)")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        metavar="N",
                        help="worker processes for the experiment grid "
                             "(default: 1 = serial; results are identical "
                             "at any job count)")
    parser.add_argument("--resume", type=Path, default=None, metavar="DIR",
                        help="persist per-cell results under DIR as JSON "
                             "and skip cells already completed there")
    parser.add_argument("--json", type=Path, default=None, metavar="FILE",
                        help="also dump machine-readable results as JSON")
    return parser


def _progress_printer(outcome: CellOutcome, done: int, total: int) -> None:
    state = "cached" if outcome.cached else f"{outcome.seconds:.1f}s"
    print(f"  [{done}/{total}] {outcome.key} ({state})", file=sys.stderr)


def run_experiment(name: str, scale: str, seed: int,
                   benchmarks: Optional[List[str]],
                   jobs: int = 1,
                   resume: Optional[Path] = None,
                   quiet: bool = False) -> tuple:
    """Run one experiment; returns (rendered report, machine-readable)."""
    module = EXPERIMENTS[name]
    kwargs = {"scale": scale, "seed": seed}
    if benchmarks and name != "table1":
        kwargs["benchmarks"] = benchmarks
    if name == "table1":
        kwargs.pop("seed")
    runner = GridRunner(
        jobs=jobs,
        resume=resume / f"{name}-{scale}.json" if resume else None,
        progress=None if quiet else _progress_printer)
    started = time.time()  # repro: allow(DET-WALLCLOCK): CLI progress line, never enters a result payload
    result = module.run(runner=runner, **kwargs)
    rendered = module.render(result)
    elapsed = time.time() - started  # repro: allow(DET-WALLCLOCK): CLI progress line, never enters a result payload
    cached = sum(1 for o in runner.outcomes if o.cached)
    timing = (f"[{name}: {elapsed:.1f}s, {len(runner.outcomes)} cells"
              + (f", {cached} resumed" if cached else "")
              + (f", jobs={jobs}" if jobs > 1 else "") + "]")
    return (f"{rendered}\n{timing}", module.as_dict(result))


def main(argv: Optional[List[str]] = None) -> int:
    """CLI main; returns the process exit code."""
    args = build_parser().parse_args(argv)
    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    collected = {}
    for name in names:
        rendered, data = run_experiment(name, args.scale, args.seed,
                                        args.benchmarks,
                                        jobs=args.jobs,
                                        resume=args.resume)
        collected[name] = data
        print(rendered)
        print()
    if args.json is not None:
        payload = {"scale": args.scale, "seed": args.seed,
                   "results": collected}
        args.json.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"[wrote {args.json}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())

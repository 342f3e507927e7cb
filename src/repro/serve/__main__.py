"""``python -m repro.serve`` — run one serving campaign and report SLOs.

Examples::

    # 4 shards, zipf traffic, shard 1 killed mid-run, degraded failover
    python -m repro.serve --shards 4 --clients 8 --requests 2000 \\
        --kill-shard 1 --kill-at 300

    # breaker exercise: shard 0 stalls for 12 requests, then recovers
    python -m repro.serve --stall-shard 0 --stall-at 100 \\
        --stall-requests 12

    # save the full result (config + snapshot + SLO report) as JSON
    python -m repro.serve --requests 500 --json slo.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from ..errors import ReproError
from ..faultinject import (FaultSchedule, shard_death_schedule,
                           shard_stall_schedule)
from .config import (ADMISSION_MODES, ARRIVAL_PROCESSES, SERVE_POLICIES,
                     SERVE_WORKLOADS, ServeConfig)
from .engine import ServiceEngine, ServiceResult


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Deterministic online serving over a shard array: "
                    "admission control, breakers, degraded failover.")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--shard-blocks", type=int, default=512)
    parser.add_argument("--page-blocks", type=int, default=16)
    parser.add_argument("--interleave", choices=("block", "page"),
                        default="block")
    parser.add_argument("--policy", choices=SERVE_POLICIES,
                        default="degraded")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=2_000)
    parser.add_argument("--workload", choices=SERVE_WORKLOADS,
                        default="zipf")
    parser.add_argument("--trace", type=str, default=None,
                        help="recorded repro.workloads trace to replay "
                             "(implies --workload trace)")
    parser.add_argument("--zipf-exponent", type=float, default=1.0)
    parser.add_argument("--write-ratio", type=float, default=0.5)
    parser.add_argument("--arrival", choices=ARRIVAL_PROCESSES,
                        default="poisson")
    parser.add_argument("--think", type=int, default=4,
                        help="mean client think time in virtual ticks")
    parser.add_argument("--queue-depth", type=int, default=16)
    parser.add_argument("--admission", choices=ADMISSION_MODES,
                        default="shed")
    parser.add_argument("--batch-max", type=int, default=8)
    parser.add_argument("--batch-window", type=int, default=2)
    parser.add_argument("--deadline", type=int, default=400,
                        help="per-request deadline budget in ticks")
    parser.add_argument("--retry-limit", type=int, default=None,
                        help="bounded retry budget "
                             "(default: the controller's READ_RETRY_LIMIT)")
    parser.add_argument("--brownout-wear", type=float, default=0.85)
    parser.add_argument("--mean-endurance", type=float, default=300.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--kill-shard", type=int, default=None,
                        help="kill this shard mid-traffic")
    parser.add_argument("--kill-at", type=int, default=300,
                        help="shard-local write count of the kill")
    parser.add_argument("--stall-shard", type=int, default=None,
                        help="transiently stall this shard")
    parser.add_argument("--stall-at", type=int, default=100,
                        help="shard-local write count of the stall")
    parser.add_argument("--stall-requests", type=int, default=8,
                        help="requests the stalled shard swallows")
    parser.add_argument("--balance", action="store_true",
                        help="steer hot writes away from high-risk "
                             "shards (repro.balance)")
    parser.add_argument("--rebalance-every", type=int, default=200,
                        help="served writes between steering checkpoints")
    parser.add_argument("--remap-budget", type=int, default=8,
                        help="max hot/cold swaps per steering checkpoint")
    parser.add_argument("--add-shard-at", type=int, default=None,
                        help="issued-request count at which a fresh "
                             "shard joins the array, live")
    parser.add_argument("--json", type=str, default=None,
                        help="write the full result as JSON to this path")
    parser.add_argument("--quiet", action="store_true")
    return parser


def config_of(args: argparse.Namespace) -> ServeConfig:
    kwargs = dict(
        num_shards=args.shards, shard_blocks=args.shard_blocks,
        page_blocks=args.page_blocks, interleave=args.interleave,
        policy=args.policy, clients=args.clients,
        total_requests=args.requests, workload=args.workload,
        zipf_exponent=args.zipf_exponent, write_ratio=args.write_ratio,
        arrival=args.arrival, think_ticks=args.think,
        queue_depth=args.queue_depth, admission=args.admission,
        batch_max=args.batch_max, batch_window=args.batch_window,
        deadline_ticks=args.deadline, brownout_wear=args.brownout_wear,
        mean_endurance=args.mean_endurance, seed=args.seed,
        balance=args.balance, rebalance_every=args.rebalance_every,
        remap_budget=args.remap_budget, add_shard_at=args.add_shard_at)
    if args.retry_limit is not None:
        kwargs["retry_limit"] = args.retry_limit
    if args.trace is not None:
        kwargs["workload"] = "trace"
        kwargs["trace_path"] = args.trace
    return ServeConfig(**kwargs)


def schedule_of(args: argparse.Namespace) -> Optional[FaultSchedule]:
    """Combine the CLI's kill/stall switches into one fault schedule."""
    schedules: List[FaultSchedule] = []
    if args.kill_shard is not None:
        schedules.append(shard_death_schedule(
            args.kill_shard, args.kill_at, args.shard_blocks))
    if args.stall_shard is not None:
        schedules.append(shard_stall_schedule(
            args.stall_shard, args.stall_at, args.stall_requests))
    if not schedules:
        return None
    return FaultSchedule(
        actions=tuple(action for one in schedules for action in one.actions),
        seed=None, name="serve-cli")


def render(result: ServiceResult) -> str:
    """Human-readable SLO summary."""
    report = result.report
    lines = [
        f"served {report['counts']['issued']} requests over "
        f"{result.duration} virtual ticks "
        f"({report['throughput']:.4f} req/tick)",
        f"shards: {report['shards']['live']}/{report['shards']['total']} "
        f"live",
    ]
    for kind in ("read", "write"):
        table = report["latency"].get(kind)
        if table:
            quantiles = "  ".join(f"{label}={value:.1f}"
                                  for label, value in table.items())
            lines.append(f"latency[{kind}] ticks: {quantiles}")
    counts = report["counts"]
    lines.append("outcomes: " + "  ".join(
        f"{name}={counts[name]}"
        for name in ("ok", "shed", "deadline", "error", "failed")))
    resilience = report["resilience"]
    lines.append("resilience: " + "  ".join(
        f"{name}={resilience[name]}"
        for name in ("retries", "failover", "steered", "stalled",
                     "breaker_opened", "breaker_closed", "deaths")))
    counters = result.snapshot.get("counters", {})
    if "serve.remap_swaps" in counters or "serve.migrated" in counters:
        lines.append(
            f"balance: {counters.get('serve.remap_swaps', 0)} swaps, "
            f"{counters.get('serve.shards_added', 0)} shard(s) added, "
            f"{counters.get('serve.migrated', 0)} addresses migrated")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_of(args)
        engine = ServiceEngine(config, schedule=schedule_of(args))
        result = engine.run()
    except ReproError as exc:  # repro: allow(EXC-SWALLOW): CLI boundary — a bad flag combination becomes exit code 2, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.as_dict(), handle, sort_keys=True, indent=2)
            handle.write("\n")
    if not args.quiet:
        print(render(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CLI: run one shard-array campaign.

Examples::

    # 4-shard degraded-mode array under a clustered workload
    python -m repro.array --shards 4 --shard-blocks 512 --page-blocks 16 \
        --mean 300 --workload hotspot

    # single-shard hot-spot attack against a fail-stop array
    python -m repro.array --policy fail-stop --workload attack \
        --attack-shard 1

    # force a whole-shard death to exercise degraded operation
    python -m repro.array --kill-shard 2 --kill-at 8000
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..errors import ConfigurationError, ReproError
from ..faultinject import FaultSchedule, shard_death_schedule
from ..traces import DistributionTrace
from .engine import (ARRAY_POLICIES, ARRAY_RECOVERY, ArrayConfig,
                     ArrayEngine, ArrayResult)
from .decoder import INTERLEAVE_MODES, InterleavedDecoder
from .workloads import (hotspot_workload, shard_attack_workload,
                        trace_workload, uniform_workload, zipf_workload)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.array",
        description="Simulate a sharded PCM array to its end of life.")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--shard-blocks", type=int, default=512,
                        help="device blocks per shard chip")
    parser.add_argument("--page-blocks", type=int, default=16,
                        help="OS page size in blocks")
    parser.add_argument("--interleave", choices=INTERLEAVE_MODES,
                        default="block")
    parser.add_argument("--policy", choices=ARRAY_POLICIES,
                        default="degraded")
    parser.add_argument("--recovery", choices=ARRAY_RECOVERY,
                        default="reviver")
    parser.add_argument("--workload",
                        choices=("uniform", "hotspot", "attack", "zipf",
                                 "trace"),
                        default="hotspot")
    parser.add_argument("--trace", type=str, default=None,
                        help="recorded repro.workloads trace to replay "
                             "(implies --workload trace); also prints "
                             "the per-shard stream digests")
    parser.add_argument("--cov", type=float, default=3.0,
                        help="hotspot workload write CoV")
    parser.add_argument("--zipf-exponent", type=float, default=1.0,
                        help="zipf workload rank exponent")
    parser.add_argument("--attack-shard", type=int, default=0)
    parser.add_argument("--hot-share", type=float, default=0.9)
    parser.add_argument("--mean", type=float, default=300.0,
                        help="mean block endurance (scaled)")
    parser.add_argument("--endurance-cov", type=float, default=0.2)
    parser.add_argument("--psi", type=int, default=12)
    parser.add_argument("--batch-writes", type=int, default=2_000)
    parser.add_argument("--max-writes", type=int, default=None,
                        help="global write budget (default: run to death)")
    parser.add_argument("--dead-fraction", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--no-telemetry", action="store_true")
    parser.add_argument("--kill-shard", type=int, default=None,
                        help="inject a whole-shard death on this shard")
    parser.add_argument("--kill-at", type=int, default=4_000,
                        help="shard-local write count of the injected death")
    parser.add_argument("--balance", action="store_true",
                        help="steer hot addresses away from high-risk "
                             "shards (repro.balance)")
    parser.add_argument("--balance-every", type=int, default=None,
                        help="global writes between steering checkpoints "
                             "(default: steer at shard deaths only)")
    parser.add_argument("--remap-budget", type=int, default=8,
                        help="max hot/cold swaps per rebalance round")
    parser.add_argument("--add-shard-at", type=int, default=None,
                        help="global write count at which a fresh shard "
                             "joins the array")
    parser.add_argument("--json", type=str, default=None,
                        help="write the full result as JSON to this path")
    parser.add_argument("--quiet", action="store_true")
    return parser


def _decoder(engine_config: ArrayConfig) -> InterleavedDecoder:
    return InterleavedDecoder(engine_config.num_shards,
                              engine_config.software_blocks,
                              interleave=engine_config.interleave,
                              page_blocks=engine_config.page_blocks)


def _workload(args: argparse.Namespace,
              engine_config: ArrayConfig) -> DistributionTrace:
    decoder = _decoder(engine_config)
    if args.workload == "uniform":
        return uniform_workload(decoder, seed=args.seed)
    if args.workload == "attack":
        return shard_attack_workload(decoder, shard=args.attack_shard,
                                     hot_share=args.hot_share,
                                     seed=args.seed)
    if args.workload == "zipf":
        return zipf_workload(decoder, exponent=args.zipf_exponent,
                             seed=args.seed)
    if args.workload == "trace":
        if args.trace is None:
            raise ConfigurationError("--workload trace needs --trace FILE")
        return trace_workload(decoder, args.trace, seed=args.seed)
    return hotspot_workload(decoder, cov=args.cov, seed=args.seed)


def trace_digest_lines(path: str, config: ArrayConfig) -> List[str]:
    """Per-shard digests of a recorded trace under this array geometry.

    This is the array's half of the serve/array equivalence pin: the
    digests are computed from the file's records in file order, exactly
    what the serving layer issues when replaying the same file.
    """
    from ..workloads import TraceReplay, shard_digests
    replay = TraceReplay.load(path)
    digests = shard_digests(replay.records[:, 0], _decoder(config))
    return [f"  trace s{sid}: {digest}"
            for sid, digest in digests.items()]


def render(result: ArrayResult) -> str:
    """Human summary: aggregate line plus the per-shard census."""
    report = result.report
    stop = report.stop.render() if report.stop is not None else "running"
    lines = [
        f"array[{report.num_shards}x] policy={report.policy} "
        f"interleave={report.interleave} rounds={report.rounds}",
        f"  stop: {stop}",
        f"  total writes {report.total_writes:,}, "
        f"failed {report.failed_fraction:.1%}, "
        f"usable {report.usable_fraction:.1%}",
        f"  dead shards: "
        + (", ".join(str(s) for s in report.dead_shards) or "none"),
    ]
    counters = result.snapshot.get("counters", {})
    if "balance.migration-writes" in counters:
        lines.append(
            f"  balance: {counters.get('balance.remap-swaps', 0)} swaps, "
            f"{counters.get('balance.shards-added', 0)} shard(s) added, "
            f"{counters['balance.migration-writes']} migration writes")
    for shard in report.shards:
        died = (f"died @ ~{shard.died_at_global:,} global"
                if shard.died_at_global is not None else "survived")
        lines.append(
            f"  s{shard.shard}: share {shard.share:.2f}"
            f" -> {shard.final_share:.2f}, "
            f"{shard.local_writes:,} local writes, "
            f"stop={shard.stop}, {died}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.trace is not None:
        args.workload = "trace"
    schedule: Optional[FaultSchedule] = None
    if args.kill_shard is not None:
        schedule = shard_death_schedule(args.kill_shard, args.kill_at,
                                        args.shard_blocks)
    try:
        config = ArrayConfig(
            num_shards=args.shards, shard_blocks=args.shard_blocks,
            interleave=args.interleave, policy=args.policy,
            page_blocks=args.page_blocks, mean_endurance=args.mean,
            endurance_cov=args.endurance_cov, psi=args.psi,
            recovery=args.recovery, dead_fraction=args.dead_fraction,
            batch_writes=args.batch_writes, max_writes=args.max_writes,
            telemetry=not args.no_telemetry, seed=args.seed,
            balance=args.balance, balance_every=args.balance_every,
            remap_budget=args.remap_budget,
            add_shard_at=args.add_shard_at)
        engine = ArrayEngine(config, _workload(args, config),
                             label=f"array-{args.workload}",
                             schedule=schedule)
        result = engine.run()
    except ReproError as exc:  # repro: allow(EXC-SWALLOW): CLI boundary — a bad flag combination becomes exit code 2, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(render(result))
        if args.trace is not None:
            for line in trace_digest_lines(args.trace, config):
                print(line)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.as_dict(), handle, sort_keys=True)
        if not args.quiet:
            print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

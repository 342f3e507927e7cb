"""``python -m repro.workloads`` — generate, record, replay, describe.

Examples::

    # peek at a phase-shifting hotspot stream
    python -m repro.workloads generate --kind hotshift --blocks 1024 \\
        --requests 4096 --head 5

    # freeze a zipf workload to disk, 256-request epochs
    python -m repro.workloads record --kind zipf --blocks 1024 \\
        --requests 4096 --epoch 256 --out zipf.trace

    # verify the file is canonical and inspect per-shard routing
    python -m repro.workloads replay zipf.trace --check
    python -m repro.workloads replay zipf.trace --digests --shards 4 \\
        --shard-blocks 256

    # just the header
    python -m repro.workloads describe zipf.trace --json

    # ingest an MSR-Cambridge CSV, folded into a 4096-block device
    python -m repro.workloads convert msr_week.csv --out msr.trace \\
        --block-bytes 4096 --blocks 4096
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..array.decoder import INTERLEAVE_MODES, InterleavedDecoder
from ..errors import ReproError
from ..traces.stats import counts_cov
from .generators import (SequentialWorkload, Workload,
                         phase_shifting_hotspot, uniform_workload,
                         zipf_workload)
from .shards import shard_digests
from .tracefile import (TraceReplay, check_canonical, read_meta,
                        record_workload)

KINDS = ("uniform", "zipf", "sequential", "hotshift")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Deterministic workload generators, trace files, "
                    "and per-shard digests.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_generator_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kind", choices=KINDS, default="zipf")
        p.add_argument("--blocks", type=int, default=1024,
                       help="virtual block space")
        p.add_argument("--requests", type=int, default=4096)
        p.add_argument("--write-ratio", type=float, default=0.5)
        p.add_argument("--exponent", type=float, default=1.0,
                       help="zipf rank exponent")
        p.add_argument("--phases", type=int, default=4,
                       help="hotshift phase count")
        p.add_argument("--hot-fraction", type=float, default=0.1)
        p.add_argument("--hot-share", type=float, default=0.9)
        p.add_argument("--stride", type=int, default=1,
                       help="sequential sweep stride")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--name", type=str, default=None,
                       help="workload name (default: the kind)")

    generate = sub.add_parser("generate",
                              help="draw a stream and summarize it")
    add_generator_flags(generate)
    generate.add_argument("--head", type=int, default=0,
                          help="also print the first N records")
    generate.add_argument("--json", action="store_true")

    record = sub.add_parser("record",
                            help="freeze a generator to a trace file")
    add_generator_flags(record)
    record.add_argument("--out", type=str, required=True)
    record.add_argument("--epoch", type=int, default=1024,
                        help="requests per epoch marker")
    record.add_argument("--json", action="store_true")

    replay = sub.add_parser("replay",
                            help="replay a trace file and summarize it")
    replay.add_argument("path")
    replay.add_argument("--check", action="store_true",
                        help="fail unless the file is byte-canonical")
    replay.add_argument("--epoch", type=int, default=None,
                        help="summarize from this epoch onward")
    replay.add_argument("--digests", action="store_true",
                        help="print per-shard stream digests")
    replay.add_argument("--shards", type=int, default=4)
    replay.add_argument("--shard-blocks", type=int, default=None,
                        help="default: blocks / shards")
    replay.add_argument("--interleave", choices=INTERLEAVE_MODES,
                        default="block")
    replay.add_argument("--page-blocks", type=int, default=16)
    replay.add_argument("--json", action="store_true")

    describe = sub.add_parser("describe", help="print a trace's header")
    describe.add_argument("path")
    describe.add_argument("--json", action="store_true")

    convert = sub.add_parser(
        "convert", help="ingest an MSR-Cambridge CSV as a canonical trace")
    convert.add_argument("path", help="source CSV "
                                      "(timestamp,host,disk,offset,size,"
                                      "type)")
    convert.add_argument("--out", type=str, required=True)
    convert.add_argument("--block-bytes", type=int, default=4096,
                         help="bytes per simulated block (offset -> "
                              "address divisor)")
    convert.add_argument("--blocks", type=int, default=None,
                         help="fold device addresses modulo this virtual "
                              "space (default: size to the max address)")
    convert.add_argument("--epoch", type=int, default=1024,
                         help="requests per epoch marker")
    convert.add_argument("--name", type=str, default=None,
                         help="trace name (default: the CSV's stem)")
    convert.add_argument("--json", action="store_true")
    return parser


def build_workload(args: argparse.Namespace) -> Workload:
    """The generator the shared flags describe."""
    name = args.name if args.name is not None else args.kind
    if args.kind == "uniform":
        return uniform_workload(args.blocks, requests=args.requests,
                                write_ratio=args.write_ratio, name=name,
                                seed=args.seed)
    if args.kind == "zipf":
        return zipf_workload(args.blocks, exponent=args.exponent,
                             requests=args.requests,
                             write_ratio=args.write_ratio, name=name,
                             seed=args.seed)
    if args.kind == "sequential":
        return SequentialWorkload(args.blocks, stride=args.stride,
                                  write_ratio=args.write_ratio,
                                  name=name, seed=args.seed)
    return phase_shifting_hotspot(args.blocks, phases=args.phases,
                                  phase_requests=max(
                                      1, args.requests // args.phases),
                                  hot_fraction=args.hot_fraction,
                                  hot_share=args.hot_share,
                                  write_ratio=args.write_ratio,
                                  name=name, seed=args.seed)


def summarize(records: np.ndarray, virtual_blocks: int) -> Dict[str, Any]:
    """Deterministic descriptive statistics of a record array."""
    addresses = records[:, 0]
    writes = records[:, 1]
    counts = np.bincount(addresses, minlength=virtual_blocks)
    return {"requests": int(len(records)),
            "virtual_blocks": int(virtual_blocks),
            "distinct_addresses": int((counts > 0).sum()),
            "write_ratio": float(writes.mean()) if len(writes) else 0.0,
            "address_cov": counts_cov(counts)}


def render_summary(stats: Dict[str, Any]) -> str:
    return (f"{stats['requests']} requests over "
            f"{stats['virtual_blocks']} blocks: "
            f"{stats['distinct_addresses']} distinct, "
            f"write ratio {stats['write_ratio']:.3f}, "
            f"address CoV {stats['address_cov']:.3f}")


def _emit(payload: Dict[str, Any], as_json: bool,
          text: Sequence[str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text:
            print(line)


def _cmd_generate(args: argparse.Namespace) -> int:
    workload = build_workload(args)
    records = workload.take(args.requests)
    stats = summarize(records, workload.virtual_blocks)
    head = [f"{int(address)},{'W' if flag else 'R'}"
            for address, flag in records[:max(0, args.head)]]
    _emit({"workload": workload.name, "stats": stats, "head": head},
          args.json, [f"[{workload.name}] " + render_summary(stats)] + head)
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    workload = build_workload(args)
    meta = record_workload(args.out, workload, args.requests,
                           epoch_requests=args.epoch,
                           extra={"kind": args.kind, "seed": args.seed})
    _emit({"out": args.out, "meta": meta.as_dict()}, args.json,
          [f"wrote {args.out}: {meta.requests} requests, "
           f"{meta.epochs} epochs of {meta.epoch_requests}"])
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    if args.check and not check_canonical(args.path):
        print(f"error: {args.path} is not byte-canonical",
              file=sys.stderr)
        return 1
    replay = TraceReplay.load(args.path)
    start = 0
    if args.epoch is not None:
        if not 0 <= args.epoch < replay.meta.epochs:
            print(f"error: epoch {args.epoch} out of range "
                  f"[0, {replay.meta.epochs})", file=sys.stderr)
            return 2
        start = args.epoch * replay.meta.epoch_requests
    window = replay.records[start:]
    stats = summarize(window, replay.virtual_blocks)
    payload: Dict[str, Any] = {"meta": replay.meta.as_dict(),
                               "stats": stats,
                               "canonical": True if args.check else None}
    text: List[str] = [f"[{replay.name}] " + render_summary(stats)]
    if args.check:
        text.append("canonical: ok")
    if args.digests:
        shard_blocks = (args.shard_blocks if args.shard_blocks is not None
                        else replay.virtual_blocks // args.shards)
        decoder = InterleavedDecoder(args.shards, shard_blocks,
                                     interleave=args.interleave,
                                     page_blocks=args.page_blocks)
        digests = shard_digests(window[:, 0], decoder)
        payload["shard_digests"] = {str(sid): digest
                                    for sid, digest in digests.items()}
        text.extend(f"  s{sid}: {digest[:16]}"
                    for sid, digest in digests.items())
    _emit(payload, args.json, text)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from .convert import convert_msr, describe_conversion
    meta = convert_msr(args.path, args.out, block_bytes=args.block_bytes,
                       blocks=args.blocks, epoch_requests=args.epoch,
                       name=args.name)
    _emit({"out": args.out, "meta": describe_conversion(meta)}, args.json,
          [f"wrote {args.out}: {meta.requests} requests over "
           f"{meta.virtual_blocks} blocks, write ratio "
           f"{meta.write_ratio:.3f}"])
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    meta = read_meta(args.path)
    _emit({"meta": meta.as_dict()}, args.json,
          [f"[{meta.name}] {meta.requests} requests over "
           f"{meta.virtual_blocks} blocks, {meta.epochs} epochs of "
           f"{meta.epoch_requests}, write ratio "
           f"{meta.write_ratio:.3f}"])
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"generate": _cmd_generate, "record": _cmd_record,
                "replay": _cmd_replay, "describe": _cmd_describe,
                "convert": _cmd_convert}
    try:
        return handlers[args.command](args)
    except ReproError as exc:  # repro: allow(EXC-SWALLOW): CLI boundary — a bad flag combination becomes exit code 2, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # repro: allow(EXC-SWALLOW): CLI boundary — an unreadable path becomes exit code 2, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

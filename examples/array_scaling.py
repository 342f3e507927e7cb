#!/usr/bin/env python
"""Array scaling: shard a chip, survive a shard, keep serving.

Splits the same total PCM capacity across 1-8 shard devices behind the
interleaved decoder and runs each array to its end of life, then replays
the nastiest case — a layout-aware attacker concentrating 90% of the
traffic on one shard — under both array policies.  ``fail-stop`` dies
with its first shard; ``degraded`` re-decodes the dead shard's traffic
onto the survivors and keeps serving at reduced capacity.

Run:  python examples/array_scaling.py
"""

from repro.array import (ArrayConfig, ArrayEngine, InterleavedDecoder,
                         hotspot_workload, shard_attack_workload)

TOTAL_BLOCKS = 1 << 10
PAGE_BLOCKS = 16
MEAN_ENDURANCE = 400
SEED = 7


def build(shards: int, policy: str) -> ArrayConfig:
    return ArrayConfig(num_shards=shards,
                       shard_blocks=TOTAL_BLOCKS // shards,
                       policy=policy, page_blocks=PAGE_BLOCKS,
                       mean_endurance=MEAN_ENDURANCE, psi=12,
                       batch_writes=max(500, 4_000 // shards),
                       seed=SEED)


def campaign(shards: int, policy: str, attack: bool) -> ArrayEngine:
    config = build(shards, policy)
    decoder = InterleavedDecoder(shards, config.software_blocks,
                                 page_blocks=PAGE_BLOCKS)
    trace = (shard_attack_workload(decoder, shard=0, hot_share=0.9,
                                   seed=SEED) if attack
             else hotspot_workload(decoder, cov=3.0, seed=SEED))
    engine = ArrayEngine(config, trace, label=f"{policy}/{shards}x")
    engine.run()
    return engine


def main() -> None:
    print(f"{TOTAL_BLOCKS} total blocks, mean endurance {MEAN_ENDURANCE}, "
          f"degraded arrays under a clustered workload\n")
    print(f"{'array':12s} {'lifetime':>12s} {'shard deaths':>13s} "
          f"{'rounds':>7s}")
    for shards in (1, 2, 4, 8):
        report = campaign(shards, "degraded", attack=False).result.report
        print(f"{shards}x shards   {report.total_writes:>12,} "
              f"{len(report.dead_shards):>13} {report.rounds:>7}")

    print("\nSingle-shard attack (90% of traffic on shard 0), 4 shards:")
    for policy in ("fail-stop", "degraded"):
        result = campaign(4, policy, attack=True).result
        report = result.report
        print(f"\n  policy={policy}: stop {report.stop.render()}")
        print(f"    served {report.total_writes:,} writes, "
              f"usable at stop {report.usable_fraction:.0%}, "
              f"dead shards {list(report.dead_shards)}")
        for shard in report.shards:
            died = (f"died @ ~{shard.died_at_global:,} global"
                    if shard.died_at_global is not None else "survived")
            print(f"    s{shard.shard}: share {shard.share:.2f} -> "
                  f"{shard.final_share:.2f}, {died}")
    print("\nFail-stop surrenders the whole array with its first shard;"
          "\ndegraded mode spreads the victim's traffic over the survivors"
          "\nand keeps serving until the last shard wears out.")


if __name__ == "__main__":
    main()

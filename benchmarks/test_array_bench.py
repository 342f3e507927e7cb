"""Array overhead benchmark: sharding must not tax the hot path.

The array engine adds a decoding/merging layer on top of N independent
FastEngine shard cells; all the heavy lifting still happens inside the
same vectorized epoch loop.  This benchmark A/B-times the same global
write budget served by one 4096-block chip versus a 4-shard array of
1024-block devices (same total capacity, same page size, uniform
traffic), both healthy throughout, and pins the array's wall-clock to a
small multiple of the single chip's.

The array is allowed to cost something — four quarter-size epoch loops
do less work per vector operation and the harness adds bookkeeping — but
a per-shard slowdown (array time growing with the shard count rather
than the work) would show up as a blown factor here.
"""

import time

from repro.array import ArrayConfig, ArrayEngine
from repro.ecc import ECP
from repro.pcm import AddressGeometry, EnduranceModel, PCMChip
from repro.sim.fast import FastConfig, FastEngine
from repro.traces import uniform_distribution
from repro.wl import StartGap

TOTAL_BLOCKS = 4096
SHARDS = 4
PAGE_BLOCKS = 16
GLOBAL_WRITES = 2_000_000


def _single_chip():
    geometry = AddressGeometry(num_blocks=TOTAL_BLOCKS, block_bytes=64,
                               page_bytes=64 * PAGE_BLOCKS)
    endurance = EnduranceModel(num_blocks=TOTAL_BLOCKS, mean=2_000.0,
                               cov=0.2, max_order=8, seed=17)
    chip = PCMChip(geometry, ECP(endurance, 1))
    config = FastConfig(batch_writes=50_000, max_writes=GLOBAL_WRITES,
                        blocks_per_page=PAGE_BLOCKS, seed=3)
    trace = uniform_distribution(TOTAL_BLOCKS, seed=5)
    engine = FastEngine(chip, StartGap(TOTAL_BLOCKS), trace, config=config)
    started = time.perf_counter()
    engine.run()
    return engine.total_writes, time.perf_counter() - started


def _shard_array():
    config = ArrayConfig(num_shards=SHARDS,
                         shard_blocks=TOTAL_BLOCKS // SHARDS,
                         page_blocks=PAGE_BLOCKS, mean_endurance=2_000.0,
                         batch_writes=50_000 // SHARDS,
                         max_writes=GLOBAL_WRITES, telemetry=False,
                         seed=3)
    engine = ArrayEngine(config, uniform_distribution(config.global_blocks,
                                                      seed=5), jobs=1)
    started = time.perf_counter()
    result = engine.run()
    return result, time.perf_counter() - started


def test_array_matches_single_chip_throughput(benchmark, once, capsys):
    # Interleave A/B/A so cache warm-up lands on neither side's tally.
    single_writes, warm = _single_chip()
    array_result, array_s = _shard_array()
    single_writes2, single_s = once(benchmark, _single_chip)
    report = array_result.report
    with capsys.disabled():
        print()
        print(f"{GLOBAL_WRITES:,} writes: single chip {single_s:.2f}s "
              f"(warm-up {warm:.2f}s), {SHARDS}-shard array {array_s:.2f}s "
              f"({array_s / single_s:.2f}x)")
    # Both served the whole budget and stayed healthy.
    assert single_writes == single_writes2 == GLOBAL_WRITES
    assert report.stop is not None
    assert report.stop.cause.value == "max-writes"
    assert report.dead_shards == ()
    assert report.total_writes == GLOBAL_WRITES
    # The array runs 4x as many quarter-size epochs plus the harness; a
    # 3x wall-clock envelope is generous headroom for that fixed overhead
    # while still catching any per-shard scaling pathology.
    assert array_s <= single_s * 3.0 + 0.5, (array_s, single_s)

"""Balance overhead benchmark: an idle control plane changes nothing.

A static array and a balanced one run the same
:class:`~repro.array.ArrayEngine` loop through the same
:class:`~repro.balance.BalancedDecoder` map; the balanced run only adds
control events.  This benchmark runs one global write budget both ways,
the balanced run with an idle control loop (an effectively infinite
rebalance horizon, so no swaps fire), and asserts the two reports are
equal.  The cost of that shared path is guarded by the end-to-end
``array-static`` workload in ``benchmarks/e2e``.

A bulk-decode microbench rides along: two million mixed lookups through
the base decoder's arithmetic and through the map's gathers, pinning
the gather path to at most the arithmetic path's wall-clock (it is
typically *faster*; 1.5x is a generous ceiling).
"""

import time

import numpy as np

from repro.array import ArrayConfig, ArrayEngine, InterleavedDecoder
from repro.balance import BalancedDecoder
from repro.traces import uniform_distribution

TOTAL_BLOCKS = 4096
SHARDS = 4
PAGE_BLOCKS = 16
GLOBAL_WRITES = 2_000_000
LOOKUPS = 2_000_000


def _engine_run(balance):
    config = ArrayConfig(num_shards=SHARDS,
                         shard_blocks=TOTAL_BLOCKS // SHARDS,
                         page_blocks=PAGE_BLOCKS, mean_endurance=2_000.0,
                         batch_writes=50_000 // SHARDS,
                         max_writes=GLOBAL_WRITES, telemetry=False, seed=3,
                         balance=balance,
                         balance_every=10 * GLOBAL_WRITES if balance
                         else None)
    engine = ArrayEngine(config, uniform_distribution(config.global_blocks,
                                                      seed=5), jobs=1)
    started = time.perf_counter()
    result = engine.run()
    return result, time.perf_counter() - started


def _bulk_decode(decoder, addresses):
    started = time.perf_counter()
    for _ in range(5):
        decoder.shard_of(addresses)
        decoder.local_of(addresses)
    return time.perf_counter() - started


def test_idle_balanced_run_equals_static(benchmark, once, capsys):
    static_result, static_s = once(benchmark, _engine_run, False)
    balanced_result, balanced_s = _engine_run(True)

    base = InterleavedDecoder(SHARDS, TOTAL_BLOCKS // SHARDS,
                              page_blocks=PAGE_BLOCKS)
    wrapped = BalancedDecoder(base)
    addresses = np.random.default_rng(11).integers(
        0, base.global_blocks, size=LOOKUPS)
    base_decode_s = _bulk_decode(base, addresses)
    wrapped_decode_s = _bulk_decode(wrapped, addresses)

    with capsys.disabled():
        print()
        print(f"{GLOBAL_WRITES:,} writes: static {static_s:.2f}s, "
              f"idle balanced {balanced_s:.2f}s; {LOOKUPS:,} decodes: "
              f"arithmetic {base_decode_s:.3f}s, "
              f"gather {wrapped_decode_s:.3f}s")

    # Both runs served the whole budget and stayed healthy.
    assert static_result.report.total_writes == GLOBAL_WRITES
    assert static_result.report.dead_shards == ()
    # No swaps fired, so the idle control plane leaves the run as it is.
    counters = balanced_result.snapshot["counters"]
    assert counters.get("balance.remap-swaps", 0) == 0
    assert balanced_result.report.as_dict() \
        == static_result.report.as_dict()
    # The gathers must not be slower than the arithmetic they replace.
    assert wrapped_decode_s <= base_decode_s * 1.5 + 0.05, (
        wrapped_decode_s, base_decode_s)

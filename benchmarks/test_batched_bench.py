"""Batched-kernel benchmark: campaign throughput vs the per-cell path.

The 100-seed campaign is the workload the struct-of-arrays kernel exists
for: one hundred independent chip lifetimes at the campaign's default
working point.  The baseline runs the same hundred seeds the way figure
grids always ran — one :class:`~repro.sim.fast.FastEngine` per cell, here
in one process (``--jobs 1``) — while the batched run folds all hundred
cells into one lockstep :class:`~repro.sim.batched.BatchedEngine`, also in
one process.  Closed-form Start-Gap migrations and the tabulated Feistel
map live in :mod:`repro.wl`, so both paths run them; what the kernel
still adds is its lockstep orchestration alone.

Two pins:

* throughput — batched cells/sec must be at least the per-cell path's
  (a kernel slower than the plain path has no reason to exist);
* equivalence — the baseline cells must appear byte-identical inside
  the batched payload (same seed root, same derived streams).
"""

import json
import time

from repro.sim.campaign import run_campaign

BASELINE_SEEDS = 100
BATCHED_SEEDS = 100
SPEEDUP_FLOOR = 1.0


def _timed(seeds, jobs, batch):
    started = time.perf_counter()
    payload = run_campaign(seeds, seed=0, jobs=jobs, batch=batch)
    return payload, time.perf_counter() - started


def test_batched_campaign_throughput(benchmark, once, capsys):
    baseline, baseline_seconds = _timed(BASELINE_SEEDS, jobs=1, batch=1)
    batched, batched_seconds = once(benchmark, _timed, BATCHED_SEEDS,
                                    jobs=1, batch=BATCHED_SEEDS)
    baseline_cps = BASELINE_SEEDS / baseline_seconds
    batched_cps = BATCHED_SEEDS / batched_seconds
    speedup = batched_cps / baseline_cps
    with capsys.disabled():
        print()
        print(f"campaign throughput: per-cell {baseline_cps:.2f} "
              f"cells/s ({BASELINE_SEEDS} seeds, jobs=1), batched "
              f"{batched_cps:.2f} cells/s ({BATCHED_SEEDS} seeds, "
              f"batch={BATCHED_SEEDS}) -> {speedup:.1f}x")
    # Byte-identity: the batched campaign must contain the per-process
    # subset verbatim — same keys, same values, bit for bit.
    subset = {key: batched["cells"][key] for key in baseline["cells"]}
    assert json.dumps(subset, sort_keys=True) == \
        json.dumps(baseline["cells"], sort_keys=True)
    assert speedup >= SPEEDUP_FLOOR, (baseline_cps, batched_cps)

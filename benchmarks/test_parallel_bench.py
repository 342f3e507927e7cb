"""Parallel-harness benchmark: Fig. 5 grid scaling across worker processes.

The experiment grids are embarrassingly parallel — every (benchmark,
system) cell is an independent chip-lifetime simulation — so the process
pool should scale near-linearly until the grid runs out of cells or the
machine runs out of cores.  This benchmark times the tiny Fig. 5 grid
serially and at ``--jobs 4``, asserts the two produce bit-for-bit
identical results (the determinism contract the per-cell seed derivation
guarantees), and — on machines with enough cores — asserts at least a 2x
wall-clock improvement.
"""

import os
import time

import pytest

from repro.experiments import fig5
from repro.experiments.parallel import GridRunner

BENCHMARKS = ["ocean", "radix", "blackscholes", "fft", "mg"]
JOBS = 4


def _timed_run(jobs):
    started = time.perf_counter()
    result = fig5.run(scale="tiny", benchmarks=BENCHMARKS, seed=1,
                      runner=GridRunner(jobs=jobs))
    return fig5.as_dict(result), time.perf_counter() - started


def test_parallel_grid_scaling(benchmark, once, capsys):
    serial, serial_seconds = _timed_run(jobs=1)
    pooled, pooled_seconds = once(benchmark, _timed_run, jobs=JOBS)
    with capsys.disabled():
        print()
        print(f"fig5 tiny grid ({len(BENCHMARKS) * 2} cells): "
              f"serial {serial_seconds:.2f}s, jobs={JOBS} "
              f"{pooled_seconds:.2f}s "
              f"({serial_seconds / pooled_seconds:.2f}x)")
    # The determinism contract: worker scheduling must not leak into
    # results.  Cell seeds derive from (experiment seed, cell key) alone.
    assert pooled == serial
    if os.cpu_count() >= JOBS:
        # Near-linear scaling; 2x at 4 workers is a loose floor that
        # leaves room for pool start-up and result pickling.
        assert serial_seconds / pooled_seconds >= 2.0, (
            serial_seconds, pooled_seconds)
    else:
        pytest.skip(f"only {os.cpu_count()} cores: speedup floor needs "
                    f">= {JOBS}; determinism still verified above")

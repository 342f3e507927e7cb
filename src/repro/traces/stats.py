"""Write-distribution statistics.

The paper characterizes every workload with one number — the CoV
(coefficient of variation, std/mean) of per-block write counts — and uses
it to explain all lifetime differences.  :func:`counts_cov` computes it
from any non-negative per-block vector: sampled write counts, wear, or a
trace's probabilities (whose CoV is the asymptotic CoV of an i.i.d.
stream drawn from them, since the counts converge to ``W * p``).
"""

from __future__ import annotations

import numpy as np


def counts_cov(counts: np.ndarray) -> float:
    """CoV (std/mean) of a per-block vector; 0 when it is empty or all 0."""
    counts = np.asarray(counts, dtype=np.float64)
    mean = counts.mean() if counts.size else 0.0
    if mean == 0.0:  # repro: allow(FLOAT-EQ): exact-zero guard, mean of all-zero counts is exactly 0.0
        return 0.0
    return float(counts.std() / mean)

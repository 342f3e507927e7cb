"""Write-distribution statistics.

The paper characterizes every workload with one number — the CoV
(coefficient of variation, std/mean) of per-block write counts — and uses
it to explain all lifetime differences.  These helpers compute it from raw
address streams, count vectors, or probability vectors.
"""

from __future__ import annotations

import numpy as np


def counts_cov(counts: np.ndarray) -> float:
    """CoV of a per-block write-count vector."""
    counts = np.asarray(counts, dtype=np.float64)
    mean = counts.mean() if counts.size else 0.0
    if mean == 0.0:  # repro: allow(FLOAT-EQ): exact-zero guard, mean of all-zero counts is exactly 0.0
        return 0.0
    return float(counts.std() / mean)


def write_cov(addresses: np.ndarray, virtual_blocks: int) -> float:
    """CoV measured from a raw virtual-address write stream."""
    counts = np.bincount(np.asarray(addresses, dtype=np.int64),
                         minlength=virtual_blocks)
    return counts_cov(counts)


def distribution_cov(probabilities: np.ndarray) -> float:
    """Asymptotic CoV of an i.i.d. stream drawn from *probabilities*.

    As the number of writes grows, the count vector converges to
    ``W * p``, so the count CoV converges to ``std(p) / mean(p)``.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    mean = probabilities.mean()
    if mean == 0.0:  # repro: allow(FLOAT-EQ): exact-zero guard, mean of all-zero counts is exactly 0.0
        return 0.0
    return float(probabilities.std() / mean)

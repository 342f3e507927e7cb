"""Wear-distribution statistics.

Quantifies *how well* a configuration levels, beyond the lifetime numbers:

* the CoV of per-block wear (the paper's own workload metric,
  :func:`~repro.traces.stats.counts_cov`, applied to the outcome instead
  of the input);
* the Gini coefficient of wear (0 = perfectly even, ->1 = one block takes
  everything);
* normalized endurance utilization — how much of the chip's total write
  budget was actually delivered before death (an ideal leveler reaches the
  endurance-variation-limited bound, a broken one strands most of it).

Used by the ablation benchmarks and the ``wear_quality`` example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pcm.chip import PCMChip
from ..traces.stats import counts_cov


def gini(wear: np.ndarray) -> float:
    """Gini coefficient of a non-negative wear vector.

    Computed from the sorted-cumulative (Lorenz) form:
    ``G = (2 * sum(i * w_i) / (n * sum(w))) - (n + 1) / n`` with 1-based
    ranks over ascending values.
    """
    wear = np.sort(np.asarray(wear, dtype=np.float64))
    n = wear.size
    total = wear.sum()
    if n == 0 or total == 0.0:  # repro: allow(FLOAT-EQ): exact-zero guard, sum of all-zero wear is exactly 0.0
        return 0.0
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float(2.0 * (ranks * wear).sum() / (n * total) - (n + 1) / n)


def endurance_utilization(chip: PCMChip) -> float:
    """Fraction of the chip's total correctable write budget consumed.

    The budget of block *b* is its ECC threshold; wear beyond the threshold
    (possible in batched simulation bookkeeping) is clipped.  A perfect
    leveler ends its life near 1.0; a frozen one strands most of the chip.
    """
    thresholds = np.asarray(chip.ecc.thresholds, dtype=np.float64)
    consumed = np.minimum(chip.wear.astype(np.float64), thresholds)
    budget = thresholds.sum()
    if budget == 0.0:  # repro: allow(FLOAT-EQ): exact-zero guard against dividing by an empty threshold budget
        return 0.0
    return float(consumed.sum() / budget)


@dataclass(frozen=True)
class WearReport:
    """Summary of a chip's wear distribution at one instant."""

    cov: float
    gini: float
    utilization: float
    max_wear: int
    mean_wear: float
    failed_fraction: float

    @classmethod
    def of(cls, chip: PCMChip) -> "WearReport":
        """Snapshot *chip*'s current wear statistics."""
        wear = chip.wear
        return cls(cov=counts_cov(wear),
                   gini=gini(wear),
                   utilization=endurance_utilization(chip),
                   max_wear=int(wear.max()) if wear.size else 0,
                   mean_wear=float(wear.mean()) if wear.size else 0.0,
                   failed_fraction=chip.failed_fraction())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"WearReport(cov={self.cov:.3f}, gini={self.gini:.3f}, "
                f"utilization={self.utilization:.1%}, "
                f"failed={self.failed_fraction:.1%})")

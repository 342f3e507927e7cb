"""PCM device substrate: geometry, endurance model, and the chip simulator.

This package models the phase-change-memory hardware the paper assumes:

* 64 B memory blocks (one last-level cacheline, one 512-bit ECP group);
* per-cell write endurance drawn from a normal distribution (mean 1e8,
  lifetime CoV 0.2 in the paper; the experiments scale it down with the
  chip);
* per-block wear counters and failure detection on writes.

The per-cell model is realized through *order statistics*: a block protected
by an ECC scheme that corrects ``c`` cell faults becomes uncorrectable when
its ``(c+1)``-th cell dies, so we sample the first ``k`` order statistics of
each block's 512 cell lifetimes directly instead of tracking 512 cells per
block (see :mod:`repro.pcm.endurance`).
"""

from .geometry import AddressGeometry
from .endurance import EnduranceModel, sample_failure_times
from .chip import PCMChip

__all__ = [
    "AddressGeometry",
    "EnduranceModel",
    "sample_failure_times",
    "PCMChip",
]

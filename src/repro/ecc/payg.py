"""PAYG — Pay-As-You-Go hard-error correction (Qureshi, MICRO 2011).

Each 512-bit group carries a cheap local ECP1 entry; when a group exhausts
its local correction, further correction entries are allocated on demand
from a *global* pool shared by all groups.  The pool is sized by an average
metadata budget: the WL-Reviver paper adopts PAYG's default of 19.5 bits per
group on average — less than a third of ECP6's 61 bits — with ECP1 (11 bits)
as the local scheme.

Model: block *da*'s threshold starts at its 2nd cell-death time (ECP1).  A
``try_extend`` consumes one pool entry and bumps the threshold to the next
order statistic.  When the pool is empty, or the next order statistic lies
beyond the endurance model's ``max_order``, the block is uncorrectable.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..pcm.endurance import EnduranceModel
from .base import ErrorCorrection
from .ecp import ENTRY_BITS, GROUP_STATUS_BITS

#: Local scheme: ECP1 = one entry + status bit.
LOCAL_BITS = ENTRY_BITS + GROUP_STATUS_BITS
#: A pooled entry needs a tag locating its group in the set it serves; we
#: follow PAYG's GEC entry sizing of roughly 21 bits (10-bit entry + tag).
POOL_ENTRY_BITS = 21


class PAYG(ErrorCorrection):
    """ECP1 locally plus a finite global pool of overflow entries."""

    def __init__(self, endurance: EnduranceModel,
                 avg_bits_per_group: float = 19.5,
                 local_capacity: int = 1) -> None:
        super().__init__(endurance)
        if avg_bits_per_group < LOCAL_BITS:
            raise ConfigurationError(
                f"PAYG budget {avg_bits_per_group} below local cost {LOCAL_BITS}")
        if local_capacity + 1 > endurance.max_order:
            raise ConfigurationError("local capacity exceeds endurance orders")
        self.local_capacity = local_capacity
        self.avg_bits_per_group = avg_bits_per_group
        pool_bits = (avg_bits_per_group - LOCAL_BITS) * endurance.num_blocks
        #: Remaining overflow entries in the global pool.
        self.pool_entries = int(pool_bits // POOL_ENTRY_BITS)
        self.initial_pool_entries = self.pool_entries
        #: Per-block current correction capacity (starts at the local one).
        self._capacity = np.full(endurance.num_blocks, local_capacity,
                                 dtype=np.int32)
        self._thresholds = endurance.uncorrectable_threshold(
            local_capacity).copy()

    @property
    def thresholds(self) -> np.ndarray:
        return self._thresholds

    def capacity_of(self, da: int) -> int:
        """Current correction capacity (local + allocated) of block *da*."""
        return int(self._capacity[da])

    @property
    def pool_used_fraction(self) -> float:
        """Fraction of the global pool already spent."""
        if self.initial_pool_entries == 0:
            return 1.0
        used = self.initial_pool_entries - self.pool_entries
        return used / self.initial_pool_entries

    def try_extend(self, da: int) -> bool:
        """Allocate one overflow entry for *da* from the global pool."""
        if self.pool_entries <= 0:
            return False
        new_capacity = int(self._capacity[da]) + 1
        # Uncorrectable threshold for capacity c is the (c+1)-th cell death;
        # it must lie within the endurance model's ``max_order``.
        if new_capacity + 1 > self.endurance.max_order:
            return False
        self.pool_entries -= 1
        self._capacity[da] = new_capacity
        self._thresholds[da] = self.endurance.nth_failure(new_capacity + 1)[da]
        return True

    @property
    def metadata_bits_per_group(self) -> float:
        return self.avg_bits_per_group

    @property
    def name(self) -> str:
        return "PAYG"

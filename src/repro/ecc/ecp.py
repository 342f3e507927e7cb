"""ECP — Error-Correcting Pointers (Schechter et al., ISCA 2010).

ECPn permanently encodes the positions of up to *n* dead cells of a 512-bit
group and supplies replacement cells.  The group stays correctable until its
``(n+1)``-th cell dies, so the per-block uncorrectable threshold is simply
the ``(n+1)``-th order statistic of the block's cell lifetimes.

Metadata cost, following the original paper: a full entry is a 9-bit pointer
plus the replacement cell plus the entry's own guard bit; ECP6 in a 512-bit
group costs 61 bits (6 entries x 10 bits + 1 group status bit), which is the
figure the WL-Reviver paper quotes.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..pcm.endurance import EnduranceModel
from .base import ErrorCorrection

#: Pointer width for a 512-bit group (log2(512) = 9).
POINTER_BITS = 9
#: A full ECP entry: 9-bit pointer + 1 replacement cell.
ENTRY_BITS = POINTER_BITS + 1
#: One "group failed" status bit.
GROUP_STATUS_BITS = 1


class ECP(ErrorCorrection):
    """Fixed-capacity ECP with *capacity* correction entries per group."""

    def __init__(self, endurance: EnduranceModel, capacity: int = 6) -> None:
        super().__init__(endurance)
        if capacity < 0:
            raise ConfigurationError("ECP capacity must be non-negative")
        if capacity + 1 > endurance.max_order:
            raise ConfigurationError(
                f"ECP{capacity} needs order statistic {capacity + 1}; "
                f"endurance model materialized only {endurance.max_order}")
        self.capacity = capacity
        self._thresholds = endurance.uncorrectable_threshold(capacity).copy()

    @property
    def thresholds(self) -> np.ndarray:
        return self._thresholds

    def threshold(self, da: int) -> int:
        # The per-write path: skip the property, read a Python int.
        return self._thresholds.item(da)

    def try_extend(self, da: int) -> bool:
        """ECP is static: once entries are exhausted the block is dead."""
        return False

    @property
    def metadata_bits_per_group(self) -> float:
        return self.capacity * ENTRY_BITS + GROUP_STATUS_BITS

    @property
    def name(self) -> str:
        return f"ECP{self.capacity}"

"""Interface all error-correction schemes implement.

An :class:`ErrorCorrection` object answers one question for the chip: at what
wear does block *da* become uncorrectable?  Static schemes (ECP) answer with
a fixed per-block threshold; adaptive schemes (PAYG) may *extend* a block's
threshold when it is crossed, by spending entries from a shared pool.
"""

from __future__ import annotations

import abc

import numpy as np

from ..pcm.endurance import EnduranceModel


class ErrorCorrection(abc.ABC):
    """Per-block uncorrectable-wear policy over an endurance model."""

    def __init__(self, endurance: EnduranceModel) -> None:
        self.endurance = endurance

    # ------------------------------------------------------------- interface

    @property
    @abc.abstractmethod
    def thresholds(self) -> np.ndarray:
        """Current per-block uncorrectable thresholds (live array view)."""

    def threshold(self, da: int) -> int:
        """Current uncorrectable threshold of block *da*."""
        return self.thresholds.item(da)

    @abc.abstractmethod
    def try_extend(self, da: int) -> bool:
        """Attempt to raise block *da*'s threshold past its current wear.

        Returns ``True`` when the scheme found additional correction
        resources for the block (the pending write can then be re-checked),
        ``False`` when the block is uncorrectable and must be declared
        failed.
        """

    @property
    @abc.abstractmethod
    def metadata_bits_per_group(self) -> float:
        """Average metadata overhead in bits per 512-bit group (reporting)."""

    # -------------------------------------------------------------- reporting

    @property
    def name(self) -> str:
        """Short display name used in experiment tables."""
        return type(self).__name__

    def describe(self) -> str:
        """Human-readable one-line description."""
        return (f"{self.name}: {self.metadata_bits_per_group:.1f} "
                f"metadata bits/group over {self.endurance.num_blocks} blocks")

"""The PCM chip simulator.

:class:`PCMChip` owns per-block wear counters and failure flags.  Failure
semantics follow the paper's write-verify model: wear-out is detected when a
*write* is serviced (reads of previously written data succeed; the paper
argues write errors are the recoverable kind and WL-Reviver victimizes writes
accordingly).

The chip delegates the "when does a block become uncorrectable" decision to
an error-correction scheme (:mod:`repro.ecc`): the scheme exposes a per-block
threshold (derived from the endurance order statistics) and may *extend* a
threshold on demand (PAYG allocating overflow entries from its global pool).

Content tracking: for correctness tests and the exact engine the chip can
record an integer *tag* per block standing in for the 64 B payload.  Tags let
tests assert the fundamental invariant of wear leveling — a PA always reads
back the last tag written to it, wherever the data migrated — without
simulating actual bytes.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from ..errors import AddressError, WriteFault
from .block import BlockState, BlockView
from .geometry import AddressGeometry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..ecc.base import ErrorCorrection
    from ..faultinject.hooks import ChipHooks

#: Tag value meaning "no valid data stored".
EMPTY_TAG = -1


class PCMChip:
    """Simulated PCM device: wear, failure state, and optional contents."""

    def __init__(self, geometry: AddressGeometry, ecc: "ErrorCorrection",
                 track_contents: bool = False) -> None:
        self.geometry = geometry
        self.ecc = ecc
        n = geometry.num_blocks
        self.wear = np.zeros(n, dtype=np.int64)
        self.failed = np.zeros(n, dtype=bool)
        self.contents: Optional[np.ndarray] = None
        if track_contents:
            self.contents = np.full(n, EMPTY_TAG, dtype=np.int64)
        #: Total physical writes applied to the device (including migrations).
        self.total_device_writes = 0
        #: Fault-injection hooks; ``None`` (the default) means no injection.
        #: Only :mod:`repro.faultinject` may set this.
        self.inject: Optional["ChipHooks"] = None

    # ------------------------------------------------------------ inspection

    @property
    def num_blocks(self) -> int:
        """Total device blocks."""
        return self.geometry.num_blocks

    @property
    def failed_count(self) -> int:
        """Number of blocks currently failed."""
        return int(self.failed.sum())

    def failed_fraction(self) -> float:
        """Fraction of device blocks that have failed."""
        return self.failed_count / self.num_blocks

    def is_failed(self, da: int) -> bool:
        """Whether block *da* is failed."""
        return bool(self.failed[self.geometry.check_block(da)])

    def wear_of(self, da: int) -> int:
        """Wear counter of block *da*."""
        return int(self.wear[self.geometry.check_block(da)])

    def view(self, da: int) -> BlockView:
        """Debug snapshot of block *da*."""
        self.geometry.check_block(da)
        state = BlockState.FAILED if self.failed[da] else BlockState.HEALTHY
        return BlockView(da=da, state=state, wear=int(self.wear[da]),
                         threshold=int(self.ecc.threshold(da)))

    # ---------------------------------------------------------- single access

    def write(self, da: int, tag: Optional[int] = None) -> None:
        """Apply one write to block *da*.

        Raises :class:`WriteFault` when the write wears the block past what
        its ECC scheme can correct; the block is marked failed and the data
        is not stored.  Writing to an already-failed block is a protocol
        error for data (the controller must redirect), so it also faults —
        metadata writes to failed blocks go through
        :meth:`write_metadata` instead.
        """
        self.geometry.check_block(da)
        if self.failed[da]:
            raise WriteFault(da, f"write to failed block {da}")
        self.wear[da] += 1
        self.total_device_writes += 1
        while self.wear[da] >= self.ecc.threshold(da):
            if not self.ecc.try_extend(da):
                self.failed[da] = True
                if self.contents is not None:
                    self.contents[da] = EMPTY_TAG
                raise WriteFault(da)
        if tag is not None and self.contents is not None:
            self.contents[da] = tag

    def read(self, da: int) -> int:
        """Read the content tag of block *da* (``EMPTY_TAG`` if untracked).

        Raises :class:`~repro.errors.UncorrectableError` when an injected
        transient read error is armed for *da* (retryable: the data is
        intact, the controller re-reads).
        """
        self.geometry.check_block(da)
        if self.inject is not None:
            self.inject.on_read(da)
        if self.contents is None:
            return EMPTY_TAG
        return int(self.contents[da])

    def write_metadata(self, da: int) -> None:
        """Record a metadata write into a *failed* block.

        Failed blocks still hold the pointer to their virtual shadow block
        (stored in the block's surviving cells with a strong code, as in
        FREE-p/Zombie).  Those writes touch worn-out hardware that is already
        accounted dead, so they update no wear statistics; the call exists so
        access accounting can still count the PCM access.
        """
        self.geometry.check_block(da)
        self.total_device_writes += 1

    # ----------------------------------------------------------- batched API

    def write_many(self, das: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Apply ``counts[i]`` writes to block ``das[i]`` (vectorized).

        Wear from the whole batch is applied first and threshold crossings
        are resolved afterwards, so a block that fails mid-batch absorbs the
        remainder of its batch traffic — the documented approximation of the
        fast engine (batch sizes are small relative to endurance).

        Returns the array of device addresses that *newly* failed during
        this batch, in ascending order.
        """
        das = np.asarray(das, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if das.shape != counts.shape:
            raise AddressError("das and counts must have identical shapes")
        if das.size == 0:
            return np.empty(0, dtype=np.int64)
        np.add.at(self.wear, das, counts)
        self.total_device_writes += int(counts.sum())
        # A mask over the chip yields the sorted unique blocks, as
        # ``np.unique`` does, without sorting or hashing ``das``.
        touched = np.zeros(self.num_blocks, dtype=bool)
        touched[das] = True
        return self._resolve_threshold_crossings(np.flatnonzero(touched))

    def _resolve_threshold_crossings(self, candidates: np.ndarray) -> np.ndarray:
        """Extend-or-fail every candidate block whose wear crossed its threshold."""
        thresholds = self.ecc.thresholds
        hot = candidates[(~self.failed[candidates])
                         & (self.wear[candidates] >= thresholds[candidates])]
        newly_failed = []
        for da in hot.tolist():
            while self.wear[da] >= self.ecc.threshold(da):
                if not self.ecc.try_extend(da):
                    self.failed[da] = True
                    if self.contents is not None:
                        self.contents[da] = EMPTY_TAG
                    newly_failed.append(da)
                    break
        return np.asarray(sorted(newly_failed), dtype=np.int64)

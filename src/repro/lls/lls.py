"""The LLS recovery model and its fast-engine integration.

:class:`LLSRecovery` is the pure bookkeeping (chunks + groups + backup
table); :class:`LLSFastEngine` plugs it into the vectorized lifetime
simulator with the two behaviours that differentiate LLS from WL-Reviver in
the paper's Figure 8 and Table II:

* Start-Gap runs with the **restricted randomizer** (each PA half may only
  randomize into the opposite half — the adaptation LLS needs to keep its
  shrinking space contiguous), so concentrated write regions are not fully
  spread;
* when a group runs out of backups a whole new **chunk** leaves the
  software pool, stranding the other groups' idle blocks, and the
  wear-leveler is rebuilt over the smaller contiguous space (the data
  relocation the OS performs for LLS is the explicit cost WL-Reviver
  avoids).

Accesses to a failed block cost **3** PCM reads without a cache (block,
bitmap, backup) versus WL-Reviver's 2; Table II measures both behind the
same 32 KB remap cache via
:func:`repro.experiments.table2.measure_access_time`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

import numpy as np

from ..config import LLSConfig, StartGapConfig
from ..osmodel.allocator import PagePool
from ..pcm.chip import PCMChip
from ..sim.fast import FastConfig, FastEngine
from ..traces.base import WriteTrace
from ..units import blocks_of_pages, round_up_to_pages
from ..wl.randomizer import RestrictedRandomizer
from ..wl.startgap import StartGap


class LLSRecovery:
    """Chunk + group bookkeeping shared by the engines."""

    def __init__(self, device_blocks: int, config: Optional[LLSConfig] = None,
                 blocks_per_page: int = 64,
                 is_usable_backup: Optional[Callable[[int], bool]] = None) -> None:
        from .chunks import ChunkReservation
        from .groups import SalvageGroups
        self.config = config or LLSConfig()
        #: Optional predicate rejecting dead blocks as backups.
        self.is_usable_backup = is_usable_backup
        chunk = round_up_to_pages(self.config.chunk_blocks, blocks_per_page)
        self.chunks = ChunkReservation(
            device_blocks, chunk,
            min_working_blocks=blocks_of_pages(2, blocks_per_page))
        self.groups = SalvageGroups(self.config.num_groups)
        self.frozen = False

    def handle_failure(self, da: int) -> Optional[int]:
        """Back the failed block; reserve a chunk when its group is dry.

        Returns the backup DA, or ``None`` when no space remains (the
        recovery layer gives up and the failure is exposed).
        """
        backup = self.groups.assign(da, is_usable=self.is_usable_backup)
        while backup is None:
            if not self.chunks.can_reserve():
                self.frozen = True
                return None
            start, end = self.chunks.reserve_next()
            self.groups.add_chunk(start, end)
            backup = self.groups.assign(da, is_usable=self.is_usable_backup)
        return backup

    def resolve(self, da: int) -> int:
        """Backup of *da*, or *da* itself."""
        return self.groups.resolve(da)

    @property
    def reserved_fraction(self) -> float:
        """Chip fraction consumed by reserved chunks."""
        return self.chunks.reserved_fraction

    def stats(self) -> dict:
        """Reporting counters."""
        return {
            "chunks": self.chunks.chunks,
            "reserved_blocks": self.chunks.reserved_blocks,
            "backups_assigned": len(self.groups.backups),
            "idle_backup_blocks": self.groups.idle_blocks(),
            "frozen": self.frozen,
        }


class LLSFastEngine(FastEngine):
    """Fast engine variant running LLS instead of WL-Reviver."""

    def __init__(self, chip: PCMChip, trace: WriteTrace,
                 config: Optional[FastConfig] = None,
                 lls_config: Optional[LLSConfig] = None,
                 startgap_config: Optional[StartGapConfig] = None,
                 label: str = "") -> None:
        # The base class's recovery mode is unused here; the copy leaves
        # the caller's config as it was.
        fast_config = replace(config or FastConfig(), recovery="none")
        self.lls = LLSRecovery(chip.num_blocks, lls_config,
                               blocks_per_page=fast_config.blocks_per_page,
                               is_usable_backup=lambda da: not chip.failed[da])
        self._sg_config = startgap_config or StartGapConfig()
        self._original_trace = trace
        wl = self._build_wl(self.lls.chunks.working_blocks)
        super().__init__(chip, wl, trace, fast_config,
                         label=label or "LLS")

    # --------------------------------------------------------------- helpers

    def _build_wl(self, working_blocks: int) -> StartGap:
        randomizer = RestrictedRandomizer(working_blocks - 1,
                                          seed=self._sg_config.seed)
        return StartGap(working_blocks, config=self._sg_config,
                        randomizer=randomizer)

    def _shrink_to(self, working_blocks: int) -> None:
        """Rebuild the wear-leveler and software pool after a reservation.

        Models the OS-visible cost of LLS's explicit space acquisition: the
        remaining space is re-leveled from scratch and the software's
        virtual pages are repacked into the smaller pool.  Wear state lives
        in the chip and carries over untouched.
        """
        self.wl = self._build_wl(working_blocks)
        # The fresh scheme must not try to catch up on the whole run's
        # migration schedule: it starts its rotation from now.
        self.wl.gap_moves = self.total_writes // self.wl.psi
        self.ospool = PagePool(self.wl.logical_blocks,
                               blocks_per_page=self.config.blocks_per_page,
                               seed=self.config.seed)
        from ..osmodel.faults import FaultReporter
        self.reporter = FaultReporter(self.ospool)
        self.trace = self._original_trace.restricted_to(
            self.ospool.virtual_blocks)

    # ------------------------------------------------------------- overrides

    def _process_failures(self, newly: np.ndarray,
                          migration: bool = False) -> None:
        for da in newly.tolist():
            before = self.lls.chunks.chunks
            backup = self.lls.handle_failure(int(da))
            if self.lls.chunks.chunks != before:
                self._shrink_to(self.lls.chunks.working_blocks)
            if backup is None:
                self._baseline_failure(int(da))

    def _rebuild_redirect(self) -> None:
        self._redirect = np.arange(self.chip.num_blocks, dtype=np.int64)
        backups = self.lls.groups.backups
        if backups:
            origins = np.fromiter(backups.keys(), dtype=np.int64,
                                  count=len(backups))
            targets = np.fromiter(backups.values(), dtype=np.int64,
                                  count=len(backups))
            self._redirect[origins] = targets

    def _reserved_fraction(self) -> float:
        return self.lls.reserved_fraction

    def _usable_fraction(self) -> float:
        reserved = self.lls.reserved_fraction
        retired = self.ospool.retired_blocks / self.chip.num_blocks
        return max(0.0, 1.0 - reserved - retired)

    def stats(self) -> dict:
        merged = super().stats()
        merged.update({f"lls_{k}": v for k, v in self.lls.stats().items()})
        return merged

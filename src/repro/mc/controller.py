"""Memory controllers for the paper's system configurations.

:class:`BaseController` owns the plumbing every configuration shares:

* OS translation (virtual block -> PA) and page-retirement bookkeeping,
  including the optional OS-side page-data copy on retirement (used by the
  exact engine's data-consistency checks);
* the store buffer for migration writes *parked* while space acquisition is
  pending (see :mod:`repro.wl.base` for the commit-first migration
  protocol);
* the wear-leveler tick loop and PCM-access accounting.

Concrete controllers differ only in how they resolve failures:

* :class:`ReviverController` — runs the full WL-Reviver protocol;
* :class:`FreePController` — the adapted FREE-p of Section IV-C: failed
  blocks hide behind pre-reserved slots until the region is exhausted;
  after that the wear-leveler freezes at the next failure and every
  software access error retires a page.  With a zero-slot region
  (``FreePRegion(n, 0.0)``) it is the no-recovery baseline from the start
  (the "-SG" curves).
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import (Container, Dict, List, Optional, Set, Tuple,
                    TYPE_CHECKING)

from ..config import ReviverConfig
from ..errors import (ConfigurationError, ProtocolError, ReadRetriesExhausted,
                      SimulatedCrash, UncorrectableError, WriteFault)
from ..ecc.freep import FreePRegion
from ..osmodel.allocator import PagePool
from ..osmodel.faults import FaultReporter
from ..pcm.chip import PCMChip
from ..reviver.persist import DurableMetadata
from ..reviver.reviver import FaultContext, WLReviver
from ..wl.base import WearLeveler
from .access import AccessResult, AccessStats
from .cache import RemapCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..faultinject.hooks import ControllerHooks
    from ..telemetry.session import TelemetrySession

#: Default bounded retries for transient (correctable-on-retry) read
#: errors; override per controller with ``read_retry_limit``.
READ_RETRY_LIMIT = 8


class BaseController(abc.ABC):
    """Shared translation, accounting, and migration-port plumbing."""

    def __init__(self, chip: PCMChip, wl: WearLeveler, ospool: PagePool,
                 cache: Optional[RemapCache] = None,
                 copy_on_retire: bool = False,
                 read_retry_limit: int = READ_RETRY_LIMIT) -> None:
        if wl.device_blocks > chip.num_blocks:
            raise ProtocolError("wear-leveler space exceeds the chip")
        if read_retry_limit < 1:
            raise ConfigurationError("read_retry_limit must be >= 1")
        self.chip = chip
        self.wl = wl
        self.ospool = ospool
        self.cache = cache
        self.copy_on_retire = copy_on_retire
        #: Bounded retry budget for transient read errors.
        self.read_retry_limit = read_retry_limit
        self.reporter = FaultReporter(ospool)
        self.stats = AccessStats()
        #: Software writes serviced (drives victimization bookkeeping).
        self.writes = 0
        #: Store buffer: post-commit owner PA -> parked migration tag.
        self._parked: "OrderedDict[int, int]" = OrderedDict()
        #: Virtual blocks whose data the simulation knowingly lost
        #: (retired-page data without copy, frozen-migration drops).
        self.lost_vblocks: Set[int] = set()
        #: Physical migration writes performed.
        self.migration_writes = 0
        #: Fault-injection crash hooks; ``None`` (the default) disables
        #: every crash point.  Only :mod:`repro.faultinject` may set this.
        self.inject: Optional["ControllerHooks"] = None
        #: Simulated power losses survived via :meth:`crash_and_recover`.
        self.crashes_recovered = 0
        #: Transient read errors absorbed by bounded retry.
        self.transient_read_errors = 0
        #: Telemetry hook; ``None`` (the default) disables every event.
        #: Only :mod:`repro.telemetry` may attach a session.
        self.telem: Optional["TelemetrySession"] = None

    # ------------------------------------------------------- subclass hooks

    @abc.abstractmethod
    def _resolve_counted(self, da: int, parked: Container[int] = ()
                         ) -> Tuple[Optional[int], int, bool, Optional[int]]:
        """Resolve *da* for a software access.

        Returns ``(final_da, pcm_accesses, redirected, in_flight_pa)``;
        ``final_da`` is ``None`` when the block is failed and has no
        redirection (an exhausted FREE-p region): an access error.
        ``in_flight_pa`` is a store-buffer PA (a key of *parked*) on the
        chain, whose datum the access reads instead; else ``None``.

        Contract: when ``redirected`` is false, ``final_da`` is either
        ``None`` or *da* itself, just found healthy.  Only a redirected
        ``final_da`` (a chain's end, a slot, a cached shadow) can be a
        failed block, so :meth:`service_write` re-checks only that case.
        """

    @abc.abstractmethod
    def _handle_software_fault(self, failed_da: Optional[int], pa: int,
                               new_failure: bool) -> None:
        """React to a failed software write so the retry can progress."""

    @abc.abstractmethod
    def _migration_resolve(self, pa: int) -> Optional[int]:
        """Destination block for a migration write owned by *pa*.

        ``None`` means the data is garbage (reserved PA on a loop) and the
        write is dropped.
        """

    @abc.abstractmethod
    def _handle_migration_fault(self, failed_da: int, pa: int) -> str:
        """React to a failed migration write: ``retry``/``park``/``drop``."""

    def _acquisition_pending(self) -> bool:
        """Whether the controller owes a victimized page acquisition."""
        return False

    def _maybe_victimize(self, vblock: int) -> bool:
        """Acquire space by victimizing this write, when owed."""
        return False

    def _after_fault_handled(self) -> None:
        """Hook run after software-fault handling (metadata drains)."""

    # ------------------------------------------------------------ device I/O

    def _read_block(self, da: int) -> int:
        """Read block *da*, retrying bounded on transient read errors.

        Transient :class:`~repro.errors.UncorrectableError`\\ s (soft read
        disturbs, injected or otherwise) are retryable: the cells hold the
        data, re-sensing succeeds.  Each retry costs one extra PCM access.
        A block that fails the whole :attr:`read_retry_limit` budget raises
        the structured :class:`~repro.errors.ReadRetriesExhausted`.
        """
        for _ in range(self.read_retry_limit):
            try:
                return self.chip.read(da)
            except UncorrectableError:
                self.transient_read_errors += 1
                self.stats.pcm_accesses += 1
                if self.telem is not None:
                    self.telem.emit("read-retry", da=da, at_write=self.writes)
        raise ReadRetriesExhausted(da, self.read_retry_limit)

    # -------------------------------------------------------- crash recovery

    def crash_and_recover(self, crash: Optional[SimulatedCrash] = None) -> None:
        """Model a power loss: drop all volatile state, then rebuild.

        The base controller has nothing durable to rebuild *from* — the
        store buffer and remap cache are simply gone.  Parked migration
        data that never reached the PCM is recorded lost, exactly like a
        real machine losing its write queue.  Subclasses with durable
        state rebuild it in :meth:`_rebuild_after_crash`, which runs
        between the two telemetry events so an instrumented run brackets
        the whole reboot with one ``crash``/``recover`` pair.
        """
        if self.telem is not None:
            self.telem.emit("crash", site=None if crash is None else crash.site,
                            at_write=self.writes)
        if crash is not None and crash.pa is not None:
            self._record_lost_pa(crash.pa)
        for pa in list(self._parked):
            self._record_lost_pa(pa)
        self._parked.clear()
        if self.cache is not None:
            self.cache.clear()
        self._rebuild_after_crash()
        self.crashes_recovered += 1
        if self.telem is not None:
            self.telem.emit("recover", at_write=self.writes,
                            crashes=self.crashes_recovered)

    def _rebuild_after_crash(self) -> None:
        """Hook: rebuild durable state after the volatile drop (no-op)."""

    # --------------------------------------------------------- software path

    def service_write(self, vblock: int, tag: Optional[int] = None) -> AccessResult:
        """Service one software write; run the due wear-leveling moves."""
        self.writes += 1
        victimized = self._maybe_victimize(vblock)
        if self._parked and not self._acquisition_pending():
            self._drain_parked()
        accesses = 0
        faults = 0
        redirected_any = False
        while True:
            pa = self.ospool.translate(vblock)
            da = self.wl.map(pa)
            final, cost, redirected, _ = self._resolve_counted(da)
            accesses += cost
            if redirected:
                redirected_any = True
            if final is None or (redirected and self.chip.is_failed(final)):
                # No destination, or a redirected one already failed: an
                # access error the OS sees immediately.  An unredirected
                # ``final`` was just found healthy (_resolve_counted).
                faults += 1
                self._handle_software_fault(final, pa, new_failure=False)
                self._after_fault_handled()
                continue
            try:
                self.chip.write(final, tag=tag)
                break
            except WriteFault:
                faults += 1
                self._handle_software_fault(final, pa, new_failure=True)
                self._after_fault_handled()
        if pa in self._parked:
            # The write supersedes a parked migration datum for this PA.
            del self._parked[pa]
        result = AccessResult._make((vblock, pa, final, accesses, None,
                                     redirected_any, faults, victimized))
        self.stats.record(result, is_write=True)
        self._run_wear_leveling(pa=pa)
        return result

    def service_read(self, vblock: int) -> AccessResult:
        """Service one software read (never faults, never ticks the WL)."""
        pa = self.ospool.translate(vblock)
        if pa in self._parked:
            # Store-buffer hit: the datum is in flight, no PCM access needed.
            result = AccessResult._make((vblock, pa, -1, 0, self._parked[pa],
                                         False, 0, False))
            self.stats.record(result, is_write=False)
            return result
        da = self.wl.map(pa)
        final, cost, redirected, in_flight = self._resolve_counted(
            da, self._parked)
        tag: Optional[int] = None
        if in_flight is not None:
            # A shadow datum on the chain is still in the store buffer.
            final, tag = da, self._parked[in_flight]
        elif final is None:
            final = da  # no redirection (exhausted FREE-p): reads garbage
        else:
            tag = self._read_block(final)
        result = AccessResult._make((vblock, pa, final, cost, tag,
                                     redirected, 0, False))
        self.stats.record(result, is_write=False)
        return result

    # -------------------------------------------------------- migration port

    def can_start_migration(self) -> bool:
        """Port hook: migrations pause while an acquisition is owed."""
        return not self._acquisition_pending()

    def read_migration(self, da: int) -> int:
        """Port hook: read *da*'s current content through redirections."""
        pa = self.wl.inverse(da)
        if pa is not None and pa in self._parked:
            return self._parked[pa]
        return self._read_through(da)

    def _read_through(self, da: int) -> int:
        """Migration read of *da* through redirections; defaults to none."""
        return self._read_block(da)

    def write_migration_pa(self, pa: int, tag: int) -> None:
        """Port hook: store *tag* as PA *pa*'s data under the new mapping."""
        if self.inject is not None:
            self.inject.crash_point("mid-migration", pa=pa)
        while True:
            target = self._migration_resolve(pa)
            if target is None:
                self._migration_unroutable(pa)
                return
            try:
                self.chip.write(target, tag=tag)
                self.migration_writes += 1
                return
            except WriteFault:
                action = self._handle_migration_fault(target, pa)
                if action == "park":
                    self._parked[pa] = tag
                    return
                if action == "drop":
                    self._record_lost_pa(pa)
                    return
                # "retry": resolve again against the updated chains.

    def _drain_parked(self) -> None:
        """Replay parked migration writes once space is available."""
        for pa in list(self._parked):
            if self._acquisition_pending():
                return
            tag = self._parked.pop(pa)
            self.write_migration_pa(pa, tag)

    def _run_wear_leveling(self, pa: Optional[int] = None) -> None:
        changed = self.wl.tick(self, pa=pa)
        if changed:
            self._on_mapping_changed(changed)

    def _on_mapping_changed(self, pas: List[int]) -> None:
        """Hook: re-validate failure chains after a mapping update."""

    # ----------------------------------------------------------- retirement

    def _retire_page_for(self, pa: int, victimized: bool) -> List[int]:
        """Report *pa* to the OS; retire its page and handle data movement."""
        pas = self.reporter.report(pa, self.writes, victimized=victimized)
        self._handle_page_moves()
        return pas

    def _handle_page_moves(self) -> None:
        """Copy or write off the data of the just-retired page."""
        moves = self.ospool.last_moves
        self.ospool.last_moves = []
        if not moves:
            return
        for vpage, old_phys, new_phys, shared in moves:
            old_base = self.ospool.page_base(old_phys)
            new_base = self.ospool.page_base(new_phys)
            for offset, vblock in enumerate(
                    self.ospool.virtual_blocks_of_page(vpage)):
                if self.copy_on_retire:
                    tag = self.read_migration(self.wl.map(old_base + offset))
                    self.write_migration_pa(new_base + offset, tag)
                else:
                    self.lost_vblocks.add(vblock)
            if shared:
                # Frame consolidation: every virtual page aliased onto the
                # target frame (including the mover) now interleaves its
                # writes with the others — none of their data is reliable.
                for alias in self.ospool.pages[new_phys].virtual_pages:
                    self.lost_vblocks.update(
                        self.ospool.virtual_blocks_of_page(alias))

    def _migration_unroutable(self, pa: int) -> None:
        """A migration write had no destination: by default the data is
        lost (baseline semantics).  WL-Reviver overrides this to a no-op:
        an unroutable PA there is a reserved PA on a PA-DA loop whose data
        is garbage by construction."""
        self._record_lost_pa(pa)

    def _record_lost_pa(self, pa: int) -> None:
        """Account data loss for every virtual block aliased to *pa*."""
        if not self.ospool.pa_in_software_space(pa):
            return
        page = self.ospool.page_of_pa(pa)
        offset = self.ospool.offset_in_page(pa)
        for vpage in self.ospool.pages[page].virtual_pages:
            self.lost_vblocks.add(self.ospool.virtual_block_of(vpage, offset))

    # -------------------------------------------------------------- metrics

    def software_usable_fraction(self) -> float:
        """Usable software space as a fraction of the whole chip."""
        return self.ospool.usable_blocks / self.chip.num_blocks

    @property
    def name(self) -> str:
        """Display name for experiment tables."""
        return type(self).__name__


class ReviverController(BaseController):
    """Wear-leveling + WL-Reviver (the paper's proposed system)."""

    def __init__(self, chip: PCMChip, wl: WearLeveler, ospool: PagePool,
                 reviver_config: Optional[ReviverConfig] = None,
                 cache: Optional[RemapCache] = None,
                 copy_on_retire: bool = False,
                 read_retry_limit: int = READ_RETRY_LIMIT) -> None:
        super().__init__(chip, wl, ospool, cache=cache,
                         copy_on_retire=copy_on_retire,
                         read_retry_limit=read_retry_limit)
        self.reviver_config = reviver_config or ReviverConfig()
        self.reviver = WLReviver(
            self.reviver_config, self.reporter,
            map_fn=wl.map, inverse_fn=wl.inverse,
            is_failed=chip.is_failed,
            blocks_per_page=ospool.blocks_per_page,
            block_bytes=chip.geometry.block_bytes,
            num_pages=ospool.num_pages)
        # The OS copies a retired page's data out before the reviver may
        # repurpose the page's PAs (ordering is data-critical).
        self.reviver.page_copier = self._handle_page_moves
        #: Mirror of the pointer/inverse cells as physically written; this
        #: is what survives a crash and what recovery scans.
        self.durable = DurableMetadata()
        #: Loops read by this tick's migrations: shadow PA -> loop DA.
        self._loop_reads: Dict[int, int] = {}

    # ------------------------------------------------------------ resolution

    def _resolve_counted(self, da: int, parked: Container[int] = ()
                         ) -> Tuple[Optional[int], int, bool, Optional[int]]:
        if not self.chip.is_failed(da):
            return da, 1, False, None
        if self.cache is not None:
            vpa = self.cache.get(da)
            if vpa is not None:
                # Remap-cache hit: go straight to the shadow, 1 access.
                if vpa in parked:
                    return da, 1, True, vpa
                return self.wl.map(vpa), 1, True, None
        final, hops, outcome, vpa = self.reviver.resolver.walk(da, parked)
        if outcome == "unlinked":
            raise ProtocolError(f"failed block {final} has no link")
        if outcome == "loop":
            raise ProtocolError(f"software access reached loop block {da}")
        if self.cache is not None:
            link = self.reviver.links.vpa_of(da)
            if link is not None:
                self.cache.put(da, link)
        # 1 access to read the pointer + 1 access per chain step; ``vpa``
        # is the in-flight shadow PA when the walk stopped on ``parked``.
        return final, 1 + hops, True, vpa

    def _read_through(self, da: int) -> int:
        final, _, outcome, vpa = self.reviver.resolver.walk(da, self._parked)
        if vpa is not None:  # the walk stopped on "parked" or "loop"
            if outcome == "parked":
                # The shadow datum is still in flight in the store buffer.
                return self._parked[vpa]
            # A loop holds garbage by construction; remembered so the
            # write of this datum can be dropped (see _migration_resolve).
            self._loop_reads[vpa] = final
        # An unlinked stop failed moments ago: its content is what is left.
        return self._read_block(final)

    def _migration_resolve(self, pa: int) -> Optional[int]:
        """Destination of an internal (migration/copy/pointer) write.

        A block that failed moments ago and is not linked yet is *returned*
        (the write will fault and re-enter the failure machinery), while a
        PA-DA loop yields ``None`` (the data is garbage by construction —
        drop the write).  So does a datum this tick read from a loop whose
        block a swap has since moved under another PA (the port contract
        in :class:`~repro.wl.base.MigrationPort`).
        """
        loop_da = self._loop_reads.get(pa)
        if loop_da is not None and self.wl.inverse(loop_da) not in (None, pa):
            return None
        final, _, outcome, _ = self.reviver.resolver.walk(self.wl.map(pa))
        return None if outcome == "loop" else final

    def _migration_unroutable(self, pa: int) -> None:
        """Loop blocks hold garbage for a reserved PA: nothing is lost."""

    # ---------------------------------------------------------------- faults

    def _handle_software_fault(self, failed_da: Optional[int], pa: int,
                               new_failure: bool) -> None:
        if failed_da is None or not new_failure:
            raise ProtocolError(
                f"reviver resolution produced a dead target {failed_da}")
        handled = self.reviver.handle_new_failure(
            failed_da, FaultContext.SOFTWARE, victim_pa=pa,
            at_write=self.writes)
        assert handled, "software faults always complete acquisition"

    def _handle_migration_fault(self, failed_da: int, pa: int) -> str:
        handled = self.reviver.handle_new_failure(
            failed_da, FaultContext.MIGRATION, at_write=self.writes)
        return "retry" if handled else "park"

    def _after_fault_handled(self) -> None:
        self._drain_metadata()

    # ------------------------------------------------------------- reviver IO

    def _acquisition_pending(self) -> bool:
        return self.reviver.acquisition_pending

    def _maybe_victimize(self, vblock: int) -> bool:
        if not self.reviver.acquisition_pending:
            return False
        pa = self.ospool.translate(vblock)
        self.reviver.acquire_page(pa, self.writes, victimized=True)
        self._drain_metadata()
        return True

    def _on_mapping_changed(self, pas: List[int]) -> None:
        self.reviver.on_mapping_changed(pas)
        self._drain_metadata()

    def _drain_metadata(self) -> None:
        """Apply the physical metadata writes the link table emitted.

        Each record becomes durable the moment its physical write lands
        (:attr:`durable` is updated record-by-record), so an injected crash
        between any two records leaves exactly the written prefix in the
        PCM — which is the torn state :meth:`crash_and_recover` must mend.
        """
        for record in self.reviver.links.drain_writes():
            if record.kind == "pointer":
                # Pointer cells live in the failed block itself.
                self.chip.write_metadata(record.location)
                if self.cache is not None:
                    self.cache.invalidate(record.location)
                self.durable.apply(record)
                self.stats.metadata_writes += 1
                if self.inject is not None:
                    self.inject.crash_point("after-link-write",
                                            pa=record.vpa)
            else:
                if self.inject is not None:
                    self.inject.crash_point("before-inverse-write",
                                            pa=record.vpa)
                # Inverse pointers live in the block mapped by a
                # pointer-section PA; route through the normal machinery.
                self._write_pointer_block(record.location)
                self.durable.apply(record)
                self.stats.metadata_writes += 1

    def _write_pointer_block(self, pointer_pa: int) -> None:
        """Wear the block backing an inverse-pointer PA."""
        while True:
            target = self._migration_resolve(pointer_pa)
            if target is None:
                return
            try:
                self.chip.write(target, tag=None)
                return
            except WriteFault:
                action = self._handle_migration_fault(target, pointer_pa)
                if action != "retry":
                    # Pointer data is rebuildable by scanning (Section
                    # III-B); drop rather than park metadata.
                    return

    # -------------------------------------------------------- crash recovery

    def _rebuild_after_crash(self) -> None:
        """Section III-B reboot: rebuild links by scanning the PCM.

        The link table and spare registers are volatile and gone; the
        durable truth is the retired-page bitmap plus the pointer and
        inverse-pointer cells sitting in the PCM (:attr:`durable`).  The
        reviver rescans them, completes any torn metadata update, and the
        Theorem 1-3 invariants are re-checked unconditionally before the
        controller resumes service.
        """
        # Recovery itself must not trip armed crash points or read errors:
        # the machine is rebooting, the injection campaign resumes after.
        hooks, self.inject = self.inject, None
        self._loop_reads.clear()
        chip_hooks, self.chip.inject = self.chip.inject, None  # repro: allow(FAULT-HOOK): the rebooting controller detaches its own chip's hooks for the recovery window
        try:
            self.reviver.recover(
                self.durable,
                failed_das=[int(d) for d in self.chip.failed.nonzero()[0]],
                pas_of_page=self.ospool.pas_of_page)
            # Complete any interrupted metadata update (redo writes emitted
            # by the scan) and any switches the rebuilt chains still owe.
            self._drain_metadata()
        finally:
            self.inject = hooks
            self.chip.inject = chip_hooks  # repro: allow(FAULT-HOOK): reattaching the hooks detached above; the campaign resumes after reboot
        self.check_invariants()

    # -------------------------------------------------------------- checking

    def check_invariants(self) -> None:
        """Run the Theorem 1-3 checkers (skipped while parked writes wait)."""
        if self.reviver.acquisition_pending:
            return
        checker = self.reviver.make_checker(
            software_pas=self._software_pas,
            failed_blocks=lambda: [int(d) for d in
                                   self.chip.failed.nonzero()[0]],
            map_many_fn=self.wl.map_many,
            failed_mask_fn=lambda: self.chip.failed)
        checker.check_all()

    def _software_pas(self) -> List[int]:
        return [int(pa) for pa in self.ospool.usable_pas()]

    def _run_wear_leveling(self, pa: Optional[int] = None) -> None:
        super()._run_wear_leveling(pa=pa)
        self._loop_reads.clear()
        if self.reviver_config.check_invariants:
            self.check_invariants()


class FreePController(BaseController):
    """Wear-leveling + adapted FREE-p with a pre-reserved remap region.

    The wear-leveler must be constructed over ``region.working_blocks``
    device blocks; slot DAs above that never participate in leveling, which
    is exactly why the original FREE-p's direct DA pointers stay valid here.
    A region with no slots is exhausted from the start: every failure
    freezes the wear-leveler and retires a page (wear-leveling alone).
    """

    def __init__(self, chip: PCMChip, wl: WearLeveler, ospool: PagePool,
                 region: FreePRegion,
                 cache: Optional[RemapCache] = None,
                 copy_on_retire: bool = False,
                 read_retry_limit: int = READ_RETRY_LIMIT) -> None:
        super().__init__(chip, wl, ospool, cache=cache,
                         copy_on_retire=copy_on_retire,
                         read_retry_limit=read_retry_limit)
        if wl.device_blocks != region.working_blocks:
            raise ProtocolError(
                "wear-leveler must cover exactly the non-reserved space")
        self.region = region

    def _resolve_counted(self, da: int, parked: Container[int] = ()
                         ) -> Tuple[Optional[int], int, bool, Optional[int]]:
        if not self.chip.is_failed(da):
            return da, 1, False, None
        if self.cache is not None:
            slot = self.cache.get(da)
            if slot is not None:
                return slot, 1, True, None
        slot = self.region.resolve(da)
        if slot == da:
            return None, 1, False, None  # exposed failure: no slot behind it
        if self.cache is not None:
            self.cache.put(da, slot)
        return slot, 2, True, None  # pointer read + slot access

    def _read_through(self, da: int) -> int:
        return self._read_block(self.region.resolve(da))

    def _migration_resolve(self, pa: int) -> Optional[int]:
        da = self.wl.map(pa)
        if not self.chip.is_failed(da):
            return da
        slot = self.region.resolve(da)
        return None if slot == da else slot

    def _link_slot(self, failed_da: int) -> None:
        """Hide *failed_da* behind a fresh slot; fix stale cache entries."""
        origin = self.region.serving(failed_da)
        self.region.link(failed_da)
        if self.cache is not None:
            self.cache.invalidate(failed_da)
            if origin is not None:
                # failed_da was itself a slot: the origin's remap moved.
                self.cache.invalidate(origin)

    def _handle_software_fault(self, failed_da: Optional[int], pa: int,
                               new_failure: bool) -> None:
        if new_failure and failed_da is not None and not self.region.exhausted:
            self._link_slot(failed_da)
            return
        if not self.wl.frozen:
            self.wl.freeze()
        self._retire_page_for(pa, victimized=False)

    def _handle_migration_fault(self, failed_da: int, pa: int) -> str:
        if not self.region.exhausted:
            self._link_slot(failed_da)
            return "retry"
        if not self.wl.frozen:
            self.wl.freeze()
        return "drop"

"""The WL-Reviver orchestrator.

:class:`WLReviver` ties together the spare pool, page ledger, link table,
chain resolver, and retired-page bitmap, and implements the framework
protocol of Section III:

* **first failure / spare exhaustion on a software write** — report the
  access to the OS as failed; the retired page's PAs are claimed (shadow
  section into the spare pool, pointer section registered) and the failed
  block is linked;
* **subsequent failures** — hidden with spares, no OS interaction;
* **failure during migration with no spares** — *suspend*: the framework
  remembers that space is owed and the next software write is victimized
  (reported to the OS as failed even though it succeeded); the OS retires
  that page and retries the write elsewhere, migration then resumes;
* **linking** — a failed block is linked to a virtual shadow PA; the
  special case where the PA currently mapping onto the failed block is
  itself an unlinked spare immediately forms a PA-DA loop (the "data"
  migrated into the block belongs to a reserved PA and is garbage);
* **chain reduction** — after every link and every mapping change, chains
  are flattened back to one step (see :mod:`repro.reviver.chains`).

The class is engine-agnostic: it sees the wear-leveler only as a pair of
``map``/``inverse`` callables and never touches the chip; the memory
controller drains :class:`~repro.reviver.links.MetadataWrite` records and
performs the physical metadata writes itself.
"""

from __future__ import annotations

import enum
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Sequence, Set)

import numpy as np

from ..config import ReviverConfig
from ..errors import ProtocolError
from ..osmodel.faults import FaultReporter
from .bitmap import RetiredPageBitmap
from .chains import ChainResolver
from .invariants import InvariantChecker
from .links import LinkTable
from .pages import AcquiredPage, PageLedger
from .persist import DurableMetadata
from .registers import SparePool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.session import TelemetrySession


class FaultContext(enum.Enum):
    """Where a write fault was detected."""

    #: A software-issued write (the OS can be interrupted immediately).
    SOFTWARE = "software"
    #: A wear-leveling migration write (OS must not be interrupted; suspend).
    MIGRATION = "migration"
    #: A framework metadata write (treated like migration).
    INTERNAL = "internal"


class WLReviver:
    """Framework state machine reviving a wear-leveling scheme."""

    def __init__(self, config: ReviverConfig, reporter: FaultReporter,
                 map_fn: Callable[[int], int],
                 inverse_fn: Callable[[int], Optional[int]],
                 is_failed: Callable[[int], bool],
                 blocks_per_page: int, block_bytes: int,
                 num_pages: int) -> None:
        self.config = config
        self.reporter = reporter
        self.map_fn = map_fn
        self.inverse_fn = inverse_fn
        self.is_failed = is_failed
        self.spares = SparePool()
        self.ledger = PageLedger(config, blocks_per_page, block_bytes)
        self.links = LinkTable(self.ledger)
        self.resolver = ChainResolver(self.links, map_fn, is_failed)
        self.bitmap = RetiredPageBitmap(num_pages,
                                        replicas=config.bitmap_replicas)
        #: True while a suspended migration waits for the next software
        #: write to be victimized for page acquisition.
        self.acquisition_pending = False
        #: Blocks that failed while no spare was available; linked as soon
        #: as the victimized acquisition delivers a page.
        self._unlinked_failures: List[int] = []
        #: Failures hidden without interrupting the OS (reporting).
        self.hidden_failures = 0
        #: Chain switches attributed to the two Section III-B scenarios:
        #: a worn-out shadow behind a software write (Figure 2(d)) versus
        #: a wear-leveling migration remapping onto a failed block
        #: (Figure 3(b)).  Recovery re-reductions are counted separately.
        self.switch_scenarios: Dict[str, int] = {
            "shadow-failed": 0, "migration-remap": 0}
        #: Crash recoveries performed (:meth:`recover`).
        self.recoveries = 0
        #: Metadata records re-emitted by recovery to complete torn updates
        #: (bounded by the writes in flight at the crash; recovered links
        #: themselves never need rewriting — the paper's reboot claim).
        self.recovery_redo_writes = 0
        #: Optional controller hook run after the OS retires a page but
        #: before its PAs become spares: the OS must copy the page's data
        #: to its new frame while the old blocks are still untouched.
        self.page_copier: Optional[Callable[[], None]] = None
        #: Telemetry hook; attach via repro.telemetry only.
        self.telem: Optional["TelemetrySession"] = None

    # ---------------------------------------------------------------- queries

    def is_reserved_pa(self, pa: int) -> bool:
        """Whether *pa* belongs to the framework's reserved virtual space."""
        return (pa in self.spares or self.links.is_linked_vpa(pa)
                or self.ledger.is_shadow_slot(pa))

    # -------------------------------------------------------------- acquiring

    def acquire_page(self, victim_pa: int, at_write: int,
                     victimized: bool) -> AcquiredPage:
        """Report *victim_pa* to the OS and claim the retired page.

        Ordering is load-bearing: the OS copies the retired page's data to
        its new frame (``page_copier``) *before* the PAs become spares, so
        no link or chain switch can repurpose a block that still holds the
        page's software data.
        """
        was_pending = self.acquisition_pending
        pas = self.reporter.report(victim_pa, at_write, victimized=victimized)
        event = self.reporter.last_event()
        assert event is not None
        if self.page_copier is not None:
            self.page_copier()
        self.bitmap.mark_retired(event.page_id)
        page = self.ledger.claim(event.page_id, pas)
        self.spares.add(page.shadow_pas)
        # Blocks that failed during the drought can be linked now.
        while self._unlinked_failures and self.spares.available:
            self._link(self._unlinked_failures.pop(0))
        if not self._unlinked_failures:
            # Any acquisition satisfies an outstanding suspension, whether
            # it came from a victimized write or a genuine failure report.
            self.acquisition_pending = False
            if was_pending and self.telem is not None:
                self.telem.emit("migration-resume", page=event.page_id,
                                at_write=at_write)
        return page

    # ----------------------------------------------------------- fault events

    def handle_new_failure(self, da: int, context: FaultContext,
                           victim_pa: Optional[int] = None,
                           at_write: int = 0) -> bool:
        """Link newly failed block *da*; returns False when suspended.

        The chip has already marked *da* failed.  On success the block ends
        linked (possibly on a PA-DA loop) and all affected chains are back
        to one step.  ``False`` means no spare was available and the context
        forbids interrupting the OS: the caller must suspend the operation
        and victimize the next software write.
        """
        if self.links.vpa_of(da) is not None:
            raise ProtocolError(f"block {da} failed twice")
        if da in self._unlinked_failures:
            return False  # already queued for the in-flight acquisition
        if self.spares.available == 0:
            if context is FaultContext.SOFTWARE:
                if victim_pa is None:
                    raise ProtocolError("software fault requires the victim PA")
                self.acquire_page(victim_pa, at_write, victimized=False)
            else:
                if not self.acquisition_pending and self.telem is not None:
                    self.telem.emit("migration-suspend", da=da,
                                    context=context.value, at_write=at_write)
                self.acquisition_pending = True
                self._unlinked_failures.append(da)
                return False
        else:
            self.hidden_failures += 1
        self._link(da)
        return True

    def _link(self, da: int) -> None:
        """Link *da* to a spare and restore the one-step property."""
        switches_before = self.resolver.switches
        mapped_by = self.inverse_fn(da)
        if mapped_by is not None and mapped_by in self.spares:
            # The PA owning the data "stored" in da is an unlinked spare:
            # its content is garbage, so the pair can be retired together
            # as a PA-DA loop without consuming a healthy shadow.
            vpa = self.spares.take_specific(mapped_by)
            self.links.link(da, vpa)
        else:
            vpa = self.spares.take()
            self.links.link(da, vpa)
            self.resolver.reduce(da)
        if mapped_by is not None and self.links.is_linked_vpa(mapped_by):
            upstream = self.links.failed_of(mapped_by)
            if upstream is not None and upstream != da:
                # A chain ran through da before it failed; flatten it.
                self.resolver.reduce(upstream)
        self.switch_scenarios["shadow-failed"] += (
            self.resolver.switches - switches_before)

    # --------------------------------------------------------- mapping events

    def on_mapping_changed(self, pas: List[int]) -> None:
        """Re-flatten chains after the wear-leveler remapped *pas*."""
        switches_before = self.resolver.switches
        for pa in pas:
            if self.links.is_linked_vpa(pa):
                owner = self.links.failed_of(pa)
                if owner is not None:
                    self.resolver.reduce(owner)
        self.switch_scenarios["migration-remap"] += (
            self.resolver.switches - switches_before)

    # --------------------------------------------------------------- recovery

    def recover(self, durable: DurableMetadata, failed_das: Iterable[int],
                pas_of_page: Callable[[int], Sequence[int]]) -> None:
        """Rebuild the volatile link table and registers after a crash.

        Everything volatile is discarded and re-derived from what is
        durable in the PCM: the retired-page bitmap (which pages are
        ours), the inverse-pointer cells in each page's pointer section
        (the authoritative link direction the paper's reboot scan reads),
        the pointer cells in the failed blocks, and the chip's failure
        flags.  Reconciliation handles the one metadata operation that can
        be torn mid-flight:

        1. an inverse cell agreeing with its pointer cell is a clean link
           — restored without any write;
        2. an inverse cell whose pointer cell disagrees (a switch torn
           after rewriting the pointers) is restored from the inverse —
           the authority — and the stale pointer cell is redone;
        3. a pointer cell naming a shadow slot no inverse claims (a link
           torn before its inverse write) is completed by redoing that
           inverse write;
        4. unclaimed shadow slots refill the spare registers; failed
           blocks left unlinked re-enter :meth:`handle_new_failure` as
           in-flight failures; finally every chain is reduced back to one
           step, re-performing any switch the crash interrupted.

        Register order is re-derived in ascending page order — equivalent
        to the paper's two-register bounds, though not necessarily the
        pre-crash FIFO order.  Cumulative statistics (switches, hidden
        failures, reports) survive; they describe the chip's life, not the
        controller's uptime.
        """
        switches = self.resolver.switches
        self.spares = SparePool()
        self.ledger = PageLedger(self.config, self.ledger.blocks_per_page,
                                 self.ledger.block_bytes)
        self.links = LinkTable(self.ledger, telem=self.telem)
        self.resolver = ChainResolver(self.links, self.map_fn, self.is_failed)
        self.resolver.switches = switches
        self.acquisition_pending = False
        self._unlinked_failures = []
        shadow_slots: List[int] = []
        for page_id in self.bitmap.retired_pages():
            page = self.ledger.claim(page_id, list(pas_of_page(page_id)))
            shadow_slots.extend(page.shadow_pas)
        failed = set(failed_das)
        linked: Set[int] = set()
        used: Set[int] = set()
        redo = 0
        # Pass 1: agreeing pairs — the common case (no write in flight).
        for vpa in shadow_slots:
            da = durable.inverse_cells.get(vpa)
            if (da is not None and da in failed and da not in linked
                    and durable.pointer_cells.get(da) == vpa):
                self.links.restore(da, vpa)
                linked.add(da)
                used.add(vpa)
        # Pass 2: the inverse pointer is the authority; a disagreeing
        # pointer cell was torn mid-switch and is redone.
        for vpa in shadow_slots:
            if vpa in used:
                continue
            da = durable.inverse_cells.get(vpa)
            if da is None or da not in failed or da in linked:
                continue
            self.links.restore(da, vpa, redo_pointer=True)
            linked.add(da)
            used.add(vpa)
            redo += 1
        # Pass 3: a pointer cell naming an unclaimed shadow slot is a link
        # whose inverse write never landed; complete it.
        slot_set = set(shadow_slots)
        for da in sorted(failed - linked):
            vpa = durable.pointer_cells.get(da)
            if vpa is None or vpa in used or vpa not in slot_set:
                continue
            self.links.restore(da, vpa, redo_inverse=True)
            linked.add(da)
            used.add(vpa)
            redo += 1
        self.spares.add(pa for pa in shadow_slots if pa not in used)
        self.spares.total_acquired = len(shadow_slots)
        self.spares.total_consumed = len(used)
        # Failed blocks with no durable link were in flight at the crash;
        # they re-enter the normal failure path (and may re-suspend).
        for da in sorted(failed - linked):
            self.handle_new_failure(da, FaultContext.INTERNAL)
        # Re-flatten every chain; this re-performs interrupted switches.
        for da in self.links.linked_blocks():
            self.resolver.reduce(da)
        self.recoveries += 1
        self.recovery_redo_writes += redo

    # ------------------------------------------------------------- reporting

    def make_checker(self, software_pas: Callable[[], List[int]],
                     failed_blocks: Callable[[], List[int]],
                     map_many_fn: Optional[
                         Callable[[np.ndarray], np.ndarray]] = None,
                     failed_mask_fn: Optional[
                         Callable[[], np.ndarray]] = None) -> InvariantChecker:
        """Build an invariant checker over this reviver's live state.

        Passing ``map_many_fn`` + ``failed_mask_fn`` selects the checker's
        vectorized sweeps (identical errors, numpy speed).
        """
        return InvariantChecker(self.links, self.spares, self.map_fn,
                                self.is_failed, software_pas, failed_blocks,
                                map_many_fn=map_many_fn,
                                failed_mask_fn=failed_mask_fn)

    def stats(self) -> dict:
        """Counters for experiment reports."""
        return {
            "pages_acquired": self.ledger.pages_acquired,
            "spares_available": self.spares.available,
            "linked_blocks": len(self.links),
            "chain_switches": self.resolver.switches,
            "switch_scenarios": dict(self.switch_scenarios),
            "hidden_failures": self.hidden_failures,
            "os_reports": self.reporter.report_count,
            "victimized_writes": self.reporter.victimized_count,
            "recoveries": self.recoveries,
            "recovery_redo_writes": self.recovery_redo_writes,
        }

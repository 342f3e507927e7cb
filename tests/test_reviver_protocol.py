"""Protocol tests for the WLReviver orchestrator against a toy world."""

import pytest

from repro.config import ReviverConfig
from repro.errors import ProtocolError
from repro.osmodel import FaultReporter, PagePool
from repro.reviver import FaultContext, WLReviver


class Harness:
    """Minimal mapping + failure world around a WLReviver instance."""

    def __init__(self, blocks: int = 64, bpp: int = 8) -> None:
        self.mapping = {pa: pa for pa in range(blocks - 1)}
        self.failed = set()
        self.pool = PagePool(blocks - 1, blocks_per_page=bpp, seed=1)
        self.reporter = FaultReporter(self.pool)
        self.reviver = WLReviver(
            ReviverConfig(), self.reporter,
            map_fn=lambda pa: self.mapping[pa],
            inverse_fn=self.inverse,
            is_failed=lambda da: da in self.failed,
            blocks_per_page=bpp, block_bytes=64,
            num_pages=self.pool.num_pages)

    def inverse(self, da):
        for pa, mapped in self.mapping.items():
            if mapped == da:
                return pa
        return None

    def fail(self, da, context=FaultContext.SOFTWARE, victim_pa=None):
        self.failed.add(da)
        return self.reviver.handle_new_failure(
            da, context, victim_pa=victim_pa, at_write=0)


class TestFirstFailure:
    def test_first_software_failure_acquires_page(self):
        harness = Harness()
        assert harness.fail(10, victim_pa=10)
        assert harness.reviver.ledger.pages_acquired == 1
        assert harness.reporter.report_count == 1
        # The page of PA 10 (page 1: PAs 8..15) was retired.
        assert not harness.pool.is_usable(1)
        # 7 shadow slots acquired, one consumed by the link.
        assert harness.reviver.spares.available == 6
        assert harness.reviver.links.vpa_of(10) is not None

    def test_subsequent_failures_hidden(self):
        harness = Harness()
        harness.fail(10, victim_pa=10)
        for da in (20, 21, 22):
            assert harness.fail(da, victim_pa=da)
        assert harness.reporter.report_count == 1  # still only one report
        assert harness.reviver.hidden_failures == 3

    def test_page_acquired_again_when_spares_exhausted(self):
        harness = Harness()
        harness.fail(10, victim_pa=10)
        for da in range(20, 27):  # consume the remaining 6 spares + 1 more
            harness.fail(da, victim_pa=da)
        assert harness.reporter.report_count == 2
        assert harness.reviver.ledger.pages_acquired == 2


class TestMigrationSuspension:
    def test_migration_failure_without_spares_suspends(self):
        harness = Harness()
        assert not harness.fail(10, context=FaultContext.MIGRATION)
        assert harness.reviver.acquisition_pending
        assert harness.reviver.links.vpa_of(10) is None

    def test_repeat_fault_on_queued_block_stays_suspended(self):
        harness = Harness()
        harness.fail(10, context=FaultContext.MIGRATION)
        assert not harness.reviver.handle_new_failure(
            10, FaultContext.MIGRATION, at_write=1)

    def test_victimized_acquisition_links_queued_block(self):
        harness = Harness()
        harness.fail(10, context=FaultContext.MIGRATION)
        harness.reviver.acquire_page(victim_pa=30, at_write=5,
                                     victimized=True)
        assert not harness.reviver.acquisition_pending
        assert harness.reviver.links.vpa_of(10) is not None
        event = harness.reporter.last_event()
        assert event.victimized

    def test_double_failure_raises(self):
        harness = Harness()
        harness.fail(10, victim_pa=10)
        with pytest.raises(ProtocolError):
            harness.reviver.handle_new_failure(10, FaultContext.SOFTWARE,
                                               victim_pa=10)

    def test_software_fault_requires_victim(self):
        harness = Harness()
        harness.failed.add(10)
        with pytest.raises(ProtocolError):
            harness.reviver.handle_new_failure(10, FaultContext.SOFTWARE)


class TestLinking:
    def test_loop_formed_when_mapper_is_spare(self):
        """A failed block whose owning PA is an unlinked spare retires as
        a PA-DA loop without consuming a healthy shadow."""
        harness = Harness()
        harness.fail(10, victim_pa=10)
        # Find a spare PA and fail the block it maps onto.
        spare = harness.reviver.spares.peek_all()[0]
        target = harness.mapping[spare]
        spares_before = harness.reviver.spares.available
        harness.fail(target, context=FaultContext.MIGRATION)
        assert harness.reviver.links.vpa_of(target) == spare
        assert harness.reviver.resolver.walk(target)[2] == "loop"
        # Exactly the specific spare was consumed.
        assert harness.reviver.spares.available == spares_before - 1

    def test_resolution_after_mapping_change(self):
        """Moving the shadow via the mapping updates resolution for free."""
        harness = Harness()
        harness.fail(10, victim_pa=10)
        vpa = harness.reviver.links.vpa_of(10)
        old_shadow = harness.mapping[vpa]
        harness.mapping[vpa] = 50  # wear-leveling moved the shadow
        assert harness.reviver.resolver.walk(10)[:3] == (50, 1, "healthy")
        assert old_shadow != 50

    def test_on_mapping_changed_reduces_new_chain(self):
        """A migration landing a linked VPA on a failed block triggers the
        Figure 3 switch."""
        harness = Harness()
        harness.fail(10, victim_pa=10)
        harness.fail(20, victim_pa=20)
        vpa10 = harness.reviver.links.vpa_of(10)
        # The wear-leveler remaps vpa10 onto failed block 20.
        harness.mapping[vpa10] = 20
        harness.reviver.on_mapping_changed([vpa10])
        _, hops, outcome, _ = harness.reviver.resolver.walk(10)
        assert (hops, outcome) == (1, "healthy")
        assert not harness.reviver.is_reserved_pa(0)

    def test_is_reserved_pa(self):
        harness = Harness()
        harness.fail(10, victim_pa=10)
        vpa = harness.reviver.links.vpa_of(10)
        spare = harness.reviver.spares.peek_all()[0]
        pointer_pa = harness.reviver.ledger.pages[0].pointer_pas[0]
        assert harness.reviver.is_reserved_pa(vpa)
        assert harness.reviver.is_reserved_pa(spare)
        assert not harness.reviver.is_reserved_pa(pointer_pa) or \
            harness.reviver.ledger.is_shadow_slot(pointer_pa) is False

    def test_stats_keys(self):
        harness = Harness()
        harness.fail(10, victim_pa=10)
        stats = harness.reviver.stats()
        assert stats["pages_acquired"] == 1
        assert stats["linked_blocks"] == 1
        assert stats["os_reports"] == 1

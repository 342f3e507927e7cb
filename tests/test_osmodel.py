"""Unit tests for the OS model: page pool, retirement, fault reporting."""

import numpy as np
import pytest

from repro.errors import AddressError, CapacityExhaustedError, ProtocolError
from repro.osmodel import FaultReporter, PagePool, PageStatus


def make_pool(blocks: int = 256, bpp: int = 8, utilization: float = 1.0,
              seed: int = 5) -> PagePool:
    return PagePool(blocks, blocks_per_page=bpp, utilization=utilization,
                    seed=seed)


class TestTranslation:
    def test_identity_at_boot(self):
        pool = make_pool()
        for vblock in (0, 7, 8, 100, 255):
            assert pool.translate(vblock) == vblock

    def test_translate_many_matches_scalar(self):
        pool = make_pool()
        vblocks = np.arange(pool.virtual_blocks)
        vector = pool.translate_many(vblocks)
        assert all(vector[v] == pool.translate(int(v)) for v in vblocks)

    def test_out_of_range_rejected(self):
        pool = make_pool(utilization=0.5)
        with pytest.raises(AddressError):
            pool.translate(pool.virtual_blocks)

    def test_utilization_shrinks_virtual_space(self):
        pool = make_pool(utilization=0.5)
        assert pool.num_virtual_pages == 16
        assert pool.virtual_blocks == 128

    def test_partial_tail_excluded(self):
        pool = PagePool(127, blocks_per_page=8)
        assert pool.num_pages == 15
        assert not pool.pa_in_software_space(120)
        assert pool.pa_in_software_space(119)


class TestRetirement:
    def test_retire_returns_page_pas(self):
        pool = make_pool()
        pas = pool.retire(3)
        assert pas == list(range(24, 32))
        assert not pool.is_usable(3)
        assert pool.retired_pages == 1

    def test_retire_twice_rejected(self):
        pool = make_pool()
        pool.retire(3)
        with pytest.raises(AddressError):
            pool.retire(3)

    def test_vpage_moves_to_free_frame_first(self):
        pool = make_pool(utilization=0.5, seed=5)
        pool.retire(3)
        (vpage, old_phys, new_phys, shared) = pool.last_moves[0]
        assert vpage == 3 and old_phys == 3
        assert new_phys >= 16  # a free frame beyond the working set
        assert not shared
        assert pool.translate(24) == new_phys * 8

    def test_sharing_when_no_free_frames(self):
        pool = make_pool(utilization=1.0, seed=5)
        pool.retire(3)
        (vpage, _, new_phys, shared) = pool.last_moves[0]
        assert shared
        assert vpage in pool.pages[new_phys].virtual_pages

    def test_usable_fraction_decreases(self):
        pool = make_pool()
        assert pool.usable_fraction() == 1.0
        pool.retire(0)
        assert pool.usable_fraction() == pytest.approx(31 / 32)

    def test_exhaustion_raises(self):
        pool = make_pool(blocks=16, bpp=8)  # 2 pages
        pool.retire(0)
        with pytest.raises(CapacityExhaustedError):
            pool.retire(1)


class TestFaultReporter:
    def test_report_retires_and_logs(self):
        pool = make_pool()
        reporter = FaultReporter(pool)
        pas = reporter.report(pa=25, at_write=10)
        assert pas == list(range(24, 32))
        assert pool.pages[3].status is PageStatus.RETIRED
        event = reporter.last_event()
        assert event.page_id == 3
        assert event.pa == 25
        assert event.at_write == 10
        assert not event.victimized

    def test_victimized_flag_recorded(self):
        pool = make_pool()
        reporter = FaultReporter(pool)
        reporter.report(pa=25, at_write=10, victimized=True)
        assert reporter.victimized_count == 1
        assert reporter.report_count == 1

    def test_empty_log(self):
        reporter = FaultReporter(make_pool())
        assert reporter.last_event() is None
        assert reporter.report_count == 0

    def test_report_on_already_retired_page_is_protocol_error(self):
        pool = make_pool()
        reporter = FaultReporter(pool)
        reporter.report(pa=25, at_write=10)
        # The OS never accesses a retired page again; a second report
        # against it is a device-side bug, not an OS event.
        with pytest.raises(ProtocolError):
            reporter.report(pa=26, at_write=11)
        assert reporter.report_count == 1

    def test_report_out_of_range_pa_is_address_error(self):
        pool = make_pool(blocks=256, utilization=0.5)
        reporter = FaultReporter(pool)
        for pa in (-1, pool.usable_blocks + pool.retired_blocks + 10_000):
            with pytest.raises(AddressError):
                reporter.report(pa=pa, at_write=10)
        assert reporter.report_count == 0

    def test_failed_report_leaves_pool_and_log_untouched(self):
        pool = make_pool()
        reporter = FaultReporter(pool)
        reporter.report(pa=25, at_write=10, victimized=True)
        usable_before = pool.usable_blocks
        with pytest.raises(ProtocolError):
            reporter.report(pa=25, at_write=11, victimized=True)
        with pytest.raises(AddressError):
            reporter.report(pa=100_000, at_write=12, victimized=True)
        # No phantom retirement, no phantom event: victimization accounting
        # only counts reports the OS actually acted on.
        assert pool.usable_blocks == usable_before
        assert reporter.report_count == 1
        assert reporter.victimized_count == 1
        assert reporter.last_event().at_write == 10

    def test_record_write_statistics(self):
        pool = make_pool()
        pool.record_write(25)
        pool.record_write(26)
        assert pool.pages[3].writes == 2

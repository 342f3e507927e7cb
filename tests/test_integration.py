"""End-to-end integration and theorem property tests.

These drive complete systems (chip + ECC + wear-leveler + OS + WL-Reviver)
through their whole life under randomized workloads, asserting the paper's
three theorems and full data integrity at every stage — the strongest
correctness evidence in the suite.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ReviverConfig, SecurityRefreshConfig
from repro.errors import CapacityExhaustedError
from repro.mc import ReviverController
from repro.osmodel import PagePool
from repro.reviver import RetiredPageBitmap
from repro.wl import SecurityRefresh

from .conftest import (
    assert_data_consistent,
    drive_random_writes,
    make_chip,
    make_reviver_system,
)


def make_secref_system(num_blocks: int = 128, mean: float = 400.0,
                       seed: int = 11):
    chip = make_chip(num_blocks=num_blocks, mean=mean, seed=seed)
    wear_leveler = SecurityRefresh(
        num_blocks, config=SecurityRefreshConfig(refresh_interval=50))
    ospool = PagePool(wear_leveler.logical_blocks, blocks_per_page=8,
                      utilization=0.8, seed=5)
    controller = ReviverController(
        chip, wear_leveler, ospool,
        reviver_config=ReviverConfig(check_invariants=True),
        copy_on_retire=True)
    return controller, chip


class TestSecurityRefreshRevival:
    """The framework claim: *any* scheme works unmodified."""

    # Chip seeds 2, 4, 13, 15, 24, 27, 28 and 30 each once lost data when
    # a refresh swapped a PA-DA loop's block under a live PA: the loop's
    # garbage overwrote the live datum (a read returned EMPTY_TAG), or two
    # swapped loops formed a 2-cycle the chain walk could not leave.
    @pytest.mark.parametrize("seed", [11, 2, 4, 13, 15, 24, 27, 28, 30])
    def test_secref_data_survives_heavy_failure(self, seed):
        controller, chip = make_secref_system(mean=300, seed=seed)
        rng = random.Random(5)
        expected = {}
        space = controller.ospool.virtual_blocks
        try:
            step = 0
            while chip.failed_fraction() < 0.35 and step < 40_000:
                vblock = rng.randrange(space)
                controller.service_write(vblock, tag=step)
                expected[vblock] = step
                step += 1
        except CapacityExhaustedError:
            pass
        assert chip.failed_fraction() > 0.1
        assert_data_consistent(controller, expected)

    def test_secref_failures_hidden_from_scheme(self):
        controller, chip = make_secref_system(mean=300)
        drive_random_writes(controller, 15_000)
        assert chip.failed_count > 0
        assert not controller.wl.frozen  # the scheme never noticed


class TestTheoremsUnderRandomTraffic:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_theorems_hold_at_random_checkpoints(self, seed):
        """Property: Theorems 1-3 hold after any prefix of any workload."""
        controller, chip, _, _ = make_reviver_system(
            mean=250, seed=11, check_invariants=False)
        rng = random.Random(seed)
        space = controller.ospool.virtual_blocks
        checkpoint = rng.randrange(500, 6_000)
        try:
            for step in range(checkpoint):
                controller.service_write(rng.randrange(space), tag=step)
        except CapacityExhaustedError:
            return
        controller.check_invariants()

    def test_loops_never_receive_software_traffic(self):
        """Theorem 3's consequence, observed rather than assumed."""
        controller, chip, wear_leveler, _ = make_reviver_system(mean=250)
        drive_random_writes(controller, 8_000)
        links = controller.reviver.links
        loops = [da for da in links.linked_blocks()
                 if wear_leveler.map(links.vpa_of(da)) == da]
        for da in loops:
            mapper = wear_leveler.inverse(da)
            # The only PA mapping onto a loop block is its own VPA,
            # which software cannot address.
            assert mapper == links.vpa_of(da)
            assert controller.reviver.is_reserved_pa(mapper)


class TestRebootPath:
    def test_bitmap_restores_retired_pages(self):
        controller, chip, _, ospool = make_reviver_system(mean=200)
        drive_random_writes(controller, 10_000)
        bitmap = controller.reviver.bitmap
        if bitmap.retired_count == 0:
            pytest.skip("no page was acquired in this run")
        restored = RetiredPageBitmap.from_bytes(bitmap.to_bytes(),
                                                bitmap.num_pages)
        assert restored.retired_pages() == bitmap.retired_pages()
        # The restored set matches the OS's view of retired pages.
        os_retired = [p.page_id for p in ospool.pages if not p.is_usable]
        assert restored.retired_pages() == sorted(os_retired)


class TestCrossSchemeEquivalence:
    def test_reviver_stats_comparable_across_schemes(self):
        """Start-Gap and Security Refresh systems hide failures with the
        same machinery: roughly one OS report per shadow-section of
        failures, independent of the scheme."""
        results = {}
        for name, maker in (("startgap",
                             lambda: make_reviver_system(mean=300)[0]),
                            ("secref",
                             lambda: make_secref_system(mean=300)[0])):
            controller = maker()
            drive_random_writes(controller, 15_000)
            stats = controller.reviver.stats()
            if stats["os_reports"]:
                ratio = (stats["linked_blocks"] / stats["os_reports"])
                results[name] = ratio
        for name, ratio in results.items():
            # <= slots-per-page (7 with the test page size), > 0.
            assert 0 < ratio <= 7.5, (name, ratio)

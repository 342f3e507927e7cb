"""Integration tests for the ReviverController (exact path)."""

import random

import pytest

from repro.errors import CapacityExhaustedError

from .conftest import (
    assert_data_consistent,
    drive_random_writes,
    make_reviver_system,
)


class TestHappyPath:
    def test_write_read_round_trip(self, reviver_system):
        controller, *_ = reviver_system
        controller.service_write(5, tag=123)
        assert controller.service_read(5).tag == 123

    def test_access_costs_one_when_healthy(self, reviver_system):
        controller, *_ = reviver_system
        result = controller.service_write(5, tag=1)
        assert result.pcm_accesses == 1
        assert not result.redirected

    def test_wear_leveling_runs(self, reviver_system):
        controller, _, wear_leveler, _ = reviver_system
        for _ in range(wear_leveler.psi * 3):
            controller.service_write(0, tag=1)
        assert wear_leveler.gap_moves == 3

    def test_migrated_data_still_reads_back(self, reviver_system):
        controller, _, wear_leveler, ospool = reviver_system
        expected = {}
        for vblock in range(ospool.virtual_blocks):
            controller.service_write(vblock, tag=5000 + vblock)
            expected[vblock] = 5000 + vblock
        # Push several full rotations of migrations.
        for step in range(4000):
            controller.service_write(step % 7, tag=9000 + step)
            expected[step % 7] = 9000 + step
        assert wear_leveler.gap_moves > 0
        assert_data_consistent(controller, expected)


class TestFailureHandling:
    def test_first_failure_reports_and_hides(self):
        controller, chip, _, _ = make_reviver_system(mean=120)
        expected = drive_random_writes(controller, 4000)
        assert chip.failed_count > 0
        assert controller.reporter.report_count >= 1
        # Failures beyond the page's spare supply are hidden.
        stats = controller.reviver.stats()
        assert stats["hidden_failures"] >= stats["os_reports"]
        assert_data_consistent(controller, expected)

    def test_redirected_access_costs_two_without_cache(self):
        controller, chip, wear_leveler, _ = make_reviver_system(mean=120)
        # Stop well before end of life: by 4000 writes every page has been
        # retired and every vblock is lost.
        expected = drive_random_writes(controller, 2000)
        links = controller.reviver.links
        # A live vblock whose DA is failed and linked, one step from a
        # healthy shadow: pointer read + shadow access.
        candidates = []
        for vblock, tag in sorted(expected.items()):
            if vblock in controller.lost_vblocks:
                continue
            da = wear_leveler.map(controller.ospool.translate(vblock))
            vpa = links.vpa_of(da) if chip.is_failed(da) else None
            if vpa is not None and not chip.is_failed(wear_leveler.map(vpa)):
                candidates.append((vblock, tag, wear_leveler.map(vpa)))
        assert candidates, "no live vblock sits behind a one-step chain"
        vblock, tag, shadow = candidates[0]
        result = controller.service_read(vblock)
        assert result.redirected
        assert result.pcm_accesses == 2
        assert result.da == shadow
        assert result.tag == tag

    def test_cache_collapses_redirection_cost(self):
        controller, chip, wear_leveler, _ = make_reviver_system(
            mean=120, cache=True)
        drive_random_writes(controller, 5000)
        if not controller.stats.redirected:
            pytest.skip("no redirections occurred")
        assert controller.cache.hit_rate > 0.3
        assert controller.stats.avg_access_time < 1.5

    def test_victimized_write_reports_healthy_page(self):
        """Run long enough for a migration-detected failure with dry spares;
        the next software write is reported to the OS though it succeeded."""
        controller, chip, _, _ = make_reviver_system(mean=200, seed=13)
        try:
            drive_random_writes(controller, 30_000, seed=3)
        except CapacityExhaustedError:
            pass
        assert controller.reporter.report_count >= 1
        # Not asserting victimized >= 1: it depends on timing; but when it
        # happened it must be flagged in the event log coherently.
        assert (controller.reporter.victimized_count
                == sum(1 for e in controller.reporter.events if e.victimized))

    def test_invariants_hold_throughout(self):
        controller, chip, _, _ = make_reviver_system(mean=150)
        # Invariants are checked after every write by the controller
        # (check_invariants=True); any violation raises mid-drive.
        drive_random_writes(controller, 6000)
        if controller.ospool.usable_pages > 1:
            controller.check_invariants()
        assert chip.failed_count > 0

    def test_consistency_to_heavy_failure(self):
        """The flagship soak test: 40% of the chip dies; data survives."""
        controller, chip, _, _ = make_reviver_system(mean=150, cache=True)
        rng = random.Random(99)
        expected = {}
        space = controller.ospool.virtual_blocks
        try:
            step = 0
            while chip.failed_fraction() < 0.4 and step < 60_000:
                vblock = rng.randrange(space)
                controller.service_write(vblock, tag=step)
                expected[vblock] = step
                step += 1
        except CapacityExhaustedError:
            pass
        assert chip.failed_fraction() > 0.1
        assert_data_consistent(controller, expected)
        assert controller.reviver.resolver.switches >= 0


class TestMetrics:
    def test_usable_fraction_declines_with_acquisitions(self):
        controller, _, _, _ = make_reviver_system(mean=120)
        start = controller.software_usable_fraction()
        drive_random_writes(controller, 4000)
        assert controller.software_usable_fraction() < start

    def test_metadata_writes_accounted(self):
        controller, _, _, _ = make_reviver_system(mean=120)
        drive_random_writes(controller, 4000)
        assert controller.stats.metadata_writes >= \
            2 * len(controller.reviver.links)

"""Integration tests for the FREE-p controller, with and without slots.

The no-recovery baseline is FREE-p with a zero-slot region: exhausted from
the start, so the first failure freezes the wear-leveler.
"""

import random

import pytest

from repro.config import CacheConfig
from repro.ecc import FreePRegion
from repro.errors import CapacityExhaustedError
from repro.mc import FreePController, RemapCache
from repro.osmodel import PagePool
from repro.wl import StartGap

from .conftest import drive_random_writes, make_chip


def make_baseline(num_blocks: int = 128, mean: float = 300.0, seed: int = 11):
    controller, chip, wear_leveler, _ = make_freep(
        num_blocks=num_blocks, mean=mean, reserve=0.0, seed=seed)
    return controller, chip, wear_leveler


def make_freep(num_blocks: int = 128, mean: float = 300.0,
               reserve: float = 0.10, seed: int = 11, cache: bool = False):
    chip = make_chip(num_blocks=num_blocks, mean=mean, seed=seed)
    region = FreePRegion(num_blocks, reserve)
    wear_leveler = StartGap(region.working_blocks)
    ospool = PagePool(wear_leveler.logical_blocks, blocks_per_page=8,
                      utilization=0.8, seed=5)
    remap = RemapCache(CacheConfig(capacity_entries=16, associativity=4)) \
        if cache else None
    controller = FreePController(chip, wear_leveler, ospool, region,
                                 cache=remap)
    return controller, chip, wear_leveler, region


def drive(controller, steps: int, seed: int = 7):
    rng = random.Random(seed)
    space = controller.ospool.virtual_blocks
    for step in range(steps):
        try:
            controller.service_write(rng.randrange(space), tag=step)
        except CapacityExhaustedError:
            return step
    return steps


class TestBaselineController:
    def test_zero_slot_region_is_exhausted_from_the_start(self):
        controller, *_ = make_baseline()
        assert controller.region.exhausted
        assert controller.region.resolve(5) == 5

    def test_round_trip_before_failures(self):
        controller, *_ = make_baseline(mean=10_000)
        controller.service_write(3, tag=7)
        assert controller.service_read(3).tag == 7

    def test_first_failure_freezes_scheme(self):
        controller, chip, wear_leveler = make_baseline()
        drive(controller, 20_000)
        assert chip.failed_count > 0
        assert wear_leveler.frozen

    def test_failures_retire_pages(self):
        controller, chip, _ = make_baseline()
        drive(controller, 20_000)
        assert controller.ospool.retired_pages >= 1
        assert controller.reporter.report_count >= 1

    def test_usable_space_collapses_fast(self):
        """Every exposed failure costs a whole page: the 64x amplification."""
        controller, chip, _ = make_baseline()
        drive(controller, 20_000)
        lost_pages = controller.ospool.retired_pages
        assert lost_pages >= chip.failed_count * 0.5 or lost_pages >= 3

    def test_migration_fault_drops_data(self):
        controller, chip, _ = make_baseline(mean=150)
        drive(controller, 20_000)
        # Migration drops are recorded as lost, never silently swallowed.
        assert isinstance(controller.lost_vblocks, set)


class TestFreePController:
    def test_links_failures_to_slots(self):
        controller, chip, _, region = make_freep()
        drive(controller, 20_000)
        assert chip.failed_count > 0
        assert len(region.links) > 0

    def test_wl_survives_while_slots_remain(self):
        controller, chip, wear_leveler, region = make_freep(reserve=0.3)
        drive(controller, 10_000)
        if not region.exhausted:
            assert not wear_leveler.frozen

    def test_redirected_access_costs_two(self):
        controller, chip, wear_leveler, region = make_freep()
        # Slots are linked by 6000 writes and the region lasts to ~7000.
        expected = drive_random_writes(controller, 6_000)
        assert region.links and not region.exhausted
        # A live vblock whose DA hides behind a healthy slot: pointer read
        # + slot access.
        candidates = []
        for vblock, tag in sorted(expected.items()):
            da = wear_leveler.map(controller.ospool.translate(vblock))
            slot = region.links.get(da)
            if slot is not None and not chip.is_failed(slot):
                candidates.append((vblock, tag, slot))
        assert candidates, "no live vblock sits behind a slot"
        vblock, tag, slot = candidates[0]
        result = controller.service_read(vblock)
        assert result.redirected
        assert result.pcm_accesses == 2
        assert result.da == slot
        assert result.tag == tag

    def test_exhaustion_freezes_scheme(self):
        controller, chip, wear_leveler, region = make_freep(
            reserve=0.02, mean=200)
        drive(controller, 40_000)
        if region.exhausted and chip.failed_count > region.slots_total:
            assert wear_leveler.frozen

    def test_working_space_mismatch_rejected(self):
        from repro.errors import ProtocolError
        chip = make_chip(num_blocks=128)
        region = FreePRegion(128, 0.10)
        wear_leveler = StartGap(128)  # covers the slots: invalid
        ospool = PagePool(wear_leveler.logical_blocks, blocks_per_page=8)
        with pytest.raises(ProtocolError):
            FreePController(chip, wear_leveler, ospool, region)

    def test_data_consistent_through_slot_redirection(self):
        controller, chip, _, region = make_freep(mean=400, cache=True)
        rng = random.Random(3)
        expected = {}
        space = controller.ospool.virtual_blocks
        # The region links its first slots by 6000 writes and exhausts
        # after 8000, where retirement starts losing data.
        for step in range(8_000):
            vblock = rng.randrange(space)
            try:
                controller.service_write(vblock, tag=step)
            except CapacityExhaustedError:
                break
            expected[vblock] = step
        assert region.links and not region.exhausted
        for vblock, tag in expected.items():
            if vblock in controller.lost_vblocks:
                continue
            assert controller.service_read(vblock).tag == tag

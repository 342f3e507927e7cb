"""Unit tests for the PCM chip simulator."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.ecc import PAYG
from repro.errors import AddressError, WriteFault
from repro.faultinject import FaultAction, FaultSchedule, ScheduleDriver
from repro.pcm.chip import EMPTY_TAG, PCMChip
from repro.pcm.endurance import EnduranceModel
from repro.pcm.geometry import AddressGeometry
from repro.traces import counts_cov

from .conftest import make_chip


class TestBasicWrites:
    def test_write_stores_tag_and_wears(self, small_chip):
        small_chip.write(3, tag=42)
        assert small_chip.read(3) == 42
        assert small_chip.wear_of(3) == 1

    def test_write_without_tag_keeps_content(self, small_chip):
        small_chip.write(3, tag=42)
        small_chip.write(3)
        assert small_chip.read(3) == 42
        assert small_chip.wear_of(3) == 2

    def test_unwritten_reads_empty(self, small_chip):
        assert small_chip.read(5) == EMPTY_TAG

    def test_total_device_writes(self, small_chip):
        for _ in range(5):
            small_chip.write(1)
        small_chip.write_metadata(2)
        assert small_chip.total_device_writes == 6

    def test_bounds_check(self, small_chip):
        for outside in (-1, 128):
            with pytest.raises(AddressError):
                small_chip.write(outside)
            with pytest.raises(AddressError):
                small_chip.read(outside)
        assert small_chip.total_device_writes == 0
        assert not small_chip.wear.any()


class TestFailure:
    def test_block_fails_at_threshold(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        da = 0
        threshold = chip.ecc.threshold(da)
        for _ in range(threshold - 1):
            chip.write(da)
        with pytest.raises(WriteFault):
            chip.write(da)
        assert chip.is_failed(da)

    def test_failed_write_clears_content(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        da = 0
        chip.write(da, tag=9)
        with pytest.raises(WriteFault):
            for _ in range(chip.ecc.threshold(da) + 1):
                chip.write(da, tag=9)
        assert chip.read(da) == EMPTY_TAG

    def test_write_to_failed_block_faults(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        with pytest.raises(WriteFault):
            for _ in range(10_000):
                chip.write(0)
        with pytest.raises(WriteFault):
            chip.write(0)

    def test_metadata_write_to_failed_block_allowed(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        with pytest.raises(WriteFault):
            for _ in range(10_000):
                chip.write(0)
        chip.write_metadata(0)  # pointer storage in surviving cells

    def test_failed_fraction(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        assert chip.failed_fraction() == 0.0
        with pytest.raises(WriteFault):
            for _ in range(10_000):
                chip.write(0)
        assert chip.failed_fraction() == pytest.approx(1 / 64)


class TestBatchedWrites:
    def test_batch_matches_scalar_wear(self):
        scalar = make_chip(num_blocks=64, mean=10_000, seed=3)
        batched = make_chip(num_blocks=64, mean=10_000, seed=3)
        das = np.array([1, 2, 3, 1])
        counts = np.array([4, 2, 1, 6])
        for da, count in zip(das, counts):
            for _ in range(count):
                scalar.write(int(da))
        batched.write_many(das, counts)
        assert (scalar.wear == batched.wear).all()

    def test_batch_detects_failures(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        threshold = chip.ecc.threshold(5)
        newly = chip.write_many(np.array([5]), np.array([threshold + 10]))
        assert newly.tolist() == [5]
        assert chip.is_failed(5)

    def test_duplicated_unsorted_das_report_each_failure_once(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        # Blocks 40, 9 and 27 each get enough wear (split across repeated
        # entries) to exhaust their ECC; block 3 stays healthy.
        das = [40, 9, 3, 27, 9, 40, 27, 40]
        counts = [chip.ecc.threshold(40), 200_000, 1, 150_000, 1,
                  100_000, 1, 1]
        newly = chip.write_many(np.array(das), np.array(counts))
        assert newly.tolist() == [9, 27, 40]
        assert not chip.is_failed(3)
        assert chip.failed_count == 3

    def test_batch_ignores_already_failed(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        chip.write_many(np.array([5]), np.array([100_000]))
        newly = chip.write_many(np.array([5]), np.array([10]))
        assert newly.size == 0

    def test_empty_batch(self, small_chip):
        newly = small_chip.write_many(np.empty(0, dtype=np.int64),
                                      np.empty(0, dtype=np.int64))
        assert newly.size == 0

    def test_shape_mismatch_rejected(self, small_chip):
        with pytest.raises(AddressError):
            small_chip.write_many(np.array([1, 2]), np.array([1]))


class TestViewsAndStats:
    def test_wear_cov_uniform_is_zero(self, small_chip):
        for da in range(small_chip.num_blocks):
            small_chip.write(da)
        assert counts_cov(small_chip.wear) == pytest.approx(0.0)

    def test_wear_cov_skewed_positive(self, small_chip):
        for _ in range(50):
            small_chip.write(0)
        assert counts_cov(small_chip.wear) > 1.0


def _payg_chip(num_blocks: int, mean: float, seed: int) -> PCMChip:
    geometry = AddressGeometry(num_blocks=num_blocks, block_bytes=64,
                               page_bytes=512)
    endurance = EnduranceModel(num_blocks=num_blocks, mean=mean, cov=0.25,
                               max_order=8, seed=seed)
    return PCMChip(geometry, PAYG(endurance), track_contents=True)


def assert_census_matches_mask(chip: PCMChip) -> None:
    mask = chip.failed
    assert chip.failed_count == int(mask.sum())
    for da in range(chip.num_blocks):
        assert chip.is_failed(da) == bool(mask[da])
    for outside in (-1, chip.num_blocks):
        with pytest.raises(AddressError):
            chip.is_failed(outside)
    with pytest.raises(ValueError):
        chip.failed[0] = True


class TestFailureCensus:
    """The failed-block census and the failed mask never disagree."""

    @pytest.mark.parametrize("kind,seed", [("ecp", 1), ("ecp", 2),
                                           ("payg", 3), ("payg", 4)])
    def test_random_writes_keep_census_and_mask_equal(self, kind, seed):
        num_blocks = 64
        chip = (make_chip(num_blocks=num_blocks, mean=120.0, seed=seed)
                if kind == "ecp" else _payg_chip(num_blocks, 120.0, seed))
        targets = (5, 17, 40)
        schedule = FaultSchedule(actions=(
            FaultAction("fail-block", at_write=30, das=targets, margin=2),))
        driver = ScheduleDriver(schedule).attach_fast(
            SimpleNamespace(chip=chip, config=SimpleNamespace(recovery="none")))
        rng = np.random.default_rng(seed)
        for step in range(240):
            driver.poll(step)
            if rng.random() < 0.5:
                da = int(rng.integers(0, num_blocks))
                try:
                    chip.write(da, tag=step)
                except WriteFault:
                    pass
            else:
                das = rng.integers(0, num_blocks, size=8)
                chip.write_many(das, rng.integers(1, 4, size=8))
            assert_census_matches_mask(chip)
        for da in targets:
            for _ in range(4):
                try:
                    chip.write(da)
                except WriteFault:
                    pass
            assert_census_matches_mask(chip)
        assert driver.applied
        assert 0 < chip.failed_count < num_blocks
        if kind == "ecp":
            assert all(chip.is_failed(da) for da in targets)
        else:
            # PAYG's pool extension re-raises a clamped threshold, so the
            # targets may outlive the clamp; the pool must have paid out.
            assert chip.ecc.pool_entries < chip.ecc.initial_pool_entries


def _mask_write_many(chip: PCMChip, das, counts) -> np.ndarray:
    """Reference batch write: resolve every written block, mask-sorted."""
    das = np.asarray(das, dtype=np.int64)
    np.add.at(chip.wear, das, np.asarray(counts, dtype=np.int64))
    touched = np.zeros(chip.num_blocks, dtype=bool)
    touched[das] = True
    return chip._resolve_threshold_crossings(np.flatnonzero(touched))


class TestWriteManyCrossings:
    """``write_many`` resolves only the written blocks that crossed."""

    def test_duplicate_crossings_reported_once_sorted(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        das = np.array([33, 7, 33, 12, 7, 33])
        counts = np.array([100_000, 1, 100_000, 1, 100_000, 1])
        newly = chip.write_many(das, counts)
        assert newly.dtype == np.int64
        assert newly.tolist() == [7, 33]
        assert_census_matches_mask(chip)

    def test_failed_block_is_never_reported_again(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        assert chip.write_many(np.array([5, 6]),
                               np.array([100_000, 1])).tolist() == [5]
        newly = chip.write_many(np.array([5, 6, 5]),
                                np.array([100_000, 100_000, 1]))
        assert newly.tolist() == [6]
        assert chip.write_many(np.array([5, 6]),
                               np.array([9, 9])).size == 0
        assert_census_matches_mask(chip)

    def test_batch_without_crossing_is_empty_int64(self):
        chip = make_chip(num_blocks=64, mean=10_000, seed=2)
        newly = chip.write_many(np.array([1, 2, 1]), np.array([3, 4, 5]))
        assert newly.dtype == np.int64 and newly.shape == (0,)
        assert chip.failed_count == 0

    def test_payg_crossing_extends_before_failing(self):
        chip = _payg_chip(64, 120.0, seed=3)
        pool = chip.ecc.pool_entries
        capacity = chip.ecc.capacity_of(9)
        threshold = chip.ecc.threshold(9)
        newly = chip.write_many(np.array([9]), np.array([threshold]))
        assert newly.size == 0 and not chip.is_failed(9)
        assert chip.ecc.capacity_of(9) > capacity
        assert chip.ecc.pool_entries < pool
        chip.ecc.pool_entries = 0
        newly = chip.write_many(np.array([9]),
                                np.array([chip.ecc.threshold(9)]))
        assert newly.tolist() == [9]
        assert_census_matches_mask(chip)

    @pytest.mark.parametrize("kind,seed", [("ecp", 5), ("payg", 6)])
    def test_matches_the_chip_mask_reference(self, kind, seed):
        chips = [make_chip(num_blocks=64, mean=120.0, seed=seed)
                 if kind == "ecp" else _payg_chip(64, 120.0, seed)
                 for _ in range(2)]
        rng = np.random.default_rng(seed)
        for _ in range(300):
            das = rng.integers(0, 64, size=int(rng.integers(1, 12)))
            counts = rng.integers(0, 6, size=das.size)
            newly = chips[0].write_many(das, counts)
            expected = _mask_write_many(chips[1], das, counts)
            np.testing.assert_array_equal(newly, expected)
            assert newly.dtype == np.int64
        np.testing.assert_array_equal(chips[0].wear, chips[1].wear)
        np.testing.assert_array_equal(chips[0].ecc.thresholds,
                                      chips[1].ecc.thresholds)
        assert chips[0].failed_count == chips[1].failed_count > 0
        assert_census_matches_mask(chips[0])

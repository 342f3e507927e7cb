"""Unit tests for the PCM chip simulator."""

import numpy as np
import pytest

from repro.errors import AddressError, WriteFault
from repro.pcm import BlockState
from repro.pcm.chip import EMPTY_TAG
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
        with pytest.raises(AddressError):
            small_chip.write(128)


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
    def test_view_reports_state(self, small_chip):
        small_chip.write(7)
        view = small_chip.view(7)
        assert view.da == 7
        assert view.state is BlockState.HEALTHY
        assert view.wear == 1
        assert view.remaining == view.threshold - 1

    def test_wear_cov_uniform_is_zero(self, small_chip):
        for da in range(small_chip.num_blocks):
            small_chip.write(da)
        assert counts_cov(small_chip.wear) == pytest.approx(0.0)

    def test_wear_cov_skewed_positive(self, small_chip):
        for _ in range(50):
            small_chip.write(0)
        assert counts_cov(small_chip.wear) > 1.0

"""Unit tests for size units and address arithmetic helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.units import (
    block_at,
    block_offset_in_page,
    blocks_per_page,
    ceil_div,
    is_power_of_two,
    log2_exact,
    page_of_block,
)


class TestPowerOfTwo:
    def test_accepts_powers(self):
        for exponent in range(20):
            assert is_power_of_two(1 << exponent)

    def test_rejects_non_powers(self):
        for value in (0, -1, -2, 3, 5, 6, 7, 12, 1000):
            assert not is_power_of_two(value)

    def test_log2_exact(self):
        assert log2_exact(1) == 0
        assert log2_exact(64) == 6
        assert log2_exact(1 << 30) == 30

    def test_log2_exact_rejects(self):
        with pytest.raises(ConfigurationError):
            log2_exact(48)


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div(12, 4) == 3

    def test_rounds_up(self):
        assert ceil_div(13, 4) == 4
        assert ceil_div(1, 4) == 1

    def test_zero_numerator(self):
        assert ceil_div(0, 4) == 0

    def test_rejects_bad_denominator(self):
        with pytest.raises(ConfigurationError):
            ceil_div(4, 0)


class TestBlocksPerPage:
    def test_paper_default(self):
        # 4 KB page / 64 B block = 64 PAs per page (paper's example).
        assert blocks_per_page() == 64

    def test_custom(self):
        assert blocks_per_page(512, 64) == 8

    def test_rejects_misaligned(self):
        with pytest.raises(ConfigurationError):
            blocks_per_page(1000, 64)


class TestPageArithmetic:
    """0-based block <-> (page, offset) conversions, 8 blocks per page."""

    BPP = 8

    def test_page_of(self):
        assert [page_of_block(b, self.BPP) for b in (0, 7, 8, 255)] == \
            [0, 0, 1, 31]

    def test_offset_in_page(self):
        assert block_offset_in_page(13, self.BPP) == 5

    def test_split_join_round_trip(self):
        for block in (0, 1, 8, 100, 255):
            page = page_of_block(block, self.BPP)
            offset = block_offset_in_page(block, self.BPP)
            assert block_at(page, offset, self.BPP) == block

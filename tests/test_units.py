"""Unit tests for size units and address arithmetic helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.units import (
    GIB,
    KIB,
    MIB,
    blocks_per_page,
    ceil_div,
    format_size,
    is_power_of_two,
    log2_exact,
    parse_size,
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


class TestParseSize:
    @pytest.mark.parametrize("text,expected", [
        ("1GB", GIB), ("64MB", 64 * MIB), ("4KB", 4 * KIB),
        ("1GiB", GIB), ("512B", 512), ("123", 123),
        ("2.5KB", int(2.5 * KIB)), (" 8 MB ".strip(), 8 * MIB),
    ])
    def test_parses(self, text, expected):
        assert parse_size(text) == expected

    def test_case_insensitive(self):
        assert parse_size("1gb") == parse_size("1GB")

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            parse_size("lots")

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            parse_size("")


class TestFormatSize:
    def test_round_trip(self):
        for text in ("1GB", "64MB", "4KB"):
            assert format_size(parse_size(text)) == text

    def test_odd_bytes(self):
        assert format_size(1000) == "1000B"

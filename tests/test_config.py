"""Unit tests for the configuration dataclasses."""

import pytest

from repro.config import (
    CacheConfig,
    LLSConfig,
    ReviverConfig,
    SecurityRefreshConfig,
    StartGapConfig,
)
from repro.errors import ConfigurationError


class TestStartGapConfig:
    def test_paper_default_psi(self):
        assert StartGapConfig().psi == 100

    @pytest.mark.parametrize("kwargs", [
        dict(psi=0), dict(randomizer="bogus"), dict(feistel_rounds=0),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            StartGapConfig(**kwargs)


class TestSecurityRefreshConfig:
    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            SecurityRefreshConfig(refresh_interval=0)


class TestReviverConfig:
    def test_paper_pointer_layout(self):
        # 64-block page, 64 B blocks, 32-bit pointers: 16 pointers per
        # block -> 4 pointer blocks, 60 shadow slots (Figure 4).
        config = ReviverConfig()
        assert config.pointer_section_blocks(64, 64) == 4

    def test_small_page_layout(self):
        # 8-block page: one pointer block covers the other 7 slots.
        assert ReviverConfig().pointer_section_blocks(8, 64) == 1

    def test_wide_pointers_use_more_blocks(self):
        narrow = ReviverConfig(pointer_bits=16).pointer_section_blocks(64, 64)
        wide = ReviverConfig(pointer_bits=64).pointer_section_blocks(64, 64)
        assert wide >= narrow

    def test_rejects_bad_pointer_bits(self):
        with pytest.raises(ConfigurationError):
            ReviverConfig(pointer_bits=12)
        with pytest.raises(ConfigurationError):
            ReviverConfig(pointer_bits=0)

    def test_rejects_zero_replicas(self):
        with pytest.raises(ConfigurationError):
            ReviverConfig(bitmap_replicas=0)


class TestLLSConfig:
    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            LLSConfig(chunk_blocks=0)
        with pytest.raises(ConfigurationError):
            LLSConfig(num_groups=0)


class TestCacheConfig:
    def test_capacity_must_divide(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(capacity_entries=10, associativity=4)

    def test_valid(self):
        config = CacheConfig(capacity_entries=16, associativity=4)
        assert config.capacity_entries // config.associativity == 4

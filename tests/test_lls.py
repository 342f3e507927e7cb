"""Tests for the LLS baseline: chunks, groups, recovery, and the engine."""

import numpy as np
import pytest

from repro.config import LLSConfig, StartGapConfig
from repro.ecc import ECP
from repro.errors import CapacityExhaustedError, ConfigurationError
from repro.lls import ChunkReservation, LLSFastEngine, LLSRecovery, SalvageGroups
from repro.pcm import AddressGeometry, EnduranceModel, PCMChip
from repro.sim import FastConfig, FastEngine
from repro.traces import hotspot_distribution
from repro.wl import StartGap


class TestChunkReservation:
    def test_reserve_carves_from_top(self):
        chunks = ChunkReservation(1000, 100)
        start, end = chunks.reserve_next()
        assert (start, end) == (900, 1000)
        start, end = chunks.reserve_next()
        assert (start, end) == (800, 900)
        assert chunks.working_blocks == 800
        assert chunks.reserved_fraction == pytest.approx(0.2)

    def test_exhaustion(self):
        chunks = ChunkReservation(300, 100, min_working_blocks=100)
        chunks.reserve_next()
        chunks.reserve_next()
        assert not chunks.can_reserve()
        with pytest.raises(CapacityExhaustedError):
            chunks.reserve_next()

    def test_rejects_bad_chunk(self):
        with pytest.raises(ConfigurationError):
            ChunkReservation(100, 100)
        with pytest.raises(ConfigurationError):
            ChunkReservation(100, 0)


class TestSalvageGroups:
    def test_same_group_assignment(self):
        groups = SalvageGroups(4)
        groups.add_chunk(100, 116)
        backup = groups.assign(6)  # group 2
        assert backup % 4 == 6 % 4
        assert groups.resolve(6) == backup

    def test_group_dry_returns_none(self):
        groups = SalvageGroups(4)
        groups.add_chunk(100, 104)  # one block per group
        assert groups.assign(0) is not None
        assert groups.assign(4) is None  # group 0 is dry
        assert groups.available(1) == 1  # other groups stranded

    def test_backup_failure_relinks_origin(self):
        groups = SalvageGroups(4)
        groups.add_chunk(100, 116)
        first = groups.assign(6)
        second = groups.assign(first)  # the backup itself died
        assert groups.resolve(6) == second
        assert second != first

    def test_idle_blocks_counted(self):
        groups = SalvageGroups(4)
        groups.add_chunk(100, 116)
        assert groups.idle_blocks() == 16
        groups.assign(0)
        assert groups.idle_blocks() == 15


class TestLLSRecovery:
    def test_reserves_chunk_on_demand(self):
        recovery = LLSRecovery(1024, LLSConfig(chunk_blocks=64, num_groups=4),
                               blocks_per_page=8)
        assert recovery.chunks.chunks == 0
        backup = recovery.handle_failure(5)
        assert backup is not None
        assert recovery.chunks.chunks == 1
        assert recovery.resolve(5) == backup

    def test_gives_up_when_space_gone(self):
        recovery = LLSRecovery(64, LLSConfig(chunk_blocks=32, num_groups=2),
                               blocks_per_page=8)
        # Only one chunk fits (min working = 16).
        assert recovery.handle_failure(0) is not None
        # Exhaust group 0's backups.
        group0 = [da for da in range(32, 64) if da % 2 == 0]
        for index in range(len(group0) - 1):
            assert recovery.handle_failure(2 * index + 2) is not None
        assert recovery.handle_failure(60) is None
        assert recovery.frozen

    def test_chunk_aligned_to_pages(self):
        recovery = LLSRecovery(1024, LLSConfig(chunk_blocks=60, num_groups=4),
                               blocks_per_page=8)
        assert recovery.chunks.chunk_blocks == 64

    def test_stats(self):
        recovery = LLSRecovery(1024, LLSConfig(chunk_blocks=64, num_groups=4),
                               blocks_per_page=8)
        recovery.handle_failure(5)
        stats = recovery.stats()
        assert stats["chunks"] == 1
        assert stats["backups_assigned"] == 1
        assert stats["idle_backup_blocks"] == 63


def make_engines(num_blocks: int = 512, mean: float = 300.0, seed: int = 3):
    def chip():
        geometry = AddressGeometry(num_blocks=num_blocks)
        endurance = EnduranceModel(num_blocks=num_blocks, mean=mean,
                                   cov=0.2, max_order=10, seed=seed)
        return PCMChip(geometry, ECP(endurance, 1))

    trace = hotspot_distribution(num_blocks, 6.0, seed=seed)
    lls = LLSFastEngine(
        chip(), hotspot_distribution(num_blocks, 6.0, seed=seed),
        FastConfig(batch_writes=2000, seed=seed),
        LLSConfig(chunk_blocks=64, num_groups=8),
        StartGapConfig(psi=10), label="LLS")
    wlr = FastEngine(chip(), StartGap(num_blocks,
                                      config=StartGapConfig(psi=10)),
                     trace, FastConfig(recovery="reviver", batch_writes=2000,
                                       seed=seed))
    return lls, wlr


class TestLLSFastEngine:
    def test_callers_config_is_left_as_it_was(self):
        num_blocks = 512
        geometry = AddressGeometry(num_blocks=num_blocks)
        endurance = EnduranceModel(num_blocks=num_blocks, mean=300.0,
                                   cov=0.2, max_order=10, seed=3)
        config = FastConfig(recovery="reviver", batch_writes=2000, seed=3)
        lls = LLSFastEngine(PCMChip(geometry, ECP(endurance, 1)),
                            hotspot_distribution(num_blocks, 6.0, seed=3),
                            config, LLSConfig(chunk_blocks=64, num_groups=8))
        assert config.recovery == "reviver"
        assert lls.config.recovery == "none"
        assert lls.config.batch_writes == 2000

    def test_runs_and_reserves_chunks(self):
        lls, _ = make_engines()
        summary = lls.run()
        assert summary.lifetime_writes > 0
        assert lls.lls.chunks.chunks >= 1

    def test_restricted_randomizer_in_use(self):
        from repro.wl.randomizer import RestrictedRandomizer
        lls, _ = make_engines()
        assert isinstance(lls.wl.randomizer, RestrictedRandomizer)

    def test_wlr_outlives_lls(self):
        """Figure 8's headline: LLS sustains far fewer writes than WLR."""
        lls, wlr = make_engines()
        lls_summary = lls.run()
        wlr_summary = wlr.run()
        assert wlr_summary.lifetime_writes > lls_summary.lifetime_writes

    def test_usable_space_falls_in_chunk_steps(self):
        lls, _ = make_engines()
        lls.run()
        usable = [p.usable for p in lls.series.points]
        drops = [a - b for a, b in zip(usable, usable[1:]) if b < a]
        chunk_fraction = lls.lls.chunks.chunk_blocks / lls.chip.num_blocks
        assert any(d >= chunk_fraction * 0.99 for d in drops)

    def test_stats_include_lls_counters(self):
        lls, _ = make_engines()
        lls.run()
        stats = lls.stats()
        assert "lls_chunks" in stats
        assert "lls_idle_backup_blocks" in stats

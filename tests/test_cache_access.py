"""Unit tests for the remap cache and access accounting."""

import hashlib
import random
from dataclasses import asdict

import pytest

from repro.config import CacheConfig
from repro.ecc import FreePRegion
from repro.errors import CapacityExhaustedError
from repro.mc import AccessResult, AccessStats, FreePController, RemapCache
from repro.osmodel import PagePool
from repro.wl import StartGap

from .conftest import make_chip, make_reviver_system


def make_cache(entries: int = 8, ways: int = 2) -> RemapCache:
    return RemapCache(CacheConfig(capacity_entries=entries,
                                  associativity=ways))


class TestRemapCache:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.get(5) is None
        cache.put(5, 99)
        assert cache.get(5) == 99
        assert cache.misses == 1
        assert cache.hits == 1

    def test_update_existing(self):
        cache = make_cache()
        cache.put(5, 99)
        cache.put(5, 100)
        assert cache.get(5) == 100
        assert len(cache) == 1

    def test_lru_eviction_within_set(self):
        cache = make_cache(entries=8, ways=2)  # 4 sets
        # Keys 0, 4, 8 share set 0 (key % 4).
        cache.put(0, 10)
        cache.put(4, 14)
        cache.get(0)          # refresh 0: 4 becomes LRU
        cache.put(8, 18)      # evicts 4
        assert cache.get(0) == 10
        assert cache.get(8) == 18
        assert cache.get(4) is None

    def test_invalidate(self):
        cache = make_cache()
        cache.put(5, 99)
        cache.invalidate(5)
        assert cache.get(5) is None
        assert cache.invalidations == 1
        cache.invalidate(5)   # idempotent
        assert cache.invalidations == 1

    def test_clear(self):
        cache = make_cache()
        cache.put(1, 2)
        cache.put(3, 4)
        cache.clear()
        assert len(cache) == 0

    def test_hit_rate(self):
        cache = make_cache()
        assert cache.hit_rate == 0.0
        cache.put(1, 2)
        cache.get(1)
        cache.get(9)
        assert cache.hit_rate == pytest.approx(0.5)


class TestAccessStats:
    def result(self, **kwargs) -> AccessResult:
        base = dict(vblock=0, pa=0, da=0, pcm_accesses=1)
        base.update(kwargs)
        return AccessResult(**base)

    def test_record_write_and_read(self):
        stats = AccessStats()
        stats.record(self.result(pcm_accesses=2, redirected=True),
                     is_write=True)
        stats.record(self.result(), is_write=False)
        assert stats.requests == 2
        assert stats.writes == 1
        assert stats.reads == 1
        assert stats.pcm_accesses == 3
        assert stats.redirected == 1

    def test_avg_access_time(self):
        stats = AccessStats()
        assert stats.avg_access_time == 0.0
        stats.record(self.result(pcm_accesses=1), is_write=True)
        stats.record(self.result(pcm_accesses=2), is_write=True)
        assert stats.avg_access_time == pytest.approx(1.5)

    def test_faults_and_victims(self):
        stats = AccessStats()
        stats.record(self.result(faults_handled=2, victimized=True),
                     is_write=True)
        assert stats.faults == 2
        assert stats.victimized == 1

    def test_merged(self):
        a = AccessStats()
        b = AccessStats()
        a.record(self.result(pcm_accesses=3), is_write=True)
        b.record(self.result(), is_write=False)
        merged = a.merged(b)
        assert merged.requests == 2
        assert merged.pcm_accesses == 4
        # Originals untouched.
        assert a.requests == 1 and b.requests == 1


class TestAccessResult:
    def test_fields_are_immutable(self):
        result = AccessResult(vblock=1, pa=2, da=3, pcm_accesses=1)
        with pytest.raises(AttributeError):
            result.da = 4
        assert result.da == 3

    def test_defaults(self):
        result = AccessResult(vblock=1, pa=2, da=3, pcm_accesses=1)
        assert result.tag is None
        assert result.redirected is False
        assert result.faults_handled == 0
        assert result.victimized is False


def _freep_controller() -> FreePController:
    """FREE-p with a 10% remap region, small enough to exhaust early."""
    chip = make_chip(num_blocks=128, mean=120)
    region = FreePRegion(128, 0.10)
    wear_leveler = StartGap(region.working_blocks)
    ospool = PagePool(wear_leveler.logical_blocks, blocks_per_page=8,
                      utilization=0.8, seed=5)
    return FreePController(chip, wear_leveler, ospool, region)


def _drive_mixed(controller, steps: int = 6000, seed: int = 7):
    """25% reads, 75% tagged writes, until end of life or *steps*.

    Returns the SHA-256 over every returned :class:`AccessResult` (its
    ``repr`` as a tuple, so a swapped field or a changed element type
    moves it) and the number of results hashed.
    """
    rng = random.Random(seed)
    space = controller.ospool.virtual_blocks
    digest = hashlib.sha256()
    results = 0
    for step in range(steps):
        vblock = rng.randrange(space)
        try:
            if rng.random() < 0.25:
                result = controller.service_read(vblock)
            else:
                result = controller.service_write(vblock, tag=step)
        except CapacityExhaustedError:
            break
        digest.update(repr(tuple(result)).encode())
        results += 1
    return digest.hexdigest(), results


#: Per system: result digest, results returned, final AccessStats.
ACCESS_PINS = {
    "reviver": (
        "71eddd10e55ddddc67c6e3f89ed9f060f0c781ed947c145cdcb62958e4c3a99b",
        5189,
        dict(requests=5189, writes=3804, reads=1385, pcm_accesses=5722,
             redirected=442, faults=68, victimized=2, metadata_writes=504)),
    "reviver-cache": (
        "d4edce40f0ec1c9eab3efdae31d0a1c06f5f73ab466d423fe9d92b56b15c244a",
        5189,
        dict(requests=5189, writes=3804, reads=1385, pcm_accesses=5367,
             redirected=442, faults=68, victimized=2, metadata_writes=504)),
    "freep-exhausted": (
        "e0b5dd1ff575f18b04dbe1ab8943d8bd4d452d629b279c30719d12fff9851a16",
        4623,
        dict(requests=4623, writes=3400, reads=1223, pcm_accesses=4819,
             redirected=171, faults=25, victimized=0, metadata_writes=0)),
}

SYSTEMS = {
    "reviver": lambda: make_reviver_system(mean=120)[0],
    "reviver-cache": lambda: make_reviver_system(mean=120, cache=True)[0],
    "freep-exhausted": _freep_controller,
}


class TestAccessAccountingPin:
    """Every AccessResult and the final AccessStats of three lifetimes.

    The engines' output digests cover lifetimes and stops, not the
    per-request accounting; this pin does.  Each run is a seeded
    128-block chip driven to end of life with 25% reads.
    """

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_results_and_stats_match_pin(self, system):
        controller = SYSTEMS[system]()
        digest, results = _drive_mixed(controller)
        pinned_digest, pinned_results, pinned_stats = ACCESS_PINS[system]
        stats = controller.stats
        assert asdict(stats) == pinned_stats
        assert results == pinned_results == stats.requests
        assert digest == pinned_digest
        # Failure chains redirected a share of the requests, not all.
        assert 0 < stats.redirected / stats.requests < 0.1
        if isinstance(controller, FreePController):
            assert controller.region.exhausted

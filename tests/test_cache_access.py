"""Unit tests for the remap cache and access accounting."""

import pytest

from repro.config import CacheConfig
from repro.mc import AccessResult, AccessStats, RemapCache


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

    def test_redirect_rate(self):
        stats = AccessStats()
        stats.record(self.result(redirected=True), is_write=True)
        stats.record(self.result(), is_write=True)
        assert stats.redirect_rate == pytest.approx(0.5)

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

"""Property suite for the balance control plane.

The pinned contracts, each driven by hypothesis over geometries,
interleave modes, and mutation histories:

* **monotone remap** — growing the array moves exactly the addresses
  the consistent hash selects; every other address keeps its exact
  ``(shard, slot)`` home, so growth never reshuffles settled data;
* **transparent wrap** — before any mutation, a ``BalancedDecoder``
  is an exact identity over its base ``InterleavedDecoder``;
* **swap conservation** — any sequence of swaps is a permutation:
  the multiset of ``(shard, slot)`` homes is preserved.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array import InterleavedDecoder
from repro.balance import BalancedDecoder, movers_mask

INTERLEAVES = ("block", "page")

shards = st.integers(min_value=1, max_value=6)
pages = st.integers(min_value=1, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def build(num_shards, interleave, page_blocks, shard_pages=4):
    shard_blocks = page_blocks * shard_pages
    base = InterleavedDecoder(num_shards, num_shards * shard_blocks,
                              interleave=interleave,
                              page_blocks=page_blocks)
    return BalancedDecoder(base)


def homes(decoder):
    addresses = np.arange(decoder.global_blocks, dtype=np.int64)
    return decoder.shard_of(addresses), decoder.local_of(addresses)


@given(num_shards=shards, interleave=st.sampled_from(INTERLEAVES),
       page_blocks=pages)
@settings(max_examples=60, deadline=None)
def test_unmutated_wrap_is_an_identity(num_shards, interleave,
                                       page_blocks):
    decoder = build(num_shards, interleave, page_blocks)
    addresses = np.arange(decoder.global_blocks, dtype=np.int64)
    assert np.array_equal(decoder.shard_of(addresses),
                          decoder.base.shard_of(addresses))
    assert np.array_equal(decoder.local_of(addresses),
                          decoder.base.local_of(addresses))


@given(num_shards=shards, interleave=st.sampled_from(INTERLEAVES),
       page_blocks=pages, growths=st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_growth_is_monotone(num_shards, interleave, page_blocks,
                            growths):
    decoder = build(num_shards, interleave, page_blocks)
    addresses = np.arange(decoder.global_blocks, dtype=np.int64)
    for _ in range(growths):
        before_shard, before_slot = homes(decoder)
        old_shards = decoder.num_shards
        movers, donors = decoder.add_shard()
        after_shard, after_slot = homes(decoder)
        # The movers are exactly the consistent-hash selection,
        # truncated (in ascending address order) to the new shard's
        # slot capacity.
        expected = addresses[movers_mask(addresses, old_shards,
                                         old_shards + 1)]
        expected = expected[:decoder.shard_blocks]
        assert np.array_equal(movers, expected)
        assert np.array_equal(before_shard[movers], donors)
        # Everyone else keeps the exact (shard, slot) home.
        stay = np.ones(decoder.global_blocks, dtype=bool)
        stay[movers] = False
        assert np.array_equal(before_shard[stay], after_shard[stay])
        assert np.array_equal(before_slot[stay], after_slot[stay])
        assert np.all(after_shard[movers] == old_shards)


@given(num_shards=shards, interleave=st.sampled_from(INTERLEAVES),
       page_blocks=pages, seed=seeds,
       swap_count=st.integers(min_value=1, max_value=16))
@settings(max_examples=60, deadline=None)
def test_swaps_permute_the_home_set(num_shards, interleave, page_blocks,
                                    seed, swap_count):
    decoder = build(num_shards, interleave, page_blocks)
    before_shard, before_slot = homes(decoder)
    before = sorted(zip(before_shard.tolist(), before_slot.tolist()))
    rng = np.random.default_rng(seed)
    for _ in range(swap_count):
        a, b = rng.integers(0, decoder.global_blocks, size=2)
        decoder.swap(int(a), int(b))
    after_shard, after_slot = homes(decoder)
    assert sorted(zip(after_shard.tolist(), after_slot.tolist())) == before

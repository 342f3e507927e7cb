"""Interleaved address decoding across an array of shard devices.

A production deployment is not one 1 GB chip but an *array* of devices
behind a decoder that scatters the global block address space across
them.  :class:`InterleavedDecoder` implements the two standard
round-robin layouts:

``block``
    Consecutive global blocks (cachelines) rotate across shards —
    ``shard = ga mod N`` — the bandwidth-maximizing layout, which also
    spreads any hot set evenly over devices.
``page``
    Whole OS pages rotate across shards, so every block of a page lives
    on one device — the layout that keeps page retirement local to a
    single shard, at the price of letting a page-sized hot set
    concentrate on one device.

All page arithmetic is routed through the :mod:`repro.units` helpers so
the RAW-GEOM lint rule keeps every ``blocks_per_page`` operation in one
audited module.  The decoder is pure geometry: it holds no device state,
so the array engine can consult it before and after shards die.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ConfigurationError
from ..units import (BlockLike, block_at, block_offset_in_page,
                     is_page_aligned, page_of_block)

#: Supported round-robin interleaving layouts.
INTERLEAVE_MODES: Tuple[str, ...] = ("block", "page")


class InterleavedDecoder:
    """Round-robin split of a global block space across ``num_shards``.

    The global space has ``num_shards * shard_blocks`` block addresses;
    ``encode``/``decode`` form a bijection between global addresses and
    ``(shard, local)`` pairs.  Every method accepts scalars or numpy
    arrays.  Traffic-mass projections live on
    :class:`~repro.balance.remap.BalancedDecoder`, which every engine
    wraps around this layout.
    """

    def __init__(self, num_shards: int, shard_blocks: int,
                 interleave: str = "block", page_blocks: int = 64) -> None:
        if num_shards < 1:
            raise ConfigurationError("array needs at least one shard")
        if shard_blocks < 1:
            raise ConfigurationError("shard_blocks must be positive")
        if interleave not in INTERLEAVE_MODES:
            raise ConfigurationError(
                f"unknown interleave {interleave!r}; "
                f"choose from {INTERLEAVE_MODES}")
        if page_blocks < 1:
            raise ConfigurationError("page_blocks must be positive")
        if interleave == "page" and not is_page_aligned(shard_blocks,
                                                        page_blocks):
            raise ConfigurationError(
                f"page interleaving needs page-aligned shards: "
                f"{shard_blocks} blocks is not a whole number of "
                f"{page_blocks}-block pages")
        self.num_shards = num_shards
        self.shard_blocks = shard_blocks
        self.interleave = interleave
        self.page_blocks = page_blocks

    @property
    def global_blocks(self) -> int:
        """Size of the global block address space."""
        return self.num_shards * self.shard_blocks

    # -------------------------------------------------------------- decoding

    def shard_of(self, block: BlockLike) -> BlockLike:
        """Shard device owning global address *block* (scalar or vector)."""
        if self.interleave == "block":
            return block % self.num_shards
        return page_of_block(block, self.page_blocks) % self.num_shards

    def local_of(self, block: BlockLike) -> BlockLike:
        """Shard-local address of global *block* (scalar or vector)."""
        if self.interleave == "block":
            return block // self.num_shards
        page = page_of_block(block, self.page_blocks)
        return block_at(page // self.num_shards,
                        block_offset_in_page(block, self.page_blocks),
                        self.page_blocks)

    def decode(self, block: BlockLike) -> Tuple[BlockLike, BlockLike]:
        """``(shard, local)`` of global *block*."""
        return self.shard_of(block), self.local_of(block)

    def encode(self, shard: BlockLike, local: BlockLike) -> BlockLike:
        """Global address of *local* on shard *shard* (inverse of decode)."""
        if np.any(np.asarray(shard) < 0) \
                or np.any(np.asarray(shard) >= self.num_shards):
            raise ConfigurationError(
                f"shard {shard} out of range [0, {self.num_shards})")
        if self.interleave == "block":
            return local * self.num_shards + shard
        page = page_of_block(local, self.page_blocks)
        return block_at(page * self.num_shards + shard,
                        block_offset_in_page(local, self.page_blocks),
                        self.page_blocks)

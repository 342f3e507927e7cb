"""The elastic address map: a remappable, growable decoder.

:class:`BalancedDecoder` wraps an
:class:`~repro.array.decoder.InterleavedDecoder` with an explicit
``global address -> (shard, slot)`` map, materialized as two integer
arrays.  The wrap starts as the identity (every address decodes exactly
as the base decoder would) and then absorbs three kinds of mutation:

``swap``
    Exchange the homes of two global addresses — the unit of hot/cold
    steering.  Swaps preserve the bijection.
``add_shard``
    Grow the array by one shard using the consistent-hashing rule: a
    global address moves to new shard ``j`` (of ``t`` total) iff
    ``mix64(address, j) mod t == 0``, so growth moves only ~``1/t`` of
    the address space and every unmoved address keeps its exact home
    (the *monotone remap* property).  Movers take the new shard's local
    slots in ascending address order.
``rehome``
    Degraded-mode shard death: every address homed on the dead shard
    moves to survivor ``live[slot mod len(live)]`` at the *same* local
    slot, which makes the map many-to-one (a survivor slot can host
    inherited addresses on top of its own).  This is the only
    implementation of the rule; the array and serving engines both
    call it.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..array.decoder import InterleavedDecoder
from ..errors import ConfigurationError
from ..units import BlockLike

#: splitmix64 constants — a well-mixed, dependency-free integer finalizer.
_SPLIT_GAMMA = 0x9E3779B97F4A7C15
_SPLIT_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLIT_M2 = np.uint64(0x94D049BB133111EB)
_WORD = 1 << 64


def _mix64(values: np.ndarray, salt: int) -> np.ndarray:
    """Vectorized splitmix64 finalizer of ``values`` keyed by *salt*.

    The salt offset is computed in Python integers (exact modular
    arithmetic) so only silent array-wide uint64 wraparound remains.
    """
    offset = np.uint64((salt + 1) * _SPLIT_GAMMA % _WORD)
    x = values.astype(np.uint64) + offset
    x = (x ^ (x >> np.uint64(30))) * _SPLIT_M1
    x = (x ^ (x >> np.uint64(27))) * _SPLIT_M2
    return x ^ (x >> np.uint64(31))


def movers_mask(addresses: np.ndarray, new_shard: int,
                total_shards: int) -> np.ndarray:
    """Which of *addresses* move to *new_shard* when it joins.

    Pure function of ``(address, new_shard, total_shards)`` — ownership
    history is irrelevant, which is what makes growth monotone: an
    address not in the mask is untouched by the expansion.
    """
    if total_shards < 1:
        raise ConfigurationError("total_shards must be positive")
    hashed = _mix64(np.asarray(addresses, dtype=np.int64), new_shard)
    mask = hashed % np.uint64(total_shards) == np.uint64(0)
    return np.asarray(mask, dtype=bool)


class BalancedDecoder:
    """A growable, remappable view over an interleaved base decoder.

    Presents the same decoding surface as the base
    (:meth:`shard_of`/:meth:`local_of`/:meth:`decode`, plus the mass
    projections the array engine uses) but reads every answer from the
    materialized map, so mutations are O(affected addresses) and lookups
    are O(1) gathers.
    """

    def __init__(self, base: InterleavedDecoder) -> None:
        self.base = base
        self.num_shards = base.num_shards
        self.shard_blocks = base.shard_blocks
        addresses = np.arange(base.global_blocks, dtype=np.int64)
        self._owner = np.asarray(base.shard_of(addresses), dtype=np.int64)
        self._slot = np.asarray(base.local_of(addresses), dtype=np.int64)

    @property
    def global_blocks(self) -> int:
        """Size of the global address space (fixed across growth)."""
        return self.base.global_blocks

    # -------------------------------------------------------------- decoding

    def shard_of(self, block: BlockLike) -> BlockLike:
        """Shard currently homing global address *block*."""
        return self._owner[block]

    def local_of(self, block: BlockLike) -> BlockLike:
        """Shard-local slot of global address *block*."""
        return self._slot[block]

    def decode(self, block: BlockLike) -> Tuple[BlockLike, BlockLike]:
        """``(shard, slot)`` currently homing global address *block*."""
        return self._owner[block], self._slot[block]

    # ----------------------------------------------------------- projections

    def shard_masses(self, probabilities: np.ndarray) -> np.ndarray:
        """Traffic mass each shard receives under a global distribution."""
        probabilities = self._checked(probabilities)
        return np.bincount(self._owner, weights=probabilities,
                           minlength=self.num_shards)

    def local_mass(self, probabilities: np.ndarray,
                   shard: int) -> np.ndarray:
        """Shard-local mass vector under the current (many-to-one) map.

        Scatter-adds because a slot can host inherited addresses on top
        of its own after a re-home.
        """
        probabilities = self._checked(probabilities)
        mass = np.zeros(self.shard_blocks, dtype=np.float64)
        owned = self._owner == shard
        np.add.at(mass, self._slot[owned], probabilities[owned])
        return mass

    def _checked(self, probabilities: np.ndarray) -> np.ndarray:
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if probabilities.shape != (self.global_blocks,):
            raise ConfigurationError(
                f"distribution covers {probabilities.shape} addresses, "
                f"decoder needs ({self.global_blocks},)")
        return probabilities

    # -------------------------------------------------------------- mutation

    def swap(self, a: int, b: int) -> None:
        """Exchange the homes of global addresses *a* and *b*."""
        for address in (a, b):
            if not 0 <= address < self.global_blocks:
                raise ConfigurationError(
                    f"address {address} outside the global space "
                    f"[0, {self.global_blocks})")
        self._owner[[a, b]] = self._owner[[b, a]]
        self._slot[[a, b]] = self._slot[[b, a]]

    def add_shard(self) -> Tuple[np.ndarray, np.ndarray]:
        """Grow by one shard; returns ``(moved addresses, old owners)``.

        Movers are the addresses hashing to the new shard under
        :func:`movers_mask`, capped (in ascending address order) at the
        shard's slot capacity; they take slots ``0..k-1`` in that order.
        """
        new_shard = self.num_shards
        total = new_shard + 1
        addresses = np.arange(self.global_blocks, dtype=np.int64)
        movers = addresses[movers_mask(addresses, new_shard, total)]
        if movers.size > self.shard_blocks:
            movers = movers[:self.shard_blocks]
        donors = self._owner[movers].copy()
        self._owner[movers] = new_shard
        self._slot[movers] = np.arange(movers.size, dtype=np.int64)
        self.num_shards = total
        return movers, donors

    def rehome(self, dead_shard: int, live: List[int]) -> np.ndarray:
        """Move a dead shard's addresses onto the survivors.

        The degraded-mode rule: slot ``l`` of the dead shard re-homes
        to ``live[l mod len(live)]`` at the same slot.  Addresses the
        dead shard inherited from earlier deaths move with it; nothing
        else moves.  Returns the affected global addresses.
        """
        if not live:
            raise ConfigurationError("rehome needs at least one survivor")
        affected = np.nonzero(self._owner == dead_shard)[0]
        survivors = np.asarray(live, dtype=np.int64)
        self._owner[affected] = survivors[
            self._slot[affected] % len(live)]
        return affected


__all__ = ["BalancedDecoder", "movers_mask"]

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

The map serializes to a sparse :class:`RemapTable` (only non-identity
entries) that round-trips through JSON, so a control plane can persist
and restore its steering state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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


@dataclass(frozen=True)
class RemapTable:
    """Sparse, JSON-serializable state of a :class:`BalancedDecoder`.

    ``moves`` holds one ``(address, shard, slot)`` triple per global
    address whose home differs from the base decoder's identity map,
    sorted by address.  Together with the base geometry this is the
    decoder's full state.
    """

    base_shards: int
    num_shards: int
    shard_blocks: int
    interleave: str
    page_blocks: int
    moves: Tuple[Tuple[int, int, int], ...]

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys, no whitespace surprises)."""
        return json.dumps({
            "base_shards": self.base_shards,
            "num_shards": self.num_shards,
            "shard_blocks": self.shard_blocks,
            "interleave": self.interleave,
            "page_blocks": self.page_blocks,
            "moves": [list(m) for m in self.moves],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RemapTable":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"remap table is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("remap table JSON must be an object")
        try:
            moves = tuple((int(a), int(s), int(l))
                          for a, s, l in data["moves"])
            return cls(base_shards=int(data["base_shards"]),
                       num_shards=int(data["num_shards"]),
                       shard_blocks=int(data["shard_blocks"]),
                       interleave=str(data["interleave"]),
                       page_blocks=int(data["page_blocks"]),
                       moves=moves)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"remap table JSON is malformed: {exc}") from exc


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

    # --------------------------------------------------------- serialization

    def table(self) -> RemapTable:
        """Sparse snapshot of every non-identity map entry."""
        addresses = np.arange(self.base.global_blocks, dtype=np.int64)
        base_owner = np.asarray(self.base.shard_of(addresses),
                                dtype=np.int64)
        base_slot = np.asarray(self.base.local_of(addresses),
                               dtype=np.int64)
        changed = np.nonzero((self._owner != base_owner)
                             | (self._slot != base_slot))[0]
        moves = tuple((int(a), int(self._owner[a]), int(self._slot[a]))
                      for a in changed)
        return RemapTable(base_shards=self.base.num_shards,
                          num_shards=self.num_shards,
                          shard_blocks=self.shard_blocks,
                          interleave=self.base.interleave,
                          page_blocks=self.base.page_blocks,
                          moves=moves)

    @classmethod
    def from_table(cls, table: RemapTable) -> "BalancedDecoder":
        """Reconstruct a decoder from its sparse :class:`RemapTable`."""
        if table.num_shards < table.base_shards:
            raise ConfigurationError(
                f"remap table shrinks the array ({table.base_shards} -> "
                f"{table.num_shards}); shards can only be added")
        base = InterleavedDecoder(table.base_shards, table.shard_blocks,
                                  interleave=table.interleave,
                                  page_blocks=table.page_blocks)
        decoder = cls(base)
        decoder.num_shards = table.num_shards
        for address, shard, slot in table.moves:
            if not 0 <= address < decoder.global_blocks:
                raise ConfigurationError(
                    f"remap table address {address} outside the global "
                    f"space [0, {decoder.global_blocks})")
            if not 0 <= shard < table.num_shards:
                raise ConfigurationError(
                    f"remap table shard {shard} outside "
                    f"[0, {table.num_shards})")
            if not 0 <= slot < table.shard_blocks:
                raise ConfigurationError(
                    f"remap table slot {slot} outside "
                    f"[0, {table.shard_blocks})")
            decoder._owner[address] = shard
            decoder._slot[address] = slot
        return decoder


__all__ = ["BalancedDecoder", "RemapTable", "movers_mask"]

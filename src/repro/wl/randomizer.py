"""Static address randomizers.

Start-Gap alone only shifts addresses by one position per gap move, which
leaves spatial correlation intact; the published scheme therefore composes
it with a *static random bijection* of the address space ("Randomized
Start-Gap").  This module provides the bijections:

* :class:`FeistelRandomizer` — a keyed Feistel network, the hardware-
  realistic choice (constant logic, no table).  Domains that are not a power
  of two are handled with cycle-walking: apply the permutation of the next
  power of two repeatedly until the value lands inside the domain (a
  standard format-preserving-encryption construction; still a bijection).
  The modelled hardware computes the network per access; the simulator
  evaluates it once over the whole domain at construction and looks the
  result up, which is exact because the keys never change.
* :class:`PermutationRandomizer` — an explicit random permutation table;
  the gold standard the Feistel network approximates.
* :class:`IdentityRandomizer` — no randomization (ablations; shows the
  spatial-correlation weakness).
* :class:`RestrictedRandomizer` — the *handicapped* randomization LLS must
  adopt (Section IV-D): addresses in the lower half may only randomize into
  the upper half and vice versa, which keeps concentrated writes from being
  fully spread.  For odd domains the last address maps to itself.
"""

from __future__ import annotations

import numpy as np

from ..errors import AddressError, ConfigurationError
from ..rng import SeedLike, make_rng

_MASK64 = (1 << 64) - 1


class AddressRandomizer:
    """A seeded bijection over ``[0, size)``, held as a lookup table.

    Each subclass builds ``_table`` (address -> randomized address) in its
    constructor and calls :meth:`_set_table`, which derives ``_inverse``.
    """

    _table: np.ndarray
    _inverse: np.ndarray

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ConfigurationError("randomizer size must be positive")
        self.size = size

    def _set_table(self, table: np.ndarray) -> None:
        self._table = table.astype(np.int64)
        self._inverse = np.empty(self.size, dtype=np.int64)
        self._inverse[self._table] = np.arange(self.size, dtype=np.int64)

    def forward(self, address: int) -> int:
        """Randomize *address*."""
        if not 0 <= address < self.size:
            self._check(address)  # raises
        return self._table.item(address)

    def backward(self, address: int) -> int:
        """Invert :meth:`forward`."""
        if not 0 <= address < self.size:
            self._check(address)  # raises
        return self._inverse.item(address)

    def forward_many(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`forward`."""
        return self._table[np.asarray(addresses, dtype=np.int64)]

    def backward_many(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`backward`."""
        return self._inverse[np.asarray(addresses, dtype=np.int64)]

    def _check(self, address: int) -> int:
        if not 0 <= address < self.size:
            raise AddressError(f"address {address} outside [0, {self.size})")
        return address


class IdentityRandomizer(AddressRandomizer):
    """No randomization at all."""

    def __init__(self, size: int) -> None:
        super().__init__(size)
        self._set_table(np.arange(size, dtype=np.int64))


class PermutationRandomizer(AddressRandomizer):
    """Explicit random permutation (table-based)."""

    def __init__(self, size: int, seed: SeedLike = None) -> None:
        super().__init__(size)
        self._set_table(make_rng(seed).permutation(size))


class FeistelRandomizer(AddressRandomizer):
    """Keyed balanced Feistel network with cycle-walking."""

    def __init__(self, size: int, seed: SeedLike = None, rounds: int = 4) -> None:
        super().__init__(size)
        if rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        self.rounds = rounds
        # Width of the enclosing power-of-two domain, forced even so the
        # Feistel halves are balanced.
        bits = max(2, (size - 1).bit_length())
        if bits % 2:
            bits += 1
        self._bits = bits
        self._half = bits // 2
        self._half_mask = (1 << self._half) - 1
        rng = make_rng(seed)
        self._keys = [int(k) for k in rng.integers(0, _MASK64, size=rounds,
                                                   dtype=np.uint64)]
        # Cycle-walk the whole domain through the vector network once.
        table = self._permute_pow2_vec(np.arange(size, dtype=np.uint64))
        walk = table >= size
        while walk.any():
            table[walk] = self._permute_pow2_vec(table[walk])
            walk = table >= size
        self._set_table(table)

    # ------------------------------------------------------------- internals

    def _round_fn(self, value: int, key: int) -> int:
        """Keyed mixing function of one Feistel round (any function works)."""
        x = (value * 0x9E3779B97F4A7C15 + key) & _MASK64
        x ^= x >> 29
        x = (x * 0xBF58476D1CE4E5B9) & _MASK64
        x ^= x >> 32
        return x & self._half_mask

    def _permute_pow2(self, value: int) -> int:
        left = value >> self._half
        right = value & self._half_mask
        for key in self._keys:
            left, right = right, left ^ self._round_fn(right, key)
        return (left << self._half) | right

    def _unpermute_pow2(self, value: int) -> int:
        left = value >> self._half
        right = value & self._half_mask
        for key in reversed(self._keys):
            left, right = right ^ self._round_fn(left, key), left
        return (left << self._half) | right

    # Vectorized mirrors of the scalar round functions (uint64 wraparound
    # arithmetic matches the scalar masked arithmetic exactly).

    def _round_fn_vec(self, values: np.ndarray, key: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            x = values * np.uint64(0x9E3779B97F4A7C15) + np.uint64(key)
            x ^= x >> np.uint64(29)
            x *= np.uint64(0xBF58476D1CE4E5B9)
            x ^= x >> np.uint64(32)
        return x & np.uint64(self._half_mask)

    def _permute_pow2_vec(self, values: np.ndarray) -> np.ndarray:
        left = values >> np.uint64(self._half)
        right = values & np.uint64(self._half_mask)
        for key in self._keys:
            left, right = right, left ^ self._round_fn_vec(right, key)
        return (left << np.uint64(self._half)) | right

    def _unpermute_pow2_vec(self, values: np.ndarray) -> np.ndarray:
        left = values >> np.uint64(self._half)
        right = values & np.uint64(self._half_mask)
        for key in reversed(self._keys):
            left, right = right ^ self._round_fn_vec(left, key), left
        return (left << np.uint64(self._half)) | right


class RestrictedRandomizer(AddressRandomizer):
    """LLS's half-space-restricted randomization.

    Lower-half addresses randomize only into the upper half and vice versa;
    for an odd *size* the middle element is fixed.  This is the adaptation
    the paper identifies as the reason LLS's leveling is weaker: a hot
    region confined to one half lands in a single target half instead of
    spreading over the whole space.
    """

    def __init__(self, size: int, seed: SeedLike = None) -> None:
        super().__init__(size)
        rng = make_rng(seed)
        h = size // 2
        # Lower half -> upper-half positions, then upper -> lower (draw
        # order fixed: it decides every seeded permutation).
        table = np.arange(size, dtype=np.int64)
        table[:h] = rng.permutation(h) + h
        table[h:2 * h] = rng.permutation(h)
        self._set_table(table)


def make_randomizer(kind: str, size: int, seed: SeedLike = None,
                    rounds: int = 4) -> AddressRandomizer:
    """Factory keyed by the config string (see ``StartGapConfig.randomizer``)."""
    if kind == "feistel":
        return FeistelRandomizer(size, seed=seed, rounds=rounds)
    if kind == "permutation":
        return PermutationRandomizer(size, seed=seed)
    if kind == "identity":
        return IdentityRandomizer(size)
    if kind == "restricted":
        return RestrictedRandomizer(size, seed=seed)
    raise ConfigurationError(f"unknown randomizer kind {kind!r}")

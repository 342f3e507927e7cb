"""Configuration dataclasses shared across the simulator.

The paper's experimental setup (Section IV-A):

* PCM cell sustains about 1e8 writes, normally distributed, lifetime CoV 0.2;
* memory block = 64 B (the last-level cacheline);
* OS page = 4 KB (64 blocks per page);
* chip = 1 GB;
* the chip is declared dead once 30 % of its blocks have failed;
* Start-Gap performs one gap movement every ψ = 100 writes.

Simulating 1 GB at 1e8 writes/cell write-by-write is not tractable in pure
Python, so the experiments run *scaled* chips: fewer blocks and
proportionally lower endurance.  All of the paper's results are about
shapes and orderings (who wins, where curves cross), which are preserved
under this scaling.  A chip's geometry and endurance are given directly
to :class:`~repro.pcm.AddressGeometry` and
:class:`~repro.pcm.EnduranceModel`; the chip-death fraction and write
budget belong to the engine that runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError


@dataclass(frozen=True)
class StartGapConfig:
    """Start-Gap wear-leveling parameters (Qureshi et al., MICRO'09)."""

    #: Perform one gap movement for every ``psi`` software writes.
    psi: int = 100
    #: Address randomizer: ``"feistel"`` (hardware-faithful, power-of-two
    #: spaces), ``"permutation"`` (any size) or ``"identity"`` (no
    #: randomization; exposes spatial correlation, used in ablations).
    randomizer: str = "feistel"
    #: Feistel rounds when ``randomizer == "feistel"``.
    feistel_rounds: int = 4
    #: Seed for the static randomization.
    seed: int = 2

    def __post_init__(self) -> None:
        if self.psi <= 0:
            raise ConfigurationError("psi must be positive")
        if self.randomizer not in ("feistel", "permutation", "identity"):
            raise ConfigurationError(f"unknown randomizer {self.randomizer!r}")
        if self.feistel_rounds < 1:
            raise ConfigurationError("feistel_rounds must be >= 1")


@dataclass(frozen=True)
class SecurityRefreshConfig:
    """Single-level Security Refresh parameters (Seong et al., ISCA'10)."""

    #: Refresh one address for every ``refresh_interval`` writes to a region.
    refresh_interval: int = 100
    #: Seed for the per-round random keys.
    seed: int = 3

    def __post_init__(self) -> None:
        if self.refresh_interval <= 0:
            raise ConfigurationError("refresh_interval must be positive")


@dataclass(frozen=True)
class ReviverConfig:
    """WL-Reviver framework parameters (Section III)."""

    #: PAs at the tail of each acquired page reserved for inverse pointers.
    #: Paper example: 64-block page, 32-bit pointers, 16 pointers per block
    #: -> 4 pointer blocks, 60 virtual shadow slots.
    pointer_bits: int = 32
    #: Number of redundant copies of the retired-page bitmap kept in PCM.
    bitmap_replicas: int = 2
    #: When True, run the Theorem 1-3 invariant checkers after every reviver
    #: state change (slow; enabled in tests).
    check_invariants: bool = False

    def __post_init__(self) -> None:
        if self.pointer_bits <= 0 or self.pointer_bits % 8:
            raise ConfigurationError("pointer_bits must be a positive multiple of 8")
        if self.bitmap_replicas < 1:
            raise ConfigurationError("bitmap_replicas must be >= 1")

    def pointer_section_blocks(self, blocks_per_page: int, block_bytes: int) -> int:
        """Blocks per page reserved for inverse pointers.

        Solves for the smallest pointer section such that the remaining PAs
        (the virtual-shadow section) all fit their inverse pointers:
        with ``p`` pointer blocks and ``k`` pointers per block we need
        ``p * k >= blocks_per_page - p``.
        """
        pointers_per_block = (block_bytes * 8) // self.pointer_bits
        if pointers_per_block <= 0:
            raise ConfigurationError("pointer does not fit in one block")
        section = 1
        while section * pointers_per_block < blocks_per_page - section:
            section += 1
        if section >= blocks_per_page:
            raise ConfigurationError("pointer section would consume the whole page")
        return section


@dataclass(frozen=True)
class LLSConfig:
    """LLS baseline parameters (Jiang et al., TACO'13, as described in §II)."""

    #: Blocks per reservation chunk.  Paper default is 64 MB; scaled down by
    #: default to keep proportion with the scaled chip.
    chunk_blocks: int = 1 << 10
    #: Number of salvaging groups the block space is partitioned into.
    num_groups: int = 16

    def __post_init__(self) -> None:
        if self.chunk_blocks <= 0:
            raise ConfigurationError("chunk_blocks must be positive")
        if self.num_groups <= 0:
            raise ConfigurationError("num_groups must be positive")


@dataclass(frozen=True)
class CacheConfig:
    """Remap cache used in Table II (32 KB for a 1 GB chip)."""

    #: Number of remap entries the cache can hold.
    capacity_entries: int = 4096
    #: Associativity of the cache (entries per set).
    associativity: int = 8

    def __post_init__(self) -> None:
        if self.capacity_entries <= 0:
            raise ConfigurationError("capacity_entries must be positive")
        if self.associativity <= 0:
            raise ConfigurationError("associativity must be positive")
        if self.capacity_entries % self.associativity:
            raise ConfigurationError("capacity must be a multiple of associativity")

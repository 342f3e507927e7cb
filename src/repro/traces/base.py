"""Trace interfaces.

A :class:`WriteTrace` produces virtual-block write addresses two ways:

* one at a time (:meth:`next_write`) for the exact engine;
* as per-block counts over a batch (:meth:`batch_counts`) for the fast
  engine, which applies a whole batch of writes vectorized.

:class:`DistributionTrace` is the stationary case — a fixed probability
vector over the virtual block space — which covers both the synthetic
benchmark models and the attack streams the paper considers (wear-leveling
analysis traditionally assumes stationary write distributions; the schemes
themselves are history-less).
"""

from __future__ import annotations

import abc
from array import array
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, derive_rng


def checked_probabilities(raw: np.ndarray) -> np.ndarray:
    """*raw* as float64 weights divided by their sum.

    Rejects an empty, negative or zero-mass vector; the division is the
    one normalisation every address law in the package shares.
    """
    probabilities = np.asarray(raw, dtype=np.float64)
    total = probabilities.sum()
    if len(probabilities) == 0 or total <= 0 or (probabilities < 0).any():
        raise ConfigurationError("probabilities must be non-negative, sum > 0")
    return probabilities / total


def fold_probabilities(probabilities: np.ndarray,
                       virtual_blocks: int) -> np.ndarray:
    """*probabilities* folded onto *virtual_blocks* blocks (tail wraps)."""
    folded = np.zeros(virtual_blocks, dtype=np.float64)
    for start in range(0, len(probabilities), virtual_blocks):
        chunk = probabilities[start:start + virtual_blocks]
        folded[:len(chunk)] += chunk
    return folded


class WriteTrace(abc.ABC):
    """A stream of virtual-block write addresses."""

    def __init__(self, virtual_blocks: int, name: str = "trace") -> None:
        if virtual_blocks <= 0:
            raise ConfigurationError("virtual_blocks must be positive")
        self.virtual_blocks = virtual_blocks
        self.name = name

    @abc.abstractmethod
    def next_write(self) -> int:
        """Next virtual block address to write."""

    @abc.abstractmethod
    def batch_counts(self, batch: int) -> np.ndarray:
        """Per-virtual-block write counts for the next *batch* writes."""

    @abc.abstractmethod
    def restricted_to(self, virtual_blocks: int) -> "WriteTrace":
        """This trace folded onto a space of *virtual_blocks* blocks.

        Engines whose software space is smaller than the trace's call
        this; a trace that already fits returns itself.
        """

    def reset(self) -> None:
        """Restart the stream (optional for stationary traces)."""


class DistributionTrace(WriteTrace):
    """Stationary trace: i.i.d. draws from a fixed block distribution."""

    def __init__(self, probabilities: np.ndarray, name: str = "distribution",
                 seed: SeedLike = None) -> None:
        self.probabilities = checked_probabilities(probabilities)
        super().__init__(len(self.probabilities), name=name)
        self._seed = seed
        self._rng = derive_rng(seed, f"trace-{name}")
        # Buffered single draws so next_write() amortizes generator calls.
        self._buffer: Optional[np.ndarray] = None
        self._buffer_pos = 0

    def next_write(self) -> int:
        if self._buffer is None or self._buffer_pos >= len(self._buffer):
            self._buffer = self._rng.choice(
                self.virtual_blocks, size=4096, p=self.probabilities)
            self._buffer_pos = 0
        value = int(self._buffer[self._buffer_pos])
        self._buffer_pos += 1
        return value

    def batch_counts(self, batch: int) -> np.ndarray:
        return self._rng.multinomial(batch, self.probabilities)

    def reset(self) -> None:
        self._rng = derive_rng(self._seed, f"trace-{self.name}")
        self._buffer = None
        self._buffer_pos = 0

    def request_stream(self, write_ratio: float = 0.5,
                       name: Optional[str] = None) -> "RequestStream":
        """A read/write request stream drawing addresses from this trace.

        *name* names the stream's draws apart from the distribution, so
        several consumers (the serving layer's clients) can share one
        address law while drawing disjoint streams.
        """
        return RequestStream(self.probabilities, write_ratio=write_ratio,
                             name=self.name if name is None else name,
                             seed=self._seed)

    def restricted_to(self, virtual_blocks: int) -> "DistributionTrace":
        """Fold the distribution onto a smaller virtual space.

        Used when an engine's software space is smaller than the space the
        distribution was built for: the tail mass wraps around, preserving
        hot-set structure.
        """
        if virtual_blocks >= self.virtual_blocks:
            return self
        return DistributionTrace(
            fold_probabilities(self.probabilities, virtual_blocks),
            name=f"{self.name}-folded", seed=self._seed)


class RequestStream:
    """Deterministic stream of ``(address, is_write)`` service requests.

    Write traces model the address stream a wear-leveler sees; the online
    serving layer additionally needs the read/write *mix*, because only
    writes wear the device while both kinds occupy queue slots and service
    time.  A :class:`RequestStream` draws both from one generator derived
    from ``(seed, name)``, so two streams built with the same pair replay
    the exact same requests — the property the serving layer's per-client
    load generators lean on for byte-identical runs at any worker count.
    """

    _BUFFER = 4096

    def __init__(self, probabilities: np.ndarray, write_ratio: float = 0.5,
                 name: str = "requests", seed: SeedLike = None) -> None:
        if not 0.0 <= write_ratio <= 1.0:
            raise ConfigurationError("write_ratio must be in [0, 1]")
        self.probabilities = checked_probabilities(probabilities)
        self.virtual_blocks = len(self.probabilities)
        self.write_ratio = write_ratio
        self.name = name
        self._seed = seed
        self._rng = derive_rng(seed, f"requests-{name}")
        # Draw buffers, unboxed: items index straight to Python ints.
        self._addresses: Optional[array[int]] = None
        self._writes: Optional[bytes] = None
        self._pos = 0

    def next_request(self) -> Tuple[int, bool]:
        """Next request as ``(virtual address, is_write)``."""
        if self._addresses is None or self._writes is None \
                or self._pos >= len(self._addresses):
            addresses = self._rng.choice(
                self.virtual_blocks, size=self._BUFFER, p=self.probabilities)
            writes = self._rng.random(self._BUFFER) < self.write_ratio
            self._addresses = array(
                "q", addresses.astype(np.int64).tobytes())
            self._writes = writes.tobytes()
            self._pos = 0
        pos = self._pos
        self._pos = pos + 1
        return self._addresses[pos], self._writes[pos] == 1

    def reset(self) -> None:
        """Restart the stream from its first request."""
        self._rng = derive_rng(self._seed, f"requests-{self.name}")
        self._addresses = None
        self._writes = None
        self._pos = 0

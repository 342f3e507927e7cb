"""Composable deterministic workload generators.

A :class:`Workload` is a request-level generalization of the trace
substrate: where :class:`~repro.traces.base.WriteTrace` emits write
addresses and :class:`~repro.traces.base.RequestStream` emits an i.i.d.
read/write mix, a workload emits ``(address, is_write)`` requests whose
address law and mix may *shift over phases* — the piecewise-stationary
traffic the serving layer and the FTL see in practice.

Determinism discipline (the same contract as
:class:`~repro.array.trace.SegmentedTrace`):

* every ``(phase, cycle)`` pair owns an independent generator derived
  from the workload seed and the pair's *indices*, never its content, so
  appending a phase cannot perturb the draws of any earlier phase;
* draws happen in fixed :data:`CHUNK`-sized chunks within a phase, so
  the stream is identical whether consumed one request at a time
  (``take(1)``) or in bulk (:meth:`Workload.take`).

The serving layer draws its i.i.d. client streams straight from an
address law (:meth:`~repro.traces.base.DistributionTrace.request_stream`);
the batch engines see recorded traffic through
:class:`~repro.workloads.tracefile.TraceReplay`, which is also a
:class:`~repro.traces.base.WriteTrace`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, derive_rng
from ..traces import zipf_distribution
from ..traces.base import checked_probabilities

#: Fixed draw-chunk size: the stream is chunked at these boundaries no
#: matter how it is consumed, which is what makes ``take(1)`` n times
#: byte-identical to one ``take(n)``.
CHUNK = 4096


@dataclass(frozen=True)
class Phase:
    """One stationary stretch of a workload.

    ``requests`` draws from ``probabilities`` with the given read/write
    mix, then the workload moves on to the next phase.
    """

    requests: int
    probabilities: np.ndarray
    write_ratio: float = 0.5

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ConfigurationError("phase needs >= 1 requests")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ConfigurationError("write_ratio must be in [0, 1]")
        object.__setattr__(self, "probabilities",
                           checked_probabilities(self.probabilities))


class Workload(abc.ABC):
    """A deterministic stream of ``(address, is_write)`` requests."""

    def __init__(self, virtual_blocks: int, name: str = "workload") -> None:
        if virtual_blocks <= 0:
            raise ConfigurationError("virtual_blocks must be positive")
        self.virtual_blocks = virtual_blocks
        self.name = name

    @abc.abstractmethod
    def take(self, count: int) -> np.ndarray:
        """Next *count* requests as an ``(count, 2)`` int64 array.

        Column 0 is the virtual address, column 1 the write flag (0/1).
        """

    @abc.abstractmethod
    def reset(self) -> None:
        """Restart the stream from its first request."""


class PhasedWorkload(Workload):
    """Phases played in order, cycling forever with fresh derived streams.

    Cycle ``c`` of phase ``k`` draws from
    ``derive_rng(seed, f"workload-{name}-p{k}-c{c}")`` in fixed
    :data:`CHUNK`-sized chunks — so a prefix of the stream is a pure
    function of the phases it spans, and appending phases (or wrapping
    into the next cycle) can never rewrite it.
    """

    def __init__(self, phases: Sequence[Phase], name: str = "phased",
                 seed: SeedLike = None) -> None:
        if not phases:
            raise ConfigurationError("PhasedWorkload needs >= 1 phase")
        width = len(phases[0].probabilities)
        for phase in phases:
            if len(phase.probabilities) != width:
                raise ConfigurationError(
                    "all phases must cover the same virtual space")
        super().__init__(width, name=name)
        self.phases = list(phases)
        self._seed = seed
        self.reset()

    def reset(self) -> None:
        self._cycle = 0
        self._phase = 0
        self._pos = 0          # requests consumed within the active phase
        self._buffer: Optional[np.ndarray] = None
        self._buffer_pos = 0
        self._rng = self._phase_rng()

    def _phase_rng(self) -> np.random.Generator:
        return derive_rng(
            self._seed,
            f"workload-{self.name}-p{self._phase}-c{self._cycle}")

    def _advance_phase(self) -> None:
        self._phase += 1
        if self._phase >= len(self.phases):
            self._phase = 0
            self._cycle += 1
        self._pos = 0
        self._buffer = None
        self._rng = self._phase_rng()

    def _refill(self) -> None:
        phase = self.phases[self._phase]
        size = min(CHUNK, phase.requests - self._pos)
        addresses = self._rng.choice(self.virtual_blocks, size=size,
                                     p=phase.probabilities)
        writes = self._rng.random(size) < phase.write_ratio
        self._buffer = np.column_stack(
            [addresses.astype(np.int64), writes.astype(np.int64)])
        self._buffer_pos = 0

    def take(self, count: int) -> np.ndarray:
        if count < 0:
            raise ConfigurationError("count must be >= 0")
        rows: List[np.ndarray] = []
        remaining = count
        while remaining > 0:
            if self._pos >= self.phases[self._phase].requests:
                self._advance_phase()
            if self._buffer is None \
                    or self._buffer_pos >= len(self._buffer):
                self._refill()
            assert self._buffer is not None
            chunk = self._buffer[self._buffer_pos:
                                 self._buffer_pos + remaining]
            rows.append(chunk)
            self._buffer_pos += len(chunk)
            self._pos += len(chunk)
            remaining -= len(chunk)
        if not rows:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(rows, axis=0)


class SequentialWorkload(Workload):
    """Strided sequential sweep with a drawn read/write mix.

    Addresses are the deterministic arithmetic stream
    ``(start + i * stride) mod virtual_blocks``; only the write flags
    consume randomness (chunked like every other workload).
    """

    def __init__(self, virtual_blocks: int, start: int = 0, stride: int = 1,
                 write_ratio: float = 0.5, name: str = "sequential",
                 seed: SeedLike = None) -> None:
        super().__init__(virtual_blocks, name=name)
        if stride == 0:
            raise ConfigurationError("stride must be non-zero")
        if not 0.0 <= write_ratio <= 1.0:
            raise ConfigurationError("write_ratio must be in [0, 1]")
        self.start = start % virtual_blocks
        self.stride = stride
        self.write_ratio = write_ratio
        self._seed = seed
        self.reset()

    def reset(self) -> None:
        self._position = 0
        self._flags: Optional[np.ndarray] = None
        self._flags_pos = 0
        self._rng = derive_rng(self._seed, f"workload-{self.name}-flags")

    def take(self, count: int) -> np.ndarray:
        if count < 0:
            raise ConfigurationError("count must be >= 0")
        rows: List[np.ndarray] = []
        remaining = count
        while remaining > 0:
            if self._flags is None or self._flags_pos >= len(self._flags):
                self._flags = (self._rng.random(CHUNK)
                               < self.write_ratio).astype(np.int64)
                self._flags_pos = 0
            size = min(remaining, len(self._flags) - self._flags_pos)
            index = self._position + np.arange(size, dtype=np.int64)
            addresses = (self.start + index * self.stride) \
                % self.virtual_blocks
            flags = self._flags[self._flags_pos:self._flags_pos + size]
            rows.append(np.column_stack([addresses, flags]))
            self._position += size
            self._flags_pos += size
            remaining -= size
        if not rows:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(rows, axis=0)


# ------------------------------------------------------------- builders


def uniform_workload(virtual_blocks: int, requests: int = 4096,
                     write_ratio: float = 0.5, name: str = "uniform",
                     seed: SeedLike = None) -> PhasedWorkload:
    """Uniform addresses with a read/write mix, one stationary phase."""
    probabilities = np.full(virtual_blocks, 1.0 / virtual_blocks)
    return PhasedWorkload(
        [Phase(requests, probabilities, write_ratio)], name=name, seed=seed)


def zipf_workload(virtual_blocks: int, exponent: float = 1.0,
                  requests: int = 4096, write_ratio: float = 0.5,
                  target_cov: Optional[float] = None, name: str = "zipf",
                  seed: SeedLike = None) -> PhasedWorkload:
    """Zipf-popular addresses (seeded rank permutation) with a mix.

    The address law is exactly
    :func:`~repro.traces.synthetic.zipf_distribution` with the same
    arguments, so serving-layer and batch experiments agree on it.
    """
    trace = zipf_distribution(virtual_blocks, exponent=exponent,
                              target_cov=target_cov, name=name, seed=seed)
    return PhasedWorkload(
        [Phase(requests, trace.probabilities, write_ratio)],
        name=name, seed=seed)


def phase_shifting_hotspot(virtual_blocks: int, phases: int = 4,
                           phase_requests: int = 4096,
                           hot_fraction: float = 0.1,
                           hot_share: float = 0.9,
                           write_ratio: float = 0.5,
                           name: str = "hotshift",
                           seed: SeedLike = None) -> PhasedWorkload:
    """A contiguous hot set that rotates around the space each phase.

    Phase ``k`` concentrates *hot_share* of the traffic on a contiguous
    run of ``hot_fraction * virtual_blocks`` blocks starting at offset
    ``k * virtual_blocks / phases`` — the moving working set that defeats
    purely stationary wear models.
    """
    if phases < 1:
        raise ConfigurationError("need >= 1 phases")
    if not 0.0 < hot_fraction < 1.0:
        raise ConfigurationError("hot_fraction must be in (0, 1)")
    if not 0.0 <= hot_share <= 1.0:
        raise ConfigurationError("hot_share must be in [0, 1]")
    hot_blocks = max(1, round(hot_fraction * virtual_blocks))
    if hot_blocks >= virtual_blocks:
        raise ConfigurationError("hot set cannot cover the whole space")
    phase_list: List[Phase] = []
    for k in range(phases):
        probabilities = np.full(
            virtual_blocks,
            (1.0 - hot_share) / (virtual_blocks - hot_blocks))
        offset = (k * virtual_blocks) // phases
        idx = (offset + np.arange(hot_blocks)) % virtual_blocks
        probabilities[idx] = hot_share / hot_blocks
        phase_list.append(Phase(phase_requests, probabilities, write_ratio))
    return PhasedWorkload(phase_list, name=name, seed=seed)


__all__ = [
    "CHUNK", "Phase", "Workload", "PhasedWorkload", "SequentialWorkload",
    "uniform_workload", "zipf_workload", "phase_shifting_hotspot",
]

"""A write trace whose distribution changes at scheduled write counts.

Degraded-mode operation re-decodes a dead shard's traffic onto the
survivors, so a surviving shard's local write stream is *piecewise
stationary*: one distribution up to the re-decode point, another after
it.  :class:`SegmentedTrace` models exactly that — an ordered list of
``(start_write, probabilities)`` segments over one virtual block space.

Replay determinism is the load-bearing property.  The array engine
steps its live shards in lockstep on the global clock, so when a death or
a control event changes a shard's traffic, the shard has not yet passed
the epoch boundary where the change starts, and
:meth:`SegmentedTrace.reschedule` hands its trace the new segments from
that boundary on.  A survivor tied with a death may already have stepped
past the death's boundary; the engine's ``_repair_ties`` rebuilds that
shard and runs it fresh from its segments to the boundary.  Either way
the result must equal a fresh run over the final segment list, so the
shared prefix must reproduce **byte-identical** draws.  Two design points
guarantee it:

* every segment owns an independent generator derived from the trace seed
  and the segment *index* (not its content), so appending or replacing
  segment ``k+1`` cannot perturb segment ``k``'s stream;
* a ``batch_counts`` call that falls entirely inside one segment issues
  exactly one multinomial draw from that segment's generator, so as long
  as the caller keeps segment boundaries on epoch boundaries (the array
  engine quantizes them), the draw sequence of a prefix is independent of
  what comes later.
"""

from __future__ import annotations

import bisect
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, derive_rng
from ..traces.base import WriteTrace


def _normalized(segments: Sequence[Tuple[int, np.ndarray]],
                ) -> Tuple[List[int], List[np.ndarray]]:
    """Validated segment starts and tables, each table summing to 1."""
    if not segments:
        raise ConfigurationError("SegmentedTrace needs >= 1 segment")
    starts: List[int] = []
    tables: List[np.ndarray] = []
    width = -1
    for start, raw in segments:
        probabilities = np.asarray(raw, dtype=np.float64)
        if width < 0:
            width = len(probabilities)
        elif len(probabilities) != width:
            raise ConfigurationError(
                "all segments must cover the same virtual space")
        total = probabilities.sum()
        if total <= 0 or (probabilities < 0).any():
            raise ConfigurationError(
                "segment probabilities must be non-negative, sum > 0")
        starts.append(int(start))
        tables.append(probabilities / total)
    if starts[0] != 0:
        raise ConfigurationError("first segment must start at write 0")
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise ConfigurationError(
            "segment starts must be strictly increasing")
    return starts, tables


class SegmentedTrace(WriteTrace):
    """Piecewise-stationary trace: scheduled distribution switches."""

    def __init__(self, segments: Sequence[Tuple[int, np.ndarray]],
                 name: str = "segmented", seed: SeedLike = None) -> None:
        starts, tables = _normalized(segments)
        super().__init__(len(tables[0]), name=name)
        self._starts = starts
        self._tables = tables
        self._seed = seed
        self._rngs = [self._segment_rng(k) for k in range(len(starts))]
        #: Total writes drawn so far (selects the active segment).
        self._position = 0

    def _segment_rng(self, index: int) -> np.random.Generator:
        """The generator segment *index* starts drawing from."""
        return derive_rng(self._seed, f"segtrace-{self.name}-{index}")

    @property
    def position(self) -> int:
        """Writes drawn since construction or the last :meth:`reset`."""
        return self._position

    @property
    def num_segments(self) -> int:
        """Number of distribution segments."""
        return len(self._starts)

    def _segment_index(self, position: int) -> int:
        return bisect.bisect_right(self._starts, position) - 1

    # --------------------------------------------------------------- drawing

    def next_write(self) -> int:
        index = self._segment_index(self._position)
        value = int(self._rngs[index].choice(self.virtual_blocks,
                                             p=self._tables[index]))
        self._position += 1
        return value

    def batch_counts(self, batch: int) -> np.ndarray:
        """Per-block counts for the next *batch* writes, segment-aware.

        A batch spanning a boundary is split there, each piece drawn from
        its own segment's generator — correct at any alignment, and one
        single full-batch draw in the aligned case the engine arranges.
        """
        counts = np.zeros(self.virtual_blocks, dtype=np.int64)
        remaining = batch
        while remaining > 0:
            index = self._segment_index(self._position)
            if index + 1 < len(self._starts):
                room = self._starts[index + 1] - self._position
            else:
                room = remaining
            take = min(remaining, room)
            counts += self._rngs[index].multinomial(take,
                                                    self._tables[index])
            self._position += take
            remaining -= take
        return counts

    def reset(self) -> None:
        self._rngs = [self._segment_rng(k) for k in range(len(self._starts))]
        self._position = 0

    def reschedule(self, segments: Sequence[Tuple[int, np.ndarray]]) -> None:
        """Replace the segments the trace has not reached yet.

        Segments starting at or after :attr:`position` give way to those
        of *segments*, each new segment ``k`` drawing from the generator
        the constructor would give it.  The segments already drawn from
        must reappear unchanged, same starts and same tables, or
        :class:`ConfigurationError` is raised: the draws already taken
        came from them.  Afterwards the trace draws exactly as a fresh
        trace over *segments* would after replaying the same prefix.
        """
        starts, tables = _normalized(segments)
        if len(tables[0]) != self.virtual_blocks:
            raise ConfigurationError(
                "all segments must cover the same virtual space")
        drawn = bisect.bisect_left(self._starts, self._position)
        if (bisect.bisect_left(starts, self._position) != drawn
                or starts[:drawn] != self._starts[:drawn]
                or not all(np.array_equal(new, old) for new, old
                           in zip(tables, self._tables[:drawn]))):
            raise ConfigurationError(
                f"trace {self.name!r} cannot change the segments it drew "
                f"its first {self._position} writes from")
        self._starts = starts
        self._tables = tables
        self._rngs = self._rngs[:drawn] + [
            self._segment_rng(k) for k in range(drawn, len(starts))]

    # --------------------------------------------------------------- folding

    def restricted_to(self, virtual_blocks: int) -> "SegmentedTrace":
        """Fold every segment onto a smaller virtual space (tail wraps)."""
        if virtual_blocks >= self.virtual_blocks:
            return self
        folded: List[Tuple[int, np.ndarray]] = []
        for start, table in zip(self._starts, self._tables):
            squeezed = np.zeros(virtual_blocks, dtype=np.float64)
            for base in range(0, self.virtual_blocks, virtual_blocks):
                chunk = table[base:base + virtual_blocks]
                squeezed[:len(chunk)] += chunk
            folded.append((start, squeezed))
        return SegmentedTrace(folded, name=f"{self.name}-folded",
                              seed=self._seed)

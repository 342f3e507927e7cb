"""Metric collectors shared by both engines.

The paper reports three families of results:

* **lifetime** — software writes sustained until a target fraction of
  blocks has failed (Figure 5 uses 30 %);
* **survival-rate curves** — percentage of blocks still alive versus
  writes (Figure 6), and the usable-space analogues (Figures 7-8);
* **access time** — PCM accesses per software request (Table II).

:class:`LifetimeSeries` samples all of them on a fixed write grid so
different configurations can be compared point-by-point.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..errors import ConfigurationError


@dataclass(frozen=True)
class SamplePoint:
    """One sample of the chip's state."""

    #: Software writes serviced so far.
    writes: int
    #: Fraction of device blocks still healthy.
    survival: float
    #: Fraction of the chip usable by software (pages still in the pool).
    usable: float
    #: Mean PCM accesses per software request so far (0 if untracked).
    avg_access: float = 0.0


@dataclass
class LifetimeSeries:
    """Append-only series of :class:`SamplePoint`, with query helpers."""

    label: str = ""
    points: List[SamplePoint] = field(default_factory=list)

    def record(self, writes: int, survival: float, usable: float,
               avg_access: float = 0.0) -> None:
        """Append a sample (writes must be non-decreasing)."""
        self.points.append(SamplePoint(writes, survival, usable, avg_access))

    # ----------------------------------------------------------------- query

    @property
    def total_writes(self) -> int:
        """Writes at the last sample."""
        return self.points[-1].writes if self.points else 0

    def writes_to_usable(self, threshold: float) -> Optional[int]:
        """First sampled write count at which usable space drops that low."""
        for point in self.points:
            if point.usable <= threshold:
                return point.writes
        return None

    def sample_at(self, writes: int) -> SamplePoint:
        """Latest sample not after *writes* (carry-forward semantics).

        Before the first sample the chip is pristine, so the synthetic
        point ``SamplePoint(0, 1.0, 1.0)`` is returned.
        """
        return self._sample_in([p.writes for p in self.points], writes)

    def _sample_in(self, keys: List[int], writes: int) -> SamplePoint:
        """:meth:`sample_at` over this series' precomputed write keys."""
        index = bisect.bisect_right(keys, writes) - 1
        if index < 0:
            return SamplePoint(0, 1.0, 1.0)
        return self.points[index]

    # ----------------------------------------------------------- combination

    @classmethod
    def merge(cls, series: Sequence["LifetimeSeries"],
              access_weights: Optional[Sequence[float]] = None,
              label: str = "merged") -> "LifetimeSeries":
        """Point-wise combination of several series onto a shared grid.

        Each input series describes one device (or shard) of a larger
        aggregate.  At every write count any series sampled, the merged
        sample is:

        * ``survival`` / ``usable`` — the mean of each series'
          carry-forward sample;
        * ``avg_access`` — weighted by *access_weights* (default: equal)
          times the writes each series has absorbed so far, so devices
          that serviced more traffic dominate the mean (0 while nothing
          has been written).
        """
        if not series:
            raise ConfigurationError("merge() needs at least one series")
        if access_weights is None:
            access_weights = [1.0] * len(series)
        if len(access_weights) != len(series):
            raise ConfigurationError(
                f"{len(series)} series but {len(access_weights)} access weights")
        grid = sorted({p.writes for one in series for p in one.points})
        keys = [[p.writes for p in one.points] for one in series]
        merged = cls(label=label)
        for writes in grid:
            samples = [one._sample_in(k, writes)
                       for one, k in zip(series, keys)]
            survival = sum(s.survival for s in samples) / len(series)
            usable = sum(s.usable for s in samples) / len(series)
            access_mass = sum(a * s.writes
                              for a, s in zip(access_weights, samples))
            if access_mass > 0:
                avg_access = sum(a * s.writes * s.avg_access
                                 for a, s in zip(access_weights, samples)
                                 ) / access_mass
            else:
                avg_access = 0.0
            merged.record(int(writes), survival, usable, avg_access)
        return merged

    # ------------------------------------------------------------- transport

    def to_payload(self) -> dict:
        """Plain-data form (JSON-safe) for cross-process transport."""
        return {"writes": [p.writes for p in self.points],
                "survival": [p.survival for p in self.points],
                "usable": [p.usable for p in self.points],
                "avg_access": [p.avg_access for p in self.points]}

    @classmethod
    def from_payload(cls, payload: dict, label: str = "") -> "LifetimeSeries":
        """Rebuild a series from :meth:`to_payload` output."""
        points = [SamplePoint(int(w), float(s), float(u), float(a))
                  for w, s, u, a in zip(payload["writes"],
                                        payload["survival"],
                                        payload["usable"],
                                        payload["avg_access"])]
        return cls(label=label, points=points)


@dataclass(frozen=True)
class LifetimeSummary:
    """End-of-run summary used by the experiment tables."""

    label: str
    #: Writes sustained until the dead-fraction stop condition.
    lifetime_writes: int
    #: Survival fraction at the end of the run.
    final_survival: float
    #: Usable-space fraction at the end of the run.
    final_usable: float
    #: Mean PCM accesses per software request over the whole run.
    avg_access: float
    #: Times the OS was interrupted with an access error.
    os_reports: int = 0

    @classmethod
    def from_series(cls, series: LifetimeSeries,
                    os_reports: int = 0) -> "LifetimeSummary":
        """Summarize a finished series."""
        last = series.points[-1] if series.points else SamplePoint(0, 1.0, 1.0)
        return cls(label=series.label, lifetime_writes=last.writes,
                   final_survival=last.survival, final_usable=last.usable,
                   avg_access=last.avg_access, os_reports=os_reports)

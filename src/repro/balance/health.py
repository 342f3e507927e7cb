"""Online per-shard reliability estimation.

:class:`ShardHealthModel` turns the wear/failure telemetry each shard
round already produces into a per-shard **failure-probability
estimate** the leveler can act on.  The estimate combines two signals:

* **wear headroom** — serviced writes against the shard's nominal
  endurance budget (``device blocks x mean endurance``): a shard that
  has burned most of its budget is near death even if nothing has
  failed yet;
* **recent failure rate** — an EWMA (smoothing :data:`EWMA_ALPHA`) of
  the *increase* in the shard's failed-capacity fraction between
  observations: a shard whose failures are accelerating is riskier than
  its wear alone suggests.

The risk is ``WEAR_WEIGHT * wear + FAILURE_WEIGHT * (failed + rate)``.

Everything is deterministic and wall-clock-free: observations arrive on
the simulation's write clocks, and the only randomness is a seeded,
vanishingly small per-shard tie-break term (so rankings are total and
reproducible at any ``--jobs``).  Risk estimates publish through the
standard telemetry facade — per-shard risk as ``last``-mode gauges and
the array-wide worst headroom as a ``min``-mode gauge, the merge
policies added for exactly this model.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, derive_rng
from ..telemetry import TelemetrySession


#: Weights of the risk estimate.  It leans on wear headroom: with
#: Start-Gap + reviver in front, failed capacity stays near zero until a
#: shard is already dying, so wear is the early-warning signal and the
#: failure-rate term sharpens the ranking near end of life.
WEAR_WEIGHT = 0.7
FAILURE_WEIGHT = 0.3
#: EWMA smoothing of the failure-rate increments (1.0 = no memory).
EWMA_ALPHA = 0.5


class ShardHealthModel:
    """Deterministic per-shard failure-probability estimates."""

    def __init__(self, num_shards: int, endurance_budget: float,
                 seed: SeedLike = None) -> None:
        if num_shards < 1:
            raise ConfigurationError("health model needs >= 1 shard")
        if endurance_budget <= 0:
            raise ConfigurationError(
                f"endurance_budget must be positive, got "
                f"{endurance_budget}")
        self.endurance_budget = float(endurance_budget)
        self.seed = seed
        self._wear: List[float] = []
        self._failed: List[float] = []
        self._rate: List[float] = []
        self._dead: List[bool] = []
        self._jitter: List[float] = []
        for _ in range(num_shards):
            self.add_shard()

    @property
    def num_shards(self) -> int:
        return len(self._wear)

    def add_shard(self) -> int:
        """Track one more shard (fresh: zero wear, zero failures)."""
        shard = len(self._wear)
        self._wear.append(0.0)
        self._failed.append(0.0)
        self._rate.append(0.0)
        self._dead.append(False)
        # A seeded, vanishingly small per-shard term: orders of magnitude
        # below any real signal, it only breaks exact risk ties so the
        # ranking is total and reproducible.
        rng = derive_rng(self.seed, f"balance-health-{shard}")
        self._jitter.append(float(rng.random()) * 1e-12)
        return shard

    # ---------------------------------------------------------- observations

    def observe(self, shard: int, writes: float, failed_fraction: float,
                dead: bool = False) -> None:
        """Fold in one telemetry reading for *shard*.

        *writes* is the shard's cumulative serviced write count,
        *failed_fraction* its cumulative failed-capacity fraction; both
        are monotone over a shard's life, so re-observing an old reading
        is harmless (the EWMA sees a zero increment).
        """
        self._check(shard)
        if writes < 0 or failed_fraction < 0:
            raise ConfigurationError(
                "health observations must be non-negative")
        self._wear[shard] = min(1.0, float(writes) / self.endurance_budget)
        increment = max(0.0, float(failed_fraction) - self._failed[shard])
        self._rate[shard] = (EWMA_ALPHA * increment
                             + (1.0 - EWMA_ALPHA) * self._rate[shard])
        self._failed[shard] = max(self._failed[shard],
                                  float(failed_fraction))
        if dead:
            self._dead[shard] = True

    # ------------------------------------------------------------- estimates

    def headroom(self, shard: int) -> float:
        """Remaining endurance fraction (0 for a dead shard)."""
        self._check(shard)
        if self._dead[shard]:
            return 0.0
        return max(0.0, 1.0 - self._wear[shard])

    def risk(self, shard: int) -> float:
        """Failure-probability estimate in ``[0, 1]`` (1 once dead)."""
        self._check(shard)
        if self._dead[shard]:
            return 1.0
        raw = (WEAR_WEIGHT * self._wear[shard]
               + FAILURE_WEIGHT * (self._failed[shard]
                                   + self._rate[shard]))
        return min(1.0, raw + self._jitter[shard])

    def risks(self) -> np.ndarray:
        """Every shard's risk as one vector (index = shard id)."""
        return np.array([self.risk(i) for i in range(self.num_shards)],
                        dtype=np.float64)

    def publish(self, session: TelemetrySession) -> None:
        """Write the current estimates through the telemetry facade."""
        live_headrooms = [self.headroom(i) for i in range(self.num_shards)
                          if not self._dead[i]]
        # A fully-dead array has no headroom left, not "no reading".
        session.set_gauge("balance.headroom",
                          min(live_headrooms) if live_headrooms else 0.0,
                          mode="min")
        for i in range(self.num_shards):
            session.set_gauge(f"balance.s{i}.risk", self.risk(i),
                              mode="last")

    def _check(self, shard: int) -> None:
        if not 0 <= shard < self.num_shards:
            raise ConfigurationError(
                f"shard {shard} outside [0, {self.num_shards})")


__all__ = ["ShardHealthModel"]

"""Structured stop handling and the end-of-life report.

Both engines used to format their own ad-hoc ``stopped_reason`` strings and
let :class:`~repro.errors.CapacityExhaustedError` escape as a traceback in
some configurations.  This module makes end of life a *result*:

* :class:`StopCause` enumerates why a simulation ended; the legacy strings
  (``"dead-fraction"``, ``"capacity-lost"``, ``"max-writes"``,
  ``"exhausted: ..."``) are exactly what :meth:`StopReason.render` emits, so
  existing consumers keep working byte-for-byte;
* :class:`EndOfLifeReport` snapshots the degraded system — remaining
  capacity, the failure-chain census, how often the OS was interrupted —
  as plain JSON-ready data for experiment tables and the chaos campaigns;
* :func:`dead_count` is the one dead-fraction stop rule both engines
  test, as a failed-block count.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass
from typing import Dict, Optional


class StopCause(enum.Enum):
    """Why a simulation engine stopped."""

    #: The configured fraction of device blocks failed.
    DEAD_FRACTION = "dead-fraction"
    #: Software-usable capacity fell below the configured floor.
    CAPACITY_LOST = "capacity-lost"
    #: The configured software-write budget was spent.
    MAX_WRITES = "max-writes"
    #: A finite resource ran out (spares, OS pages); graceful end of life.
    EXHAUSTED = "exhausted"
    #: A shard device of an array died (array-level fail-stop).
    SHARD_FAILED = "shard-failed"


def dead_count(num_blocks: int, dead_fraction: float) -> int:
    """Least failed-block count *k* with ``k / num_blocks >= dead_fraction``.

    ``failed_count >= dead_count(n, f)`` is the float rule
    ``failed_count / n >= f`` at every count, because ``k / n`` rises
    with *k*; an engine computes it once and compares integers per
    write.  A fraction above 1 gives a count above *num_blocks*, which
    no chip reaches.
    """
    k = max(0, math.ceil(dead_fraction * num_blocks))
    # The product may round either way; step to the float rule's edge.
    while k > 0 and (k - 1) / num_blocks >= dead_fraction:
        k -= 1
    while k / num_blocks < dead_fraction:
        k += 1
    return k


@dataclass(frozen=True)
class StopReason:
    """A structured stop condition, render-compatible with the old strings."""

    cause: StopCause
    #: Human detail, e.g. the exhausted resource ("no usable pages ...").
    detail: str = ""

    def render(self) -> str:
        """The legacy ``stopped_reason`` string for this stop."""
        if self.detail:
            return f"{self.cause.value}: {self.detail}"
        return self.cause.value


@dataclass(frozen=True)
class EndOfLifeReport:
    """Snapshot of a simulated system at the moment it stopped.

    Everything a campaign or experiment table needs to describe *how* the
    chip degraded, without re-deriving it from engine internals.  All
    fields are JSON-serializable via :meth:`as_dict`.
    """

    #: Why the run ended (``None`` only if the engine never ran).
    stop: Optional[StopReason]
    #: Software writes serviced over the whole life.
    total_writes: int
    #: Fraction of device blocks failed at stop time.
    failed_fraction: float
    #: Software-usable fraction of the chip at stop time.
    usable_fraction: float
    #: Times the OS was interrupted by an access-error report.
    os_interruptions: int
    #: Reports that victimized a healthy write (WL-Reviver acquisition).
    victimized_writes: int
    #: Pages acquired by the recovery layer.
    pages_acquired: int
    #: Spare virtual-shadow slots still unlinked.
    spares_available: int
    #: Failure-chain census: linked blocks and how many sit on PA-DA loops.
    linked_blocks: int
    pa_da_loops: int
    #: Controller crashes survived through the recovery path.
    crashes_recovered: int

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form (the stop reason is rendered to its string)."""
        data = asdict(self)
        data["stop"] = self.stop.render() if self.stop is not None else None
        return data

"""Access results and running statistics.

Table II measures *average PCM access time in number of PCM accesses per
software-issued request*: a healthy access costs 1, an access that must read
a failed block's pointer costs 2 (WL-Reviver) or 3 (LLS, which also reads a
bitmap), and a remap-cache hit collapses any of these back to 1.  These
types carry that accounting through the controllers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional


class AccessResult(NamedTuple):
    """Outcome of one software-issued request (immutable).

    A named tuple rather than a frozen dataclass: one is built per
    software request, and a frozen dataclass pays an
    ``object.__setattr__`` per field.  The controllers' per-request
    paths build it positionally with ``AccessResult._make((...))`` in
    field order, which costs about a third of a keyword call; the
    defaults serve every other caller.
    """

    #: Virtual block address the software used.
    vblock: int
    #: PA the OS translation produced (post-retirement, if a victimization
    #: or failure redirected the request).
    pa: int
    #: Device block that finally serviced the data.
    da: int
    #: PCM accesses spent on this request (>= 1).
    pcm_accesses: int
    #: Content tag read (reads only).
    tag: Optional[int] = None
    #: Whether a failure chain redirected the request.
    redirected: bool = False
    #: Write faults newly handled while servicing this request.
    faults_handled: int = 0
    #: Whether this request was victimized for page acquisition.
    victimized: bool = False


@dataclass
class AccessStats:
    """Accumulators over a stream of requests."""

    requests: int = 0
    writes: int = 0
    reads: int = 0
    pcm_accesses: int = 0
    redirected: int = 0
    faults: int = 0
    victimized: int = 0
    #: Extra PCM writes spent on metadata (pointers, bitmap replicas).
    metadata_writes: int = 0

    def record(self, result: AccessResult, is_write: bool) -> None:
        """Fold one request into the accumulators."""
        self.requests += 1
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.pcm_accesses += result.pcm_accesses
        if result.redirected:
            self.redirected += 1
        self.faults += result.faults_handled
        if result.victimized:
            self.victimized += 1

    @property
    def avg_access_time(self) -> float:
        """Mean PCM accesses per software request (Table II's metric)."""
        if self.requests == 0:
            return 0.0
        return self.pcm_accesses / self.requests

    def merged(self, other: "AccessStats") -> "AccessStats":
        """Return a new accumulator combining *self* and *other*."""
        merged = AccessStats()
        for name in vars(merged):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged

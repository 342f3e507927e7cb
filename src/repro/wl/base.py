"""Wear-leveler interface and the migration port.

The paper's framework contract (Section III): *"WL-Reviver assumes only one
fundamental operation common to any of such schemes, which is to migrate
data into a memory block."*  That operation is expressed here as the
:class:`MigrationPort` protocol; schemes perform all data movement through a
port and never touch the chip directly.  Whoever implements the port (a bare
controller, WL-Reviver, FREE-p, LLS) is free to redirect accesses, absorb
faults, or *suspend* a migration when it cannot complete safely.

Migration protocol (commit-first): a scheme performs a migration by

1. asking ``can_start_migration()`` — ``False`` means the port is waiting
   for spare space (WL-Reviver's suspended state) and the scheme must defer
   the whole operation to a later tick, keeping its schedule debt;
2. reading the source block(s) with ``read_migration`` (reads never fail);
3. committing its mapping update (registers/keys/pointer);
4. writing each datum to its *post-commit owner PA* with
   ``write_migration_pa``.

The write-by-PA form lets the port resolve the destination through the
*new* mapping and any failure chains.  ``write_migration_pa`` always
succeeds logically: when the destination block faults and no spare space is
left, the port parks the write in a store buffer and victimizes the next
software write to acquire space (Section III-A's delayed acquisition); the
buffered data remains readable through the port in the meantime, so no data
is ever lost.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class MigrationPort(Protocol):
    """Data-movement interface handed to wear-leveling schemes.

    A reviving port also keeps this contract for every scheme: a datum
    read from a PA-DA loop is garbage, and the port drops its write when
    the loop's block now serves a live PA (a Security Refresh swap can move
    it there), so the garbage never overwrites that PA's datum.
    """

    def can_start_migration(self) -> bool:
        """Whether a new migration may begin now.

        ``False`` while the port waits for spare space (parked writes are
        outstanding); the scheme defers and retries on a later tick.
        """

    def read_migration(self, da: int) -> int:
        """Read the content tag currently stored for device block *da*.

        The port follows failure redirections and its own store buffer
        transparently; reads never fail (the paper's model: wear-out is
        detected on writes).
        """

    def write_migration_pa(self, pa: int, tag: int) -> None:
        """Store *tag* as the data of *pa* under the post-commit mapping.

        The port resolves *pa* through the current mapping and failure
        chains; on an unrecoverable-for-now fault it parks the write until
        space is acquired.  Logically the write always succeeds.
        """


class NullPort:
    """A minimal in-memory port for driving schemes in unit tests."""

    def __init__(self) -> None:
        self.reads: List[int] = []
        self.writes: List[tuple] = []
        self.store: Dict[int, int] = {}

    def can_start_migration(self) -> bool:
        return True

    def read_migration(self, da: int) -> int:
        self.reads.append(da)
        return self.store.get(da, 0)

    def write_migration_pa(self, pa: int, tag: int) -> None:
        self.writes.append((pa, tag))


class WearLeveler(abc.ABC):
    """Invertible PA-to-DA mapping plus a write-driven migration schedule."""

    def __init__(self, device_blocks: int) -> None:
        self.device_blocks = device_blocks
        #: Set when the scheme has ceased to function (no-reviver configs
        #: freeze the scheme at the first block failure, per Section I-B).
        self.frozen = False
        #: Software writes observed (drives the migration schedule).
        self.write_count = 0

    # ------------------------------------------------------------ capacities

    @property
    @abc.abstractmethod
    def logical_blocks(self) -> int:
        """Number of PAs the scheme exposes (<= device_blocks)."""

    # --------------------------------------------------------------- mapping

    @abc.abstractmethod
    def map(self, pa: int) -> int:
        """Translate physical address *pa* to its current device address."""

    @abc.abstractmethod
    def inverse(self, da: int) -> Optional[int]:
        """Translate device address *da* back to the PA mapped onto it.

        Returns ``None`` for device blocks not currently mapped by any PA
        (e.g. Start-Gap's gap line).
        """

    def map_many(self, pas: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`map`; subclasses override with array math."""
        return np.fromiter((self.map(int(pa)) for pa in pas),
                           dtype=np.int64, count=len(pas))

    # ------------------------------------------------------------- migration

    @abc.abstractmethod
    def tick(self, port: MigrationPort, pa: Optional[int] = None) -> List[int]:
        """Account one software write; run any due migration through *port*.

        ``pa`` is the physical address the write targeted; schemes with
        per-region schedules (RegionedStartGap) use it to charge the right
        region, global schemes ignore it.  Returns the list of PAs whose
        PA-to-DA mapping changed during this tick (empty when no migration
        completed).  The caller (controller) uses the list to re-validate
        WL-Reviver chains.
        """

    @abc.abstractmethod
    def schedule_due(self, total_software_writes: int) -> int:
        """Migration operations owed after *total_software_writes* writes.

        Fast-engine entry point: compares the scheme's schedule against the
        migrations already performed (via :meth:`bulk_migrations`) and
        returns how many more are due now.
        """

    @abc.abstractmethod
    def bulk_migrations(self, moves: int) -> np.ndarray:
        """Advance the schedule by *moves* migrations without moving data.

        Fast-engine entry point: returns an ``(k, 2)`` int64 array of
        ``(src_da, dst_da)`` rows, one per physical migration *write* the
        moves would perform (a Start-Gap move is one row; a Security Refresh
        swap is two).  The engine applies wear and redirections itself.
        Must not be mixed with :meth:`tick` in the same run.
        """

    # -------------------------------------------------------------- lifecycle

    def freeze(self) -> None:
        """Stop all future migrations; the current mapping becomes static."""
        self.frozen = True

    @property
    def name(self) -> str:
        """Short display name used in experiment tables."""
        return type(self).__name__

    # ------------------------------------------------------------ validation

    def check_bijection(self) -> None:
        """Exhaustively verify map/inverse consistency (tests only)."""
        seen = set()
        for pa in range(self.logical_blocks):
            da = self.map(pa)
            if not 0 <= da < self.device_blocks:
                raise AssertionError(f"map({pa}) = {da} out of device range")
            if da in seen:
                raise AssertionError(f"duplicate mapping onto DA {da}")
            seen.add(da)
            back = self.inverse(da)
            if back != pa:
                raise AssertionError(f"inverse(map({pa})) = {back}")

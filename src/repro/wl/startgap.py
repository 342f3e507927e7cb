"""Start-Gap wear leveling (Qureshi et al., MICRO 2009).

For a logical space of ``L`` lines, Start-Gap provisions ``L + 1`` physical
lines; the extra line is the *gap* (never mapped by any PA — the explicit
buffer block Theorem 3 of the WL-Reviver paper relies on).  Two registers
suffice:

* ``gap`` — physical position of the empty line;
* ``start`` — how many full rotations the address space has performed.

Every ``psi`` software writes one *gap move* copies the line below the gap
into the gap, moving the gap down one position.  When the gap reaches
position 0, a wrap move copies the top physical line into position 0 and the
gap returns to the top while ``start`` advances — after ``L + 1`` moves every
line has shifted by one and the rotation repeats.

Mapping (with ``ra`` the statically randomized PA):

``x = (ra + start) mod L``;  ``da = x + 1 if x >= gap else x``.

Randomized Start-Gap composes this with a static random bijection of the PA
space (:mod:`repro.wl.randomizer`) to destroy spatial correlation; the paper
stresses that LLS must *restrict* this bijection while WL-Reviver keeps it
intact.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..config import StartGapConfig
from ..errors import ConfigurationError
from .base import MigrationPort, WearLeveler
from .randomizer import AddressRandomizer, make_randomizer


class StartGap(WearLeveler):
    """Randomized Start-Gap over ``device_blocks`` physical lines."""

    def __init__(self, device_blocks: int,
                 config: Optional[StartGapConfig] = None,
                 randomizer: Optional[AddressRandomizer] = None) -> None:
        super().__init__(device_blocks)
        if device_blocks < 2:
            raise ConfigurationError("Start-Gap needs at least 2 device blocks")
        self.config = config or StartGapConfig()
        self._logical = device_blocks - 1
        self.randomizer = randomizer or make_randomizer(
            self.config.randomizer, self._logical,
            seed=self.config.seed, rounds=self.config.feistel_rounds)
        if self.randomizer.size != self._logical:
            raise ConfigurationError(
                f"randomizer covers {self.randomizer.size} addresses, "
                f"need {self._logical}")
        #: Physical position of the gap line (starts at the top line L).
        self.gap = self._logical
        #: Rotation counter in [0, L).
        self.start = 0
        #: Total gap moves performed (for reporting).
        self.gap_moves = 0
        #: A migration the port suspended; retried on subsequent ticks.
        self._pending_moves = 0

    # ------------------------------------------------------------ capacities

    @property
    def logical_blocks(self) -> int:
        return self._logical

    @property
    def psi(self) -> int:
        """Software writes per gap movement."""
        return self.config.psi

    # --------------------------------------------------------------- mapping

    def map(self, pa: int) -> int:
        ra = self.randomizer.forward(pa)
        x = (ra + self.start) % self._logical
        return x + 1 if x >= self.gap else x

    def inverse(self, da: int) -> Optional[int]:
        if da == self.gap:
            return None
        x = da - 1 if da > self.gap else da
        ra = (x - self.start) % self._logical
        return self.randomizer.backward(ra)

    def map_many(self, pas: np.ndarray) -> np.ndarray:
        ra = self.randomizer.forward_many(np.asarray(pas, dtype=np.int64))
        x = (ra + self.start) % self._logical
        return x + np.where(x >= self.gap, 1, 0)

    # ------------------------------------------------------------- migration

    def _move_endpoints(self) -> tuple:
        """``(src, dst)`` of the next gap move in the current state."""
        if self.gap == 0:
            # Wrap move: top physical line rotates into position 0.
            return self._logical, 0
        return self.gap - 1, self.gap

    def _commit_move(self) -> List[int]:
        """Update registers after a completed move; return the changed PA."""
        src, dst = self._move_endpoints()
        if self.gap == 0:
            self.gap = self._logical
            self.start = (self.start + 1) % self._logical
        else:
            self.gap -= 1
        self.gap_moves += 1
        changed = self.inverse(dst)
        return [changed] if changed is not None else []

    def tick(self, port: MigrationPort, pa: Optional[int] = None) -> List[int]:
        if self.frozen:
            return []
        self.write_count += 1
        if self.write_count % self.config.psi == 0:
            self._pending_moves += 1
        changed: List[int] = []
        while self._pending_moves and port.can_start_migration():
            src, _ = self._move_endpoints()
            tag = port.read_migration(src)
            moved = self._commit_move()
            # Post-commit, the destination is owned by exactly the moved PA.
            for pa in moved:
                port.write_migration_pa(pa, tag)
            changed.extend(moved)
            self._pending_moves -= 1
        return changed

    def schedule_due(self, total_software_writes: int) -> int:
        return max(0, total_software_writes // self.psi - self.gap_moves)

    def bulk_migrations(self, moves: int) -> np.ndarray:
        """The next *moves* gap moves' ``(src, dst)`` rows, in closed form.

        The gap position is periodic with period ``L + 1``:
        ``gap_k = (gap_0 - k) mod (L + 1)``, move *k* copies
        ``((gap_k - 1) mod (L + 1), gap_k)`` (the wrap move ``(L, 0)``
        falls out of the same formula), and ``start`` advances once per
        wrap.  Unlike :meth:`tick` it reports no changed PAs, so no
        randomizer inverse runs.
        """
        if self.frozen or moves <= 0:
            return np.empty((0, 2), dtype=np.int64)
        period = self._logical + 1
        gaps = (self.gap - np.arange(moves, dtype=np.int64)) % period
        rows = np.empty((moves, 2), dtype=np.int64)
        rows[:, 0] = (gaps - 1) % period
        rows[:, 1] = gaps
        wraps = int(np.count_nonzero(gaps == 0))
        self.gap = int((self.gap - moves) % period)
        self.start = (self.start + wraps) % self._logical
        self.gap_moves += moves
        return rows

    # -------------------------------------------------------------- reporting

    def describe(self) -> str:
        """One-line state summary."""
        return (f"StartGap(L={self._logical}, psi={self.psi}, "
                f"gap={self.gap}, start={self.start}, "
                f"moves={self.gap_moves}, frozen={self.frozen})")

"""Injection hooks and the driver that applies a schedule to a live run.

The chip and the controller each carry one optional ``inject`` attribute
(``None`` by default); every hook call site is guarded by an ``is not
None`` check, so a system without injection pays one attribute test on the
read path and nothing anywhere else.  Only this package may attach or
mutate those hooks — the FAULT-HOOK lint rule enforces it — which keeps
"who can make the hardware lie" audit-sized.

Forced *write* failures need no hook at all: the driver clamps the ECC
threshold of a target block to just above its current wear, so the next
write fails through the chip's ordinary threshold machinery.  Both engines
share that machinery (``write`` and ``write_many`` read the same threshold
array), which is what makes the differential campaign meaningful and the
disabled-hook fast path exactly as fast as before.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional

from ..errors import ProtocolError, SimulatedCrash, UncorrectableError
from ..pcm.chip import PCMChip
from ..reviver.registers import SparePool
from .schedule import CRASH_SITES, FaultAction, FaultSchedule


class ChipHooks:
    """Armed transient read errors, delivered once each."""

    def __init__(self) -> None:
        self._read_errors: Dict[int, int] = {}
        #: Transient errors actually delivered.
        self.delivered = 0

    def arm_read_error(self, da: int, count: int = 1) -> None:
        """Make the next *count* reads of block *da* fail transiently."""
        self._read_errors[da] = self._read_errors.get(da, 0) + count

    def on_read(self, da: int) -> None:
        """Chip read-path hook; raises when an armed error is due."""
        remaining = self._read_errors.get(da, 0)
        if remaining:
            self._read_errors[da] = remaining - 1
            self.delivered += 1
            raise UncorrectableError(da, f"injected transient read error "
                                         f"at block {da}")


class ControllerHooks:
    """Armed crash points inside the reviver protocol."""

    def __init__(self) -> None:
        self._armed: Dict[str, int] = {}
        #: Sites that actually fired, in order.
        self.fired: List[str] = []

    def arm_crash(self, site: str) -> None:
        """Arm one crash at the named protocol site."""
        if site not in CRASH_SITES:
            raise ProtocolError(f"unknown crash site {site!r}")
        self._armed[site] = self._armed.get(site, 0) + 1

    def crash_point(self, site: str, pa: Optional[int] = None) -> None:
        """Controller hook at a named site; raises when armed."""
        if self._armed.get(site, 0):
            self._armed[site] -= 1
            self.fired.append(site)
            raise SimulatedCrash(site, pa=pa)


class ScheduleDriver:
    """Applies a :class:`FaultSchedule` to a running engine.

    The engine polls :meth:`poll` with its software-write count (once per
    write in the exact engine, once per epoch in the fast engine); every
    action whose ``at_write`` has passed is applied exactly once, in the
    schedule's deterministic order.  Crash and read-error actions arm the
    controller/chip hooks and therefore only take effect on the exact
    engine — the fast engine has neither a read path nor a controller
    protocol, which the differential oracle accounts for.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.chip_hooks = ChipHooks()
        self.controller_hooks = ControllerHooks()
        self._pending = list(schedule.sorted_actions())
        self._cursor = 0
        self._chip: Optional[PCMChip] = None
        self._spares_fn: Optional[Callable[[], SparePool]] = None
        self._exact = False
        #: Actions applied so far, in application order.
        self.applied: List[FaultAction] = []
        #: Spares drained by ``exhaust-spares`` actions.
        self.spares_drained = 0

    # ------------------------------------------------------------- attaching

    def attach_exact(self, engine: object) -> "ScheduleDriver":
        """Wire this driver into an :class:`~repro.sim.engine.ExactEngine`."""
        controller = getattr(engine, "controller")
        controller.inject = self.controller_hooks
        controller.chip.inject = self.chip_hooks
        self._chip = controller.chip
        reviver = getattr(controller, "reviver", None)
        if reviver is not None:
            # The pool object is replaced on crash recovery; resolve late.
            self._spares_fn = lambda: controller.reviver.spares
        self._exact = True
        setattr(engine, "inject", self)
        return self

    def attach_fast(self, engine: object) -> "ScheduleDriver":
        """Wire this driver into a :class:`~repro.sim.fast.FastEngine`."""
        self._chip = getattr(engine, "chip")
        if getattr(engine, "config").recovery == "reviver":
            # A partial, not a lambda: an attached engine must pickle.
            self._spares_fn = functools.partial(getattr, engine, "spares")
        self._exact = False
        setattr(engine, "inject", self)
        return self

    # --------------------------------------------------------------- applying

    def poll(self, writes: int) -> None:
        """Apply every action due at software-write count *writes*."""
        while (self._cursor < len(self._pending)
               and self._pending[self._cursor].at_write <= writes):
            action = self._pending[self._cursor]
            self._cursor += 1
            self._apply(action)
            self.applied.append(action)

    def _apply(self, action: FaultAction) -> None:
        if action.kind in ("fail-block", "endurance-burst"):
            self._clamp(action.das, action.margin)
        elif action.kind == "exhaust-spares":
            if self._spares_fn is not None:
                pool = self._spares_fn()
                while pool.available:
                    pool.take()
                    self.spares_drained += 1
        elif action.kind == "crash":
            if self._exact and action.site is not None:
                self.controller_hooks.arm_crash(action.site)
        elif action.kind == "read-error":
            if self._exact and action.da is not None:
                self.chip_hooks.arm_read_error(action.da)
        elif action.kind == "shard-stall":
            # A serving-layer action: the shard's request path stalls, but
            # the device underneath keeps working.  Engine drivers record
            # it as applied and do nothing, like the fast engine with
            # ``crash`` — the serving layer has its own interpreter.
            pass

    def _clamp(self, das: "tuple[int, ...]", margin: int) -> None:
        """Clamp ECC thresholds so each live target dies within *margin*."""
        chip = self._chip
        if chip is None:
            raise ProtocolError("driver applied before being attached")
        thresholds = chip.ecc.thresholds
        for da in das:
            if not chip.failed[da]:
                thresholds[da] = int(chip.wear[da]) + margin

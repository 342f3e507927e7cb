"""The exact, per-write simulation engine.

Drives a fully assembled memory controller one software write at a time.
This is the highest-fidelity path: every PCM access is counted per request,
every fault handled at the precise write that triggered it, and (optionally)
every write's round-trip verified against a shadow model of the data.  Cost
limits it to small chips — exactly what Table II and the test suite need.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from ..errors import (CapacityExhaustedError, ConfigurationError,
                      SimulatedCrash)
from ..mc.controller import BaseController, ReviverController
from ..telemetry.session import phase
from ..traces.base import WriteTrace
from .metrics import LifetimeSeries, LifetimeSummary
from .stop import EndOfLifeReport, StopCause, StopReason

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..faultinject.hooks import ScheduleDriver
    from ..telemetry.session import TelemetrySession


class ExactEngine:
    """Per-write driver around a controller and a trace."""

    def __init__(self, controller: BaseController, trace: WriteTrace,
                 dead_fraction: float = 0.3,
                 sample_interval: int = 10_000,
                 verify: bool = False,
                 read_fraction: float = 0.0,
                 label: str = "") -> None:
        if not 0.0 < dead_fraction <= 1.0:
            raise ConfigurationError("dead_fraction must be in (0, 1]")
        if trace.virtual_blocks > controller.ospool.virtual_blocks:
            raise ValueError(
                f"trace space {trace.virtual_blocks} exceeds the software "
                f"space {controller.ospool.virtual_blocks}")
        self.controller = controller
        self.trace = trace
        self.dead_fraction = dead_fraction
        self.sample_interval = sample_interval
        self.verify = verify
        self.read_fraction = read_fraction
        self.series = LifetimeSeries(label=label or trace.name)
        #: Shadow model: virtual block -> last tag written (verify mode).
        self.expected: Dict[int, int] = {}
        self._next_tag = 1
        self._reads_owed = 0.0
        #: Structured reason the run ended (None while running).
        self.stop: Optional[StopReason] = None
        #: Fault-injection driver polled once per write; ``None`` (the
        #: default) disables injection.  Only :mod:`repro.faultinject`
        #: may set this.
        self.inject: Optional["ScheduleDriver"] = None
        #: Telemetry hook; ``None`` (the default) disables phase timing.
        #: Only :mod:`repro.telemetry` may attach a session.
        self.telem: Optional["TelemetrySession"] = None

    @property
    def stopped_reason(self) -> Optional[str]:
        """Legacy string form of :attr:`stop` (None while running)."""
        return self.stop.render() if self.stop is not None else None

    # ------------------------------------------------------------------- run

    def run(self, max_writes: Optional[int] = None) -> LifetimeSummary:
        """Run until the chip is dead, space is gone, or *max_writes*."""
        controller = self.controller
        chip = controller.chip
        budget = max_writes if max_writes is not None else float("inf")
        while controller.writes < budget:
            if self.inject is not None:
                self.inject.poll(controller.writes)
            if chip.failed_fraction() >= self.dead_fraction:
                self.stop = StopReason(StopCause.DEAD_FRACTION)
                break
            try:
                self._step()
            except CapacityExhaustedError as exc:
                self.stop = StopReason(StopCause.EXHAUSTED, str(exc))
                break
            if controller.writes % self.sample_interval == 0:
                self._sample()
                if self.verify:
                    self.verify_all()
        else:
            self.stop = StopReason(StopCause.MAX_WRITES)
        self._sample()
        return LifetimeSummary.from_series(
            self.series, os_reports=controller.reporter.report_count)

    def _step(self) -> None:
        vblock = self.trace.next_write()
        tag = self._next_tag if self.verify else None
        self._next_tag += 1
        try:
            with phase(self.telem, "service-write"):
                self.controller.service_write(vblock, tag=tag)
        except SimulatedCrash as crash:
            # Power loss mid-write: the write itself is lost along with all
            # volatile controller state; the controller reboots and the
            # run continues (the OS would simply reissue its workload).
            self.controller.lost_vblocks.add(vblock)
            with phase(self.telem, "crash-recover"):
                self.controller.crash_and_recover(crash)
            return
        if self.verify and tag is not None:
            self.expected[vblock] = tag
        # Interleave reads at the configured ratio (access-time studies).
        self._reads_owed += self.read_fraction
        while self._reads_owed >= 1.0:
            self._reads_owed -= 1.0
            with phase(self.telem, "service-read"):
                self.controller.service_read(self.trace.next_write())

    def _sample(self) -> None:
        chip = self.controller.chip
        self.series.record(
            writes=self.controller.writes,
            survival=1.0 - chip.failed_fraction(),
            usable=self.controller.software_usable_fraction(),
            avg_access=self.controller.stats.avg_access_time)

    # ------------------------------------------------------------- reporting

    def end_of_life_report(self) -> EndOfLifeReport:
        """Structured census of how (and how gracefully) the run ended."""
        controller = self.controller
        chip = controller.chip
        stop = self.stop if self.stop is not None else StopReason(
            StopCause.MAX_WRITES, "still running")
        os_interruptions = controller.reporter.report_count
        victimized = 0
        pages_acquired = 0
        spares_available = 0
        linked = 0
        loops = 0
        if isinstance(controller, ReviverController):
            reviver = controller.reviver
            victimized = reviver.reporter.victimized_count
            pages_acquired = reviver.ledger.pages_acquired
            spares_available = reviver.spares.available
            linked = len(reviver.links)
            for da in reviver.links.linked_blocks():
                vpa = reviver.links.vpa_of(da)
                # A PA-DA loop: the shadow PA maps straight back onto the
                # failed block it serves (garbage data by construction).
                if vpa is not None and reviver.map_fn(vpa) == da:
                    loops += 1
        return EndOfLifeReport(
            stop=stop,
            total_writes=controller.writes,
            failed_fraction=chip.failed_fraction(),
            usable_fraction=controller.software_usable_fraction(),
            os_interruptions=os_interruptions,
            victimized_writes=victimized,
            pages_acquired=pages_acquired,
            spares_available=spares_available,
            linked_blocks=linked,
            pa_da_loops=loops,
            crashes_recovered=controller.crashes_recovered)

    # ---------------------------------------------------------- verification

    def verify_all(self) -> None:
        """Assert every live virtual block reads back its last written tag."""
        lost = self.controller.lost_vblocks
        with phase(self.telem, "verify"):
            for vblock, tag in self.expected.items():
                if vblock in lost:
                    continue
                result = self.controller.service_read(vblock)
                if result.tag != tag:
                    raise AssertionError(
                        f"data corruption: vblock {vblock} read "
                        f"{result.tag}, expected {tag} "
                        f"(pa {result.pa}, da {result.da})")

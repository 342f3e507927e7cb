"""Exception hierarchy for the WL-Reviver reproduction.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything coming from this package with one handler while still
being able to distinguish configuration mistakes from simulated hardware
events.

Two of the classes here are *not* error conditions in the usual sense:
:class:`WriteFault` and :class:`UncorrectableError` model hardware events
(a PCM block wearing out) that the memory controller is expected to catch and
handle.  They are exceptions because that is exactly how the hardware
behaves: the event interrupts the normal access path.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A configuration value is inconsistent or out of range."""


class AddressError(ReproError):
    """An address is outside the valid PA or DA range."""


class CapacityExhaustedError(ReproError):
    """A finite resource (spare slots, OS pages, pool entries) ran out."""


class ProtocolError(ReproError):
    """An internal protocol invariant was violated.

    Raised by invariant checkers (e.g. a chain longer than one step, a
    migration into a PA-DA loop).  Seeing this exception means a bug in the
    framework logic, never a simulated hardware event.
    """


class ReadRetriesExhausted(ProtocolError):
    """A block failed every read of its bounded retry budget.

    Transient read errors are absorbed by re-sensing
    (:meth:`repro.mc.controller.BaseController._read_block`); a block that
    keeps failing past the configured budget is no longer *transiently*
    wrong, so the condition surfaces structured rather than as message
    text: callers (the serving layer's retry/backoff path, chaos-campaign
    triage) can read the device address and the spent budget off the
    exception instead of parsing an f-string.

    Attributes
    ----------
    da:
        Device address of the block whose reads kept failing.
    attempts:
        Number of read attempts made (the configured retry budget).
    """

    def __init__(self, da: int, attempts: int) -> None:
        super().__init__(
            f"block {da} failed {attempts} consecutive read retries")
        self.da = da
        self.attempts = attempts


class WriteFault(ReproError):
    """A write to a PCM block could not be completed (block wore out).

    Attributes
    ----------
    da:
        Device address of the block on which the write failed.
    """

    def __init__(self, da: int, message: str = "") -> None:
        super().__init__(message or f"write fault at device address {da}")
        self.da = da


class UncorrectableError(ReproError):
    """A block accumulated more cell faults than its ECC scheme corrects."""

    def __init__(self, da: int, message: str = "") -> None:
        super().__init__(message or f"uncorrectable error at device address {da}")
        self.da = da


class SimulatedCrash(ReproError):
    """An injected controller power loss at a named protocol crash point.

    Raised only by the fault-injection hooks (:mod:`repro.faultinject`);
    the simulation engine catches it, discards the controller's volatile
    state, and runs the recovery path.  Like :class:`WriteFault` this
    models an event, not a bug.

    Attributes
    ----------
    site:
        Name of the crash point that fired (e.g. ``"after-link-write"``).
    pa:
        PA of an in-flight migration datum lost with the store buffer,
        or ``None`` when no data write was in flight.
    """

    def __init__(self, site: str, pa: Optional[int] = None) -> None:
        super().__init__(f"simulated crash at {site}")
        self.site = site
        self.pa = pa

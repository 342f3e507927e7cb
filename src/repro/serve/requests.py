"""The request record and its terminal outcomes.

A request is born when a closed-loop client issues it and dies exactly
once, with one of the :data:`OUTCOMES`.  The zero-drop accounting
identity the regression suite pins — ``issued == sum(outcome counts)`` —
falls out of that single-death discipline: every admission decision,
retry, failover re-home, and brownout steer is a *transfer* of a live
request, never a fork or a silent drop.
"""

from __future__ import annotations

from typing import Tuple

#: Terminal outcomes; every issued request ends in exactly one.
#:
#: ``ok``
#:     Served; latency recorded (a late success additionally bumps the
#:     soft ``serve.deadline_miss`` counter).
#: ``shed``
#:     Rejected by admission control on a full queue (``shed`` mode).
#: ``deadline``
#:     Abandoned: its deadline passed while queued/waiting, or the next
#:     retry backoff could not finish inside the budget.
#: ``error``
#:     Failed every attempt of its bounded retry budget (the serving
#:     analogue of :class:`repro.errors.ReadRetriesExhausted`).
#: ``failed``
#:     Hit a dead shard under the ``fail-stop`` policy, or the whole
#:     array was lost.
OUTCOMES: Tuple[str, ...] = ("ok", "shed", "deadline", "error", "failed")


class Request:
    """One in-flight service request (mutable: attempts accumulate)."""

    # Slotted by hand (dataclass(slots=True) needs Python 3.10).
    __slots__ = ("rid", "client", "address", "is_write", "issued_at",
                 "deadline", "attempts", "probe")

    def __init__(self, rid: int, client: int, address: int, is_write: bool,
                 issued_at: int, deadline: int, attempts: int = 0,
                 probe: bool = False) -> None:
        #: Globally unique id, in issue order.
        self.rid = rid
        #: Issuing client (responses re-arm this client's think timer).
        self.client = client
        #: Global block address (decoded to a shard at admission time).
        self.address = address
        self.is_write = is_write
        #: Virtual tick the client issued it.
        self.issued_at = issued_at
        #: Absolute virtual-tick deadline.
        self.deadline = deadline
        #: Failed attempts so far (stalls and breaker fast-fails).
        self.attempts = attempts
        #: True while this request is the breaker's half-open probe.
        self.probe = probe


__all__ = ["Request", "OUTCOMES"]

"""OS page bookkeeping types."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List


class PageStatus(enum.IntEnum):
    """Lifecycle of a physical page from the OS's perspective."""

    #: In the allocation pool; software data may live here.
    USABLE = 0
    #: Excluded after an access exception; never accessed by software again.
    #: Its PAs implicitly become WL-Reviver's reserved virtual space.
    RETIRED = 1


@dataclass
class PageInfo:
    """Mutable state of one physical page."""

    page_id: int
    status: PageStatus = PageStatus.USABLE
    #: Virtual pages currently mapped onto this physical page.  More than
    #: one virtual page can share a physical page late in life, when the OS
    #: has no spare frames left and must consolidate.
    virtual_pages: List[int] = field(default_factory=list)

    @property
    def is_usable(self) -> bool:
        """Whether the page is still in the allocation pool."""
        return self.status is PageStatus.USABLE

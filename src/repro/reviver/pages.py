"""Layout of acquired OS pages (Figure 4).

When the OS retires a page in response to an access exception, WL-Reviver
claims its PAs and splits them into two sections:

* the **virtual shadow section** — the leading PAs, each able to serve as
  one failed block's virtual shadow;
* the **inverse-pointer section** — the trailing PAs, whose *mapped memory
  blocks* store the inverse pointers (virtual shadow PA -> failed block DA)
  needed to reduce two-step chains.

Paper example: a 4 KB page holds 64 PAs; with 32-bit pointers one 64 B block
stores 16 inverse pointers, so 4 trailing PAs cover the 60 leading ones.
The exact split is computed from the configured pointer width
(:meth:`repro.config.ReviverConfig.pointer_section_blocks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import ReviverConfig
from ..errors import ProtocolError
from ..units import blocks_of_pages


@dataclass(frozen=True)
class AcquiredPage:
    """One retired page claimed by WL-Reviver."""

    page_id: int
    #: PAs usable as virtual shadow blocks.
    shadow_pas: tuple
    #: PAs whose mapped blocks store the inverse pointers.
    pointer_pas: tuple


class PageLedger:
    """Tracks every page acquired by the framework and its section layout."""

    def __init__(self, config: ReviverConfig, blocks_per_page: int,
                 block_bytes: int) -> None:
        self.config = config
        self.blocks_per_page = blocks_per_page
        self.block_bytes = block_bytes
        self.pointer_blocks_per_page = config.pointer_section_blocks(
            blocks_per_page, block_bytes)
        self.pointers_per_block = (block_bytes * 8) // config.pointer_bits
        self.pages: List[AcquiredPage] = []
        #: virtual shadow PA -> PA of the block holding its inverse pointer.
        self._pointer_home: Dict[int, int] = {}
        #: virtual shadow PA -> owning acquired page id.
        self._owner: Dict[int, int] = {}

    # ------------------------------------------------------------- acquiring

    def claim(self, page_id: int, pas: List[int]) -> AcquiredPage:
        """Split a retired page's PAs into sections and record the layout."""
        if len(pas) != self.blocks_per_page:
            raise ProtocolError(
                f"page {page_id} delivered {len(pas)} PAs, "
                f"expected {self.blocks_per_page}")
        split = self.blocks_per_page - self.pointer_blocks_per_page
        shadow = tuple(pas[:split])
        pointer = tuple(pas[split:])
        page = AcquiredPage(page_id=page_id, shadow_pas=shadow,
                            pointer_pas=pointer)
        self.pages.append(page)
        for index, vpa in enumerate(shadow):
            home = pointer[index // self.pointers_per_block]
            self._pointer_home[vpa] = home
            self._owner[vpa] = page_id
        return page

    # ------------------------------------------------------------- inspection

    def pointer_home(self, vpa: int) -> int:
        """PA of the block storing *vpa*'s inverse pointer."""
        try:
            return self._pointer_home[vpa]
        except KeyError:
            raise ProtocolError(f"PA {vpa} is not a virtual shadow slot") from None

    def owner_page(self, vpa: int) -> Optional[int]:
        """Acquired page owning *vpa*, or ``None``."""
        return self._owner.get(vpa)

    def is_shadow_slot(self, pa: int) -> bool:
        """Whether *pa* belongs to any acquired page's shadow section."""
        return pa in self._pointer_home

    @property
    def pages_acquired(self) -> int:
        """Number of pages claimed so far."""
        return len(self.pages)

    @property
    def blocks_claimed(self) -> int:
        """Block count of every page claimed so far (capacity accounting)."""
        return blocks_of_pages(self.pages_acquired, self.blocks_per_page)

    @property
    def shadow_slots_per_page(self) -> int:
        """Virtual shadow slots contributed by each page."""
        return self.blocks_per_page - self.pointer_blocks_per_page

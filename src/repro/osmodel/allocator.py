"""The OS page pool: virtual-to-physical page mapping and retirement.

Software (the trace) addresses a fixed *virtual* block space.  The pool maps
each virtual page onto a physical page of the PA space exposed by the
wear-leveling scheme.  Initially the mapping is the identity over all
complete pages (wear-leveling papers assume the whole chip backs software
memory).

When the memory device reports an access error, the OS retires the physical
page.  The virtual pages living there must go somewhere: real systems would
use a free frame, but at this point none exists (memory started full), so
the OS consolidates — the evicted virtual page is remapped onto another,
still-usable physical page chosen uniformly at random (seeded).  Two virtual
pages sharing a physical frame models the capacity pressure of a shrinking
chip; the *usable-space* metrics the paper reports depend only on how many
physical pages remain usable, not on the sharing pattern.

A logical space whose size is not a whole number of pages (Start-Gap exposes
``device_blocks - 1`` PAs) leaves a partial tail page that is never given to
software; those few PAs simply participate in wear-leveling rotation while
holding no data.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..errors import AddressError, CapacityExhaustedError
from ..rng import SeedLike, derive_rng
from .page import PageInfo, PageStatus


class PagePool:
    """Virtual-to-physical page mapping over a logical PA space.

    ``utilization`` sets how much of the paged space the software working
    set occupies at boot.  With 1.0 (default, the paper's assumption) every
    physical page backs a virtual page and a retirement forces
    consolidation; below 1.0 the remainder forms a free-frame list that
    retirements consume first, which keeps data-consistency accounting
    exact for the tests that need it.

    ``base_pa`` offsets the software space inside the PA range: the pool's
    pages cover ``[base_pa, base_pa + logical_blocks)`` (schemes that park
    software memory behind a reserved prefix expose such a window).  It
    must be page-aligned; page ids remain 0-based relative to the window.
    """

    def __init__(self, logical_blocks: int, blocks_per_page: int = 64,
                 seed: SeedLike = None, utilization: float = 1.0,
                 base_pa: int = 0) -> None:
        self.logical_blocks = logical_blocks
        self.blocks_per_page = blocks_per_page
        if base_pa < 0 or base_pa % blocks_per_page:
            raise AddressError("base_pa must be a non-negative multiple of "
                               "blocks_per_page")
        self.base_pa = base_pa
        self.num_pages = logical_blocks // blocks_per_page
        if self.num_pages == 0:
            raise AddressError("logical space smaller than one page")
        if not 0.0 < utilization <= 1.0:
            raise AddressError("utilization must be in (0, 1]")
        self._rng = derive_rng(seed, "os-pagepool")
        self.num_virtual_pages = max(1, int(self.num_pages * utilization))
        self.pages: List[PageInfo] = [
            PageInfo(page_id=i,
                     virtual_pages=[i] if i < self.num_virtual_pages else [])
            for i in range(self.num_pages)]
        #: virtual page -> physical page (identity at boot).
        self._virt_to_phys = np.arange(self.num_virtual_pages, dtype=np.int64)
        self._usable_count = self.num_pages
        #: physical pages still usable, as a sorted-ish list for sampling.
        self._usable_list: List[int] = list(range(self.num_pages))
        self._usable_pos: Dict[int, int] = {p: p for p in range(self.num_pages)}
        #: usable pages currently backing no virtual page (free frames).
        self._free_frames: List[int] = list(
            range(self.num_virtual_pages, self.num_pages))
        #: ``(vpage, old_phys, new_phys)`` moves of the latest retirement,
        #: for the controller's optional OS-side data copy.
        self.last_moves: List[tuple] = []

    # ------------------------------------------------------------ translation

    @property
    def virtual_blocks(self) -> int:
        """Size of the virtual block space traces may address."""
        return self.num_virtual_pages * self.blocks_per_page

    def translate(self, virtual_block: int) -> int:
        """Map a virtual block address to a PA."""
        vpage, offset = divmod(virtual_block, self.blocks_per_page)
        if not 0 <= vpage < self.num_virtual_pages:
            raise AddressError(f"virtual block {virtual_block} out of range")
        return (self.base_pa
                + int(self._virt_to_phys[vpage]) * self.blocks_per_page
                + offset)

    def translate_many(self, virtual_blocks: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`translate`."""
        virtual_blocks = np.asarray(virtual_blocks, dtype=np.int64)
        vpages = virtual_blocks // self.blocks_per_page
        offsets = virtual_blocks % self.blocks_per_page
        return (self.base_pa
                + self._virt_to_phys[vpages] * self.blocks_per_page
                + offsets)

    def page_of_pa(self, pa: int) -> int:
        """Physical page containing *pa*."""
        page = (pa - self.base_pa) // self.blocks_per_page
        if not 0 <= page < self.num_pages:
            raise AddressError(f"PA {pa} outside the paged software space")
        return page

    def offset_in_page(self, pa: int) -> int:
        """Index of *pa* within its physical page."""
        self.page_of_pa(pa)  # bounds check
        return (pa - self.base_pa) % self.blocks_per_page

    def page_base(self, page_id: int) -> int:
        """First PA of physical page *page_id* (``base_pa`` included)."""
        if not 0 <= page_id < self.num_pages:
            raise AddressError(f"page {page_id} out of range")
        return self.base_pa + page_id * self.blocks_per_page

    def pas_of_page(self, page_id: int) -> range:
        """PAs of physical page *page_id*, ascending."""
        base = self.page_base(page_id)
        return range(base, base + self.blocks_per_page)

    def virtual_block_of(self, vpage: int, offset: int) -> int:
        """Virtual block address of (*vpage*, *offset*)."""
        if not 0 <= offset < self.blocks_per_page:
            raise AddressError(f"offset {offset} out of range")
        return vpage * self.blocks_per_page + offset

    def virtual_blocks_of_page(self, vpage: int) -> range:
        """Virtual block addresses of virtual page *vpage*, ascending."""
        base = self.virtual_block_of(vpage, 0)
        return range(base, base + self.blocks_per_page)

    def usable_pas(self) -> np.ndarray:
        """PAs of every usable physical page (vectorized, ascending)."""
        pages = np.sort(np.asarray(self._usable_list, dtype=np.int64))
        offsets = np.arange(self.blocks_per_page, dtype=np.int64)
        pas = (self.base_pa + pages[:, None] * self.blocks_per_page + offsets)
        return pas.reshape(-1)

    def pa_in_software_space(self, pa: int) -> bool:
        """Whether *pa* lies inside a complete (pageable) page."""
        span = self.num_pages * self.blocks_per_page
        return self.base_pa <= pa < self.base_pa + span

    # -------------------------------------------------------------- retirement

    def retire(self, page_id: int) -> List[int]:
        """Retire physical *page_id*; rehome its virtual pages.

        Returns the list of PAs in the retired page (the reserved virtual
        space WL-Reviver will claim).  Idempotent-safe: retiring an already
        retired page raises, because the OS would never access it again.
        """
        info = self.pages[page_id]
        if info.status is PageStatus.RETIRED:
            raise AddressError(f"page {page_id} is already retired")
        if self._usable_count <= 1:
            # Retiring the last page would leave the software nothing:
            # genuine end of chip life.  State is left untouched so the
            # caller sees a consistent (dead) system.
            raise CapacityExhaustedError("no usable pages would remain")
        info.status = PageStatus.RETIRED
        self._remove_usable(page_id)
        if page_id in set(self._free_frames):
            self._free_frames.remove(page_id)
        self.last_moves = []
        for vpage in info.virtual_pages:
            if self._free_frames:
                new_phys = self._free_frames.pop()
            else:
                new_phys = self._sample_usable()
            # When no free frame is left the OS consolidates: the target
            # frame is shared and its resident data gets overwritten.
            shared = bool(self.pages[new_phys].virtual_pages)
            self._virt_to_phys[vpage] = new_phys
            self.pages[new_phys].virtual_pages.append(vpage)
            self.last_moves.append((vpage, page_id, new_phys, shared))
        info.virtual_pages = []
        base = self.base_pa + page_id * self.blocks_per_page
        return list(range(base, base + self.blocks_per_page))

    def _remove_usable(self, page_id: int) -> None:
        pos = self._usable_pos.pop(page_id)
        last = self._usable_list.pop()
        if last != page_id:
            self._usable_list[pos] = last
            self._usable_pos[last] = pos
        self._usable_count -= 1

    def _sample_usable(self) -> int:
        index = int(self._rng.integers(0, self._usable_count))
        return self._usable_list[index]

    # -------------------------------------------------------------- reporting

    def is_usable(self, page_id: int) -> bool:
        """Whether *page_id* is still in the allocation pool."""
        return self.pages[page_id].is_usable

    @property
    def usable_pages(self) -> int:
        """Count of physical pages still usable by software."""
        return self._usable_count

    @property
    def retired_pages(self) -> int:
        """Count of retired physical pages."""
        return self.num_pages - self._usable_count

    @property
    def usable_blocks(self) -> int:
        """Block count of the still-usable physical pages."""
        return self._usable_count * self.blocks_per_page

    @property
    def retired_blocks(self) -> int:
        """Block count of the retired physical pages."""
        return self.retired_pages * self.blocks_per_page

    def usable_fraction(self) -> float:
        """Fraction of the paged space still usable by software."""
        return self._usable_count / self.num_pages

    def record_write(self, pa: int) -> None:
        """Statistics hook: account a software write landing at *pa*."""
        self.pages[self.page_of_pa(pa)].writes += 1

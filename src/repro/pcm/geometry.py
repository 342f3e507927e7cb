"""Address geometry: blocks, pages, and the PA/DA address spaces.

Terminology (follows the paper, Section I-B):

* **DA** (device address): identifies a physical memory block on the chip.
  A block is persistently identified by its DA.
* **PA** (physical address, in the OS sense): the address software uses.
  The wear-leveling scheme maintains the PA-to-DA mapping.
* **Page**: the OS allocation unit; a contiguous run of PAs
  (64 with paper defaults).

:class:`AddressGeometry` describes the chip's layout and bounds-checks
block addresses.  Page arithmetic has one owner per space: a PA's page
comes from :class:`~repro.osmodel.allocator.PagePool` (which applies the
software window's ``base_pa``), and raw 0-based block/page conversions
from the :mod:`repro.units` helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AddressError
from ..units import blocks_per_page, is_page_aligned


@dataclass(frozen=True)
class AddressGeometry:
    """Immutable description of the chip's address layout."""

    num_blocks: int
    block_bytes: int = 64
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.num_blocks <= 0:
            raise AddressError("num_blocks must be positive")
        if not is_page_aligned(self.num_blocks, self.blocks_per_page):
            raise AddressError("num_blocks must be a whole number of pages")

    @property
    def blocks_per_page(self) -> int:
        """Number of block addresses per OS page."""
        return blocks_per_page(self.page_bytes, self.block_bytes)

    def check_block(self, address: int) -> int:
        """Validate a block address (PA or DA) and return it."""
        if not 0 <= address < self.num_blocks:
            raise AddressError(
                f"block address {address} out of range [0, {self.num_blocks})")
        return address

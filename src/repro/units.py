"""Size units and address arithmetic helpers.

The paper's hardware parameters are expressed in bytes (64 B blocks, 4 KB
pages, 1 GB chips).  The simulator internally works in *blocks*, so this
module centralizes the conversions and the small amount of bit arithmetic
used throughout the package.
"""

from __future__ import annotations

from typing import TypeVar

import numpy as np

from .errors import ConfigurationError

#: Block-address operand: a scalar block id or a vector of them.  The
#: geometry helpers below are generic over both so vectorized decoders and
#: scalar call sites share one implementation (and RAW-GEOM keeps every
#: ``blocks_per_page`` operation inside this module).
BlockLike = TypeVar("BlockLike", int, np.ndarray)

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Paper default: a memory block is one last-level-cacheline, 64 bytes.
DEFAULT_BLOCK_BYTES = 64

#: Paper default: the OS manages memory in 4 KB pages.
DEFAULT_PAGE_BYTES = 4 * KIB


def is_power_of_two(value: int) -> bool:
    """Return ``True`` when *value* is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return ``log2(value)`` for an exact power of two, else raise."""
    if not is_power_of_two(value):
        raise ConfigurationError(f"{value} is not a power of two")
    return value.bit_length() - 1


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division for non-negative operands."""
    if denominator <= 0:
        raise ConfigurationError("denominator must be positive")
    return -(-numerator // denominator)


def blocks_per_page(page_bytes: int = DEFAULT_PAGE_BYTES,
                    block_bytes: int = DEFAULT_BLOCK_BYTES) -> int:
    """Number of memory blocks (cachelines) per OS page.

    The paper's example: 4 KB page / 64 B block = 64 PAs per page.
    """
    if page_bytes % block_bytes:
        raise ConfigurationError(
            f"page size {page_bytes} is not a multiple of block size {block_bytes}")
    return page_bytes // block_bytes


def page_count(blocks: int, blocks_per_page: int) -> int:
    """Number of whole OS pages covering *blocks* block addresses."""
    if blocks_per_page <= 0:
        raise ConfigurationError("blocks_per_page must be positive")
    return blocks // blocks_per_page


def is_page_aligned(blocks: int, blocks_per_page: int) -> bool:
    """Whether *blocks* is a whole number of OS pages."""
    if blocks_per_page <= 0:
        raise ConfigurationError("blocks_per_page must be positive")
    return blocks % blocks_per_page == 0


def blocks_of_pages(pages: int, blocks_per_page: int) -> int:
    """Block count of *pages* whole OS pages."""
    if blocks_per_page <= 0:
        raise ConfigurationError("blocks_per_page must be positive")
    return pages * blocks_per_page


def round_up_to_pages(blocks: int, blocks_per_page: int) -> int:
    """Smallest page-aligned block count >= *blocks*."""
    return blocks_of_pages(ceil_div(blocks, blocks_per_page), blocks_per_page)


def page_of_block(block: BlockLike, blocks_per_page: int) -> BlockLike:
    """OS-page index containing *block* (scalar or vector).

    This is the raw ``block // blocks_per_page`` form for 0-based address
    spaces (decoders, interleavers).  Software-window PAs must instead go
    through :meth:`repro.osmodel.allocator.PagePool.page_of_pa`, which
    applies the pool's ``base_pa`` offset.
    """
    if blocks_per_page <= 0:
        raise ConfigurationError("blocks_per_page must be positive")
    return block // blocks_per_page


def block_offset_in_page(block: BlockLike, blocks_per_page: int) -> BlockLike:
    """Offset of *block* within its OS page (scalar or vector)."""
    if blocks_per_page <= 0:
        raise ConfigurationError("blocks_per_page must be positive")
    return block % blocks_per_page


def block_at(page: BlockLike, offset: BlockLike, blocks_per_page: int) -> BlockLike:
    """Block address of *offset* inside OS page *page* (scalar or vector)."""
    if blocks_per_page <= 0:
        raise ConfigurationError("blocks_per_page must be positive")
    return page * blocks_per_page + offset


def parse_size(text: str) -> int:
    """Parse a human-readable size such as ``"1GB"``, ``"64MB"``, ``"4KB"``.

    Plain integers (a number of bytes) are accepted too.  Units are
    case-insensitive and the ``i`` of IEC units is optional (``KB`` == ``KiB``
    == 1024 bytes, matching the paper's usage).
    """
    text = text.strip()
    suffixes = [
        ("GIB", GIB), ("MIB", MIB), ("KIB", KIB),
        ("GB", GIB), ("MB", MIB), ("KB", KIB), ("B", 1),
    ]
    upper = text.upper()
    for suffix, multiplier in suffixes:
        if upper.endswith(suffix):
            number = upper[: -len(suffix)].strip()
            try:
                return int(float(number) * multiplier)
            except ValueError as exc:
                raise ConfigurationError(f"cannot parse size {text!r}") from exc
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse size {text!r}") from exc


def format_size(num_bytes: int) -> str:
    """Render a byte count with the largest fitting IEC unit."""
    for unit, multiplier in (("GB", GIB), ("MB", MIB), ("KB", KIB)):
        if num_bytes >= multiplier and num_bytes % multiplier == 0:
            return f"{num_bytes // multiplier}{unit}"
    return f"{num_bytes}B"

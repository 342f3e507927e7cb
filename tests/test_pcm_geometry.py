"""Unit tests for address geometry."""

import numpy as np
import pytest

from repro.errors import AddressError
from repro.pcm import AddressGeometry
from repro.units import block_at, block_offset_in_page, page_of_block


@pytest.fixture
def geometry() -> AddressGeometry:
    return AddressGeometry(num_blocks=256, block_bytes=64, page_bytes=512)


class TestConstruction:
    def test_derived_quantities(self, geometry):
        assert geometry.blocks_per_page == 8

    def test_rejects_partial_pages(self):
        with pytest.raises(AddressError):
            AddressGeometry(num_blocks=100, block_bytes=64, page_bytes=512)

    def test_rejects_empty(self):
        with pytest.raises(AddressError):
            AddressGeometry(num_blocks=0)


class TestScalarConversions:
    """Raw page arithmetic over the geometry's blocks_per_page."""

    def test_page_range(self, geometry):
        bpp = geometry.blocks_per_page
        assert (block_at(2, 0, bpp), block_at(3, 0, bpp)) == (16, 24)

    def test_pas_of_page(self, geometry):
        bpp = geometry.blocks_per_page
        assert [block_at(3, offset, bpp) for offset in range(bpp)] == \
            list(range(24, 32))

    def test_bounds_checks(self, geometry):
        assert geometry.check_block(255) == 255
        with pytest.raises(AddressError):
            geometry.check_block(256)
        with pytest.raises(AddressError):
            geometry.check_block(-1)


class TestVectorConversions:
    def test_pages_of_matches_scalar(self, geometry):
        bpp = geometry.blocks_per_page
        pas = np.arange(geometry.num_blocks)
        pages = page_of_block(pas, bpp)
        assert all(pages[pa] == page_of_block(int(pa), bpp) for pa in pas)

    def test_offsets_of_matches_scalar(self, geometry):
        bpp = geometry.blocks_per_page
        pas = np.arange(geometry.num_blocks)
        offsets = block_offset_in_page(pas, bpp)
        assert all(offsets[pa] == block_offset_in_page(int(pa), bpp)
                   for pa in pas)
        np.testing.assert_array_equal(
            block_at(page_of_block(pas, bpp), offsets, bpp), pas)

"""Tests for the static address randomizers, incl. hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError, ConfigurationError
from repro.wl import (
    FeistelRandomizer,
    IdentityRandomizer,
    PermutationRandomizer,
    RestrictedRandomizer,
    make_randomizer,
)

ALL_KINDS = ["feistel", "permutation", "identity", "restricted"]


def build(kind: str, size: int, seed: int = 3):
    return make_randomizer(kind, size, seed=seed)


class TestBijectivity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("size", [2, 7, 64, 255, 256, 1000])
    def test_forward_is_permutation(self, kind, size):
        randomizer = build(kind, size)
        image = {randomizer.forward(x) for x in range(size)}
        assert image == set(range(size))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("size", [2, 7, 64, 255, 1000])
    def test_backward_inverts_forward(self, kind, size):
        randomizer = build(kind, size)
        for x in range(size):
            assert randomizer.backward(randomizer.forward(x)) == x

    @given(size=st.integers(min_value=2, max_value=600),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_feistel_bijection_property(self, size, seed):
        """Property: any (size, seed) yields an exact bijection."""
        randomizer = FeistelRandomizer(size, seed=seed)
        image = sorted(randomizer.forward(x) for x in range(size))
        assert image == list(range(size))


class TestVectorization:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_forward_many_matches_scalar(self, kind):
        randomizer = build(kind, 257)
        xs = np.arange(257)
        vectorized = randomizer.forward_many(xs)
        scalar = [randomizer.forward(int(x)) for x in xs]
        assert vectorized.tolist() == scalar

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_backward_many_matches_scalar(self, kind):
        randomizer = build(kind, 257)
        xs = np.arange(257)
        vectorized = randomizer.backward_many(xs)
        scalar = [randomizer.backward(int(x)) for x in xs]
        assert vectorized.tolist() == scalar


def cycle_walk(step, size, value):
    """Apply the power-of-two network *step* until the value is in range."""
    value = step(value)
    while value >= size:
        value = step(value)
    return value


def walk_vec(step, size):
    """The vector network cycle-walked over the whole ``[0, size)``."""
    values = step(np.arange(size, dtype=np.uint64))
    out = values >= size
    while out.any():
        values[out] = step(values[out])
        out = values >= size
    return values.astype(np.int64)


class TestFeistelTable:
    """The lookup tables against the Feistel network they tabulate."""

    @pytest.mark.parametrize("size", [2, 7, 255, 256, 1000, 1023])
    def test_tables_equal_scalar_network(self, size):
        randomizer = FeistelRandomizer(size, seed=11)
        forward = [cycle_walk(randomizer._permute_pow2, size, x)
                   for x in range(size)]
        backward = [cycle_walk(randomizer._unpermute_pow2, size, x)
                    for x in range(size)]
        assert randomizer._table.tolist() == forward
        assert randomizer._inverse.tolist() == backward

    @given(size=st.integers(min_value=1, max_value=1100),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_tables_equal_network_property(self, size, seed):
        randomizer = FeistelRandomizer(size, seed=seed)
        forward = [cycle_walk(randomizer._permute_pow2, size, x)
                   for x in range(size)]
        assert randomizer._table.tolist() == forward
        np.testing.assert_array_equal(
            randomizer._inverse,
            walk_vec(randomizer._unpermute_pow2_vec, size))


class TestSeeding:
    @pytest.mark.parametrize("kind", ["feistel", "permutation", "restricted"])
    def test_seed_determines_permutation(self, kind):
        a = build(kind, 128, seed=1)
        b = build(kind, 128, seed=1)
        c = build(kind, 128, seed=2)
        mapping_a = [a.forward(x) for x in range(128)]
        mapping_b = [b.forward(x) for x in range(128)]
        mapping_c = [c.forward(x) for x in range(128)]
        assert mapping_a == mapping_b
        assert mapping_a != mapping_c


class TestRestricted:
    def test_halves_swap(self):
        randomizer = RestrictedRandomizer(64, seed=4)
        for x in range(32):
            assert randomizer.forward(x) >= 32
        for x in range(32, 64):
            assert randomizer.forward(x) < 32

    def test_odd_size_fixes_last(self):
        randomizer = RestrictedRandomizer(65, seed=4)
        assert randomizer.forward(64) == 64
        assert randomizer.backward(64) == 64

    def test_restriction_limits_spread(self):
        """A hot lower-half region lands entirely in the upper half —
        the leveling handicap the paper attributes to LLS."""
        randomizer = RestrictedRandomizer(256, seed=4)
        targets = {randomizer.forward(x) for x in range(64)}
        assert all(t >= 128 for t in targets)


class TestMisc:
    def test_identity_is_identity(self):
        randomizer = IdentityRandomizer(100)
        assert all(randomizer.forward(x) == x for x in range(100))

    def test_out_of_range_rejected(self):
        randomizer = PermutationRandomizer(10, seed=1)
        for outside in (-1, 10):
            with pytest.raises(AddressError):
                randomizer.forward(outside)
            with pytest.raises(AddressError):
                randomizer.backward(outside)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_randomizer("bogus", 16)

    def test_feistel_rejects_zero_rounds(self):
        with pytest.raises(ConfigurationError):
            FeistelRandomizer(16, rounds=0)

    def test_feistel_actually_scrambles(self):
        randomizer = FeistelRandomizer(4096, seed=5)
        fixed = sum(1 for x in range(4096) if randomizer.forward(x) == x)
        assert fixed < 40  # a random permutation averages 1 fixed point

"""Unit tests for the deterministic RNG plumbing."""

import numpy as np

from repro.rng import DEFAULT_SEED, derive_rng, make_rng, spawn_seed


class TestMakeRng:
    def test_none_uses_default_seed(self):
        a = make_rng(None).integers(0, 1 << 30, size=8)
        b = make_rng(DEFAULT_SEED).integers(0, 1 << 30, size=8)
        assert (a == b).all()

    def test_same_seed_same_stream(self):
        assert (make_rng(5).random(16) == make_rng(5).random(16)).all()

    def test_different_seeds_differ(self):
        assert not (make_rng(5).random(16) == make_rng(6).random(16)).all()

    def test_passes_generator_through(self):
        generator = np.random.default_rng(1)
        assert make_rng(generator) is generator


class TestDeriveRng:
    def test_streams_are_reproducible(self):
        a = derive_rng(7, "trace").random(8)
        b = derive_rng(7, "trace").random(8)
        assert (a == b).all()

    def test_streams_are_independent(self):
        a = derive_rng(7, "trace").random(8)
        b = derive_rng(7, "endurance").random(8)
        assert not (a == b).all()

    def test_seed_changes_stream(self):
        a = derive_rng(7, "trace").random(8)
        b = derive_rng(8, "trace").random(8)
        assert not (a == b).all()

    def test_generator_input_spawns_child(self):
        parent = np.random.default_rng(3)
        child = derive_rng(parent, "whatever")
        assert isinstance(child, np.random.Generator)
        assert child is not parent


class TestHelpers:
    def test_spawn_seed_in_range(self):
        rng = make_rng(1)
        for _ in range(32):
            assert 0 <= spawn_seed(rng) < 2 ** 63

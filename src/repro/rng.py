"""Deterministic random-number plumbing.

Every stochastic component of the simulator (cell lifetimes, address
randomizers, Security Refresh keys, synthetic traces) takes an explicit seed
or ``numpy.random.Generator`` so experiments are reproducible run-to-run.
This module provides the helpers that derive independent child streams from a
single experiment seed, so that e.g. changing the trace seed does not perturb
the endurance draws.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

#: Fixed default seed used whenever a caller passes ``None``.  Experiments in
#: the paper are averages over deterministic hardware, so a fixed default
#: keeps casual runs reproducible; pass explicit seeds for replications.
DEFAULT_SEED = 0xC0FFEE


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    ``None`` maps to :data:`DEFAULT_SEED`; an existing generator is passed
    through unchanged so callers can share a stream when they mean to.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def derive_rng(seed: SeedLike, stream: str) -> np.random.Generator:
    """Derive an independent generator for a named *stream*.

    The stream name is hashed into the seed material, so
    ``derive_rng(7, "trace")`` and ``derive_rng(7, "endurance")`` are
    statistically independent but each fully determined by ``7``.
    """
    if isinstance(seed, np.random.Generator):
        # Child of a live generator: spawn via its bit generator state.
        return np.random.default_rng(seed.integers(0, 2**63 - 1))
    if seed is None:
        seed = DEFAULT_SEED
    material = np.random.SeedSequence([seed, _stream_token(stream)])
    return np.random.default_rng(material)


def _stream_token(stream: str) -> int:
    """Stable 63-bit token for a stream name (FNV-1a)."""
    acc = 0xCBF29CE484222325
    for byte in stream.encode("utf-8"):
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc & 0x7FFFFFFFFFFFFFFF


def spawn_seed(rng: np.random.Generator) -> int:
    """Draw a fresh integer seed from *rng* for handing to a subcomponent."""
    return int(rng.integers(0, 2**63 - 1))

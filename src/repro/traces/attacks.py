"""Malicious write streams.

Start-Gap and Security Refresh were designed to survive adversarial
workloads; the paper cites the *birthday paradox attack* (Seznec, CAL 2010)
as the kind of stress WL-Reviver must keep surviving after failures.  These
generators exercise that claim in the examples and ablation tests.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, derive_rng
from .base import DistributionTrace


def hammer_attack(virtual_blocks: int, targets: int = 1,
                  seed: SeedLike = None) -> DistributionTrace:
    """All writes hammer a tiny fixed set of addresses (worst-case CoV)."""
    if not 1 <= targets <= virtual_blocks:
        raise ConfigurationError("targets out of range")
    rng = derive_rng(seed, "hammer")
    probabilities = np.zeros(virtual_blocks, dtype=np.float64)
    idx = rng.choice(virtual_blocks, size=targets, replace=False)
    probabilities[idx] = 1.0 / targets
    return DistributionTrace(probabilities, name=f"hammer{targets}", seed=seed)


def birthday_paradox_attack(virtual_blocks: int, set_size: int = 64,
                            hot_share: float = 0.95,
                            seed: SeedLike = None) -> DistributionTrace:
    """Seznec's birthday-paradox pattern: cycle over a small random set.

    The attacker repeatedly writes a modest random set of addresses, betting
    that randomized remapping will eventually "collide" the set onto the
    same physical region faster than leveling spreads it.  A small
    background of uniform traffic models the camouflage accesses.
    """
    if not 1 <= set_size <= virtual_blocks:
        raise ConfigurationError("set_size out of range")
    rng = derive_rng(seed, "birthday")
    probabilities = np.full(virtual_blocks,
                            (1.0 - hot_share) / virtual_blocks)
    idx = rng.choice(virtual_blocks, size=set_size, replace=False)
    probabilities[idx] += hot_share / set_size
    return DistributionTrace(probabilities, name=f"birthday{set_size}",
                             seed=seed)

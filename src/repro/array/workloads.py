"""The two global workloads that need more than the array's size.

Every other array workload is a :mod:`repro.traces` builder called over
:attr:`~repro.array.engine.ArrayConfig.global_blocks`.  The
*single-shard hot-spot attack* needs the decoder itself: it aims all of
its hot traffic at the addresses one shard owns.  Under block
interleaving a uniform hot set spreads across every device; an attacker
who knows the layout can instead concentrate wear on one device and kill
the array's weakest link — the scenario the ``degraded`` policy exists
for.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike
from ..traces import DistributionTrace, zipf_distribution
from .decoder import InterleavedDecoder


def zipf_workload(decoder: InterleavedDecoder, exponent: float = 1.0,
                  seed: SeedLike = None) -> DistributionTrace:
    """Zipf-popularity workload over the global space.

    The seeded rank permutation scatters the popular head across shards,
    so unlike :func:`shard_attack_workload` the skew is *not* aligned with
    the layout — the realistic serving-traffic case, where interleaving
    soaks up most (but not all) of the per-device imbalance.
    """
    return zipf_distribution(decoder.global_blocks, exponent=exponent,
                             seed=seed)


def shard_attack_workload(decoder: InterleavedDecoder, shard: int = 0,
                          hot_share: float = 0.9,
                          seed: SeedLike = None) -> DistributionTrace:
    """Layout-aware attack: *hot_share* of the traffic hits one shard.

    The attacker writes uniformly over the global addresses that decode
    to shard *shard*, with a thin uniform background over the whole array
    as camouflage — the array analogue of the single-chip hot-spot
    attacks, and the fastest way to force a whole-shard death.
    """
    if not 0.0 < hot_share <= 1.0:
        raise ConfigurationError("hot_share must be in (0, 1]")
    size = decoder.global_blocks
    probabilities = np.full(size, (1.0 - hot_share) / size)
    owned = decoder.encode(shard,
                           np.arange(decoder.shard_blocks, dtype=np.int64))
    probabilities[owned] += hot_share / decoder.shard_blocks
    return DistributionTrace(probabilities, name=f"attack-s{shard}",
                             seed=seed)

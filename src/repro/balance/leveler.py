"""The bounded-budget global leveler: risk estimates -> concrete swaps.

Each rebalance round the planner moves at most ``budget`` hot addresses
off the riskiest shard, one hot/cold swap at a time: the hottest
address homed on the highest-risk live shard trades places with the
coldest address homed on the lowest-risk live shard.  The budget bounds
the migration traffic a single round may generate (every swap is two
block copies, charged through the write-amplification accounting), and
the :data:`MIN_RISK_GAP` threshold keeps the leveler quiet while the
array is healthy — steering only pays when the risk spread is real.

Fully deterministic: shard and address ties resolve to the lowest
index (numpy ``argmax``/``argmin`` take the first extremum), and the
plan is a pure function of ``(map state, distribution, risks, live)``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .remap import BalancedDecoder


#: Minimum donor-receiver risk spread before steering engages.
MIN_RISK_GAP = 0.02


def plan_swaps(decoder: BalancedDecoder, probabilities: np.ndarray,
               risks: np.ndarray, live: Sequence[int],
               budget: int) -> List[Tuple[int, int]]:
    """Plan and apply up to *budget* hot/cold swaps.

    *budget* bounds one round (each swap is 2 migration writes); the
    array and serve configs validate it as non-negative.

    Mutates *decoder* in place (each accepted swap is applied before the
    next is planned, so one round never moves the same address twice)
    and returns the applied ``(hot address, cold address)`` pairs.
    """
    if len(risks) < decoder.num_shards:
        raise ConfigurationError(
            f"risk vector covers {len(risks)} shards, decoder has "
            f"{decoder.num_shards}")
    probabilities = np.asarray(probabilities, dtype=np.float64)
    swaps: List[Tuple[int, int]] = []
    live_ids = np.asarray(sorted(live), dtype=np.int64)
    if live_ids.size < 2:
        return swaps
    masses = decoder.shard_masses(probabilities)
    for _ in range(budget):
        live_risks = np.asarray(risks, dtype=np.float64)[live_ids]
        donor = int(live_ids[int(np.argmax(live_risks))])
        receiver = int(live_ids[int(np.argmin(live_risks))])
        if donor == receiver:
            break
        if float(live_risks.max() - live_risks.min()) < MIN_RISK_GAP:
            break
        owners = decoder.shard_of(
            np.arange(decoder.global_blocks, dtype=np.int64))
        donor_owned = np.nonzero(owners == donor)[0]
        receiver_owned = np.nonzero(owners == receiver)[0]
        if donor_owned.size == 0 or receiver_owned.size == 0:
            break
        cold = int(receiver_owned[int(np.argmin(
            probabilities[receiver_owned]))])
        # Never let a swap invert the traffic ordering: steering should
        # converge toward equal forward wear, not slosh the hot set back
        # and forth between the extremes.  A head-heavy distribution can
        # make the single hottest address overshoot the gap (its mass
        # alone exceeds the shard imbalance), so pick the hottest
        # address that still *fits* rather than giving up.
        gap_mass = (masses[donor] - masses[receiver]) / 2.0
        donor_p = probabilities[donor_owned]
        eligible = donor_owned[
            (donor_p > probabilities[cold])
            & (donor_p - probabilities[cold] <= gap_mass)]
        if eligible.size == 0:
            break
        hot = int(eligible[int(np.argmax(probabilities[eligible]))])
        moved = float(probabilities[hot] - probabilities[cold])
        decoder.swap(hot, cold)
        masses[donor] -= moved
        masses[receiver] += moved
        swaps.append((hot, cold))
    return swaps


__all__ = ["MIN_RISK_GAP", "plan_swaps"]

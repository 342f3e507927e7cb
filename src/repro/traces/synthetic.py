"""Synthetic write-distribution builders.

The workhorse is the *hotspot mixture*: a fraction ``h`` of the blocks (a
spatially contiguous run, mimicking the working-set locality of real
programs) receives a fraction ``q`` of all writes; the rest is uniform.
For this family the asymptotic write CoV has the closed form

    ``cov = (q - h) / sqrt(h * (1 - h))``,

so a target CoV can be hit exactly by solving for ``h`` at a chosen hot
share ``q`` (:func:`solve_hot_fraction` inverts the formula with a
numerically safe bisection).  A Zipf mixture is also provided for
sensitivity studies; its CoV is matched numerically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..numeric import brentq
from ..rng import SeedLike, derive_rng
from .base import DistributionTrace
from .stats import counts_cov


def mixture_cov(hot_fraction: float, hot_share: float) -> float:
    """Asymptotic write CoV of the hotspot mixture."""
    if not 0.0 < hot_fraction < 1.0:
        raise ConfigurationError("hot_fraction must be in (0, 1)")
    if not 0.0 <= hot_share <= 1.0:
        raise ConfigurationError("hot_share must be in [0, 1]")
    return abs(hot_share - hot_fraction) / np.sqrt(
        hot_fraction * (1.0 - hot_fraction))


def solve_hot_fraction(target_cov: float, hot_share: float = 0.9) -> float:
    """Hot-set size ``h`` achieving *target_cov* at traffic share ``q``.

    Solves ``cov(h) = target_cov`` for ``h`` in ``(0, q)``; ``cov`` is
    monotonically decreasing in ``h`` on that interval, so bisection is
    safe.  Raises when the target is unreachable (needs ``q`` closer to 1).
    """
    if target_cov <= 0:
        raise ConfigurationError("target_cov must be positive")
    if not 0.0 < hot_share < 1.0:
        raise ConfigurationError("hot_share must be in (0, 1)")

    def gap(h: float) -> float:
        return mixture_cov(h, hot_share) - target_cov

    lo, hi = 1e-9, hot_share - 1e-9
    if gap(lo) < 0:
        raise ConfigurationError(
            f"CoV {target_cov} unreachable with hot_share={hot_share}")
    if gap(hi) > 0:
        raise ConfigurationError(
            f"CoV {target_cov} below the mixture's minimum at q={hot_share}")
    return brentq(gap, lo, hi, xtol=1e-12)


def uniform_distribution(virtual_blocks: int, name: str = "uniform",
                         seed: SeedLike = None) -> DistributionTrace:
    """Every block equally likely: the CoV-0 law."""
    return DistributionTrace(np.full(virtual_blocks, 1.0 / virtual_blocks),
                             name=name, seed=seed)


def hotspot_distribution(virtual_blocks: int, target_cov: float,
                         hot_share: float = 0.9,
                         clustered: bool = True,
                         name: str = "hotspot",
                         seed: SeedLike = None) -> DistributionTrace:
    """Build a hotspot-mixture trace hitting *target_cov* exactly.

    ``clustered=True`` places the hot set as one contiguous run at a seeded
    random offset (spatial locality, as in real program traces — this is
    what LLS's restricted randomization struggles with); ``False`` scatters
    it uniformly.
    """
    h = solve_hot_fraction(target_cov, hot_share)
    hot_blocks = max(1, round(h * virtual_blocks))
    # Recompute the exact share for the integer hot-set size so the achieved
    # CoV stays on target despite rounding.
    h_exact = hot_blocks / virtual_blocks
    if h_exact >= 1.0:
        raise ConfigurationError("hot set cannot cover the whole space")
    q = min(1.0, h_exact + target_cov * np.sqrt(h_exact * (1.0 - h_exact)))
    rng = derive_rng(seed, f"hotspot-{name}")
    probabilities = np.full(virtual_blocks,
                            (1.0 - q) / (virtual_blocks - hot_blocks))
    if clustered:
        start = int(rng.integers(0, virtual_blocks))
        idx = (start + np.arange(hot_blocks)) % virtual_blocks
    else:
        idx = rng.choice(virtual_blocks, size=hot_blocks, replace=False)
    probabilities[idx] = q / hot_blocks
    return DistributionTrace(probabilities, name=name, seed=seed)


def lognormal_distribution(virtual_blocks: int, target_cov: float,
                           clustered: bool = True,
                           name: str = "lognormal",
                           seed: SeedLike = None) -> DistributionTrace:
    """Lognormal per-block write rates with the exact target CoV.

    Real program write histograms have smooth, heavy right tails rather
    than two-point hot/cold structure; a lognormal rate field reproduces
    both the paper's low-CoV benchmarks (bulk-driven failures) and the
    high-CoV ones (tail-driven serial killing) from one family.  For a
    lognormal with ``sigma^2 = ln(1 + cov^2)`` the rate CoV is exactly
    *target_cov* in expectation; the sampled field is then rescaled so the
    realized CoV matches the target to first order.

    ``clustered=True`` sorts the rates into one contiguous descending run
    at a seeded random offset, giving the spatial concentration of a real
    working set (what LLS's restricted randomization struggles with).
    """
    if target_cov <= 0:
        raise ConfigurationError("target_cov must be positive")
    max_cov = float(np.sqrt(virtual_blocks - 1))
    if target_cov >= max_cov:
        raise ConfigurationError(
            f"CoV {target_cov} impossible over {virtual_blocks} blocks "
            f"(max {max_cov:.1f}); use a larger virtual space")
    sigma = float(np.sqrt(np.log1p(target_cov ** 2)))
    rng = derive_rng(seed, f"lognormal-{name}")
    base = rng.lognormal(mean=0.0, sigma=sigma, size=virtual_blocks)
    # The realized CoV of a finite heavy-tailed sample falls well short of
    # the population value; calibrate by raising the field to a power
    # (realized CoV is monotone in the exponent) until it matches exactly.
    log_base = np.log(base)

    def realized(alpha: float) -> float:
        return counts_cov(np.exp(alpha * (log_base - log_base.max())))

    lo, hi = 1e-3, 1.0
    while realized(hi) < target_cov and hi < 64:
        hi *= 2.0
    if realized(hi) < target_cov:
        raise ConfigurationError(
            f"cannot calibrate CoV {target_cov} over {virtual_blocks} blocks")
    alpha = brentq(lambda a: realized(a) - target_cov, lo, hi, xtol=1e-9)
    rates = np.exp(alpha * (log_base - log_base.max()))
    if clustered:
        start = int(rng.integers(0, virtual_blocks))
        ordered = np.sort(rates)[::-1]
        field = np.empty(virtual_blocks, dtype=np.float64)
        field[(start + np.arange(virtual_blocks)) % virtual_blocks] = ordered
        rates = field
    return DistributionTrace(rates, name=name, seed=seed)


def zipf_distribution(virtual_blocks: int, exponent: float = 1.0,
                      target_cov: Optional[float] = None,
                      name: str = "zipf",
                      seed: SeedLike = None) -> DistributionTrace:
    """Zipf-ranked distribution over a seeded random block permutation.

    With *target_cov* given, the exponent is tuned numerically (the CoV of a
    Zipf law grows monotonically with its exponent) and the passed
    *exponent* is used as the initial bracket guess.
    """
    if virtual_blocks < 2:
        raise ConfigurationError("need at least 2 blocks")

    def build(s: float) -> np.ndarray:
        ranks = np.arange(1, virtual_blocks + 1, dtype=np.float64)
        weights = ranks ** (-s)
        return weights / weights.sum()

    if target_cov is not None:
        def gap(s: float) -> float:
            return counts_cov(build(s)) - target_cov

        lo, hi = 1e-6, 8.0
        if gap(lo) > 0 or gap(hi) < 0:
            raise ConfigurationError(
                f"CoV {target_cov} unreachable by Zipf over {virtual_blocks}")
        exponent = brentq(gap, lo, hi, xtol=1e-10)
    probabilities = build(exponent)
    rng = derive_rng(seed, f"zipf-{name}")
    order = rng.permutation(virtual_blocks)
    return DistributionTrace(probabilities[order], name=name, seed=seed)


"""Per-block endurance model through cell-lifetime order statistics.

The paper's setup (Section IV-A): each PCM cell sustains a number of writes
drawn from a normal distribution (mean 1e8, lifetime CoV 0.2 to model process
variation).  A 64 B block is one 512-bit ECP group; an ECC scheme correcting
``c`` cell faults keeps the block usable until its ``(c+1)``-th cell dies.

Tracking 512 cells x millions of blocks individually is wasteful: the only
quantities the simulation ever consumes are, per block, the write counts at
which the 1st, 2nd, ..., k-th cell die — i.e. the first *k order statistics*
of 512 i.i.d. normal lifetimes (k is small: 7 for ECP6, a couple dozen for
PAYG with a deep pool).  We sample these directly:

1. generate the first k order statistics ``U_(1) <= ... <= U_(k)`` of ``n``
   i.i.d. Uniform(0,1) variables with the classic sequential scheme

   ``U_(1) = 1 - V_1^(1/n)``,
   ``U_(i) = 1 - (1 - U_(i-1)) * V_i^(1/(n-i+1))``,

   where the ``V_i`` are independent Uniform(0,1) draws (this is the standard
   record-value construction; each step is vectorized over all blocks);
2. map through the normal quantile function:
   ``T_(i) = mean + sd * Phi^-1(U_(i))``, with ``Phi^-1`` the Cephes
   ``ndtri`` port in :mod:`repro.numeric`.

The result is an exact sample of the joint distribution of the first k cell
failure times of every block, at cost O(num_blocks * k).  Step 1 is cheap;
step 2 dominates, so :class:`EnduranceModel` draws every uniform up front (the
RNG order never depends on what is read) and maps a column through step 2 only
when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..numeric import ndtri
from ..rng import SeedLike, make_rng


def order_uniforms(num_blocks: int, cells_per_block: int, k: int,
                   rng: SeedLike = None) -> np.ndarray:
    """Step 1: the first *k* uniform order statistics of every block.

    Returns a float64 ``(num_blocks, k)`` matrix with non-decreasing rows,
    clipped to ``[1e-15, 1 - 1e-15]``.
    """
    if k <= 0:
        raise ConfigurationError("k must be positive")
    if k > cells_per_block:
        raise ConfigurationError(
            f"cannot take {k} order statistics of {cells_per_block} cells")
    generator = make_rng(rng)
    n = cells_per_block
    uniforms = np.empty((num_blocks, k), dtype=np.float64)
    # Sequential minima construction, vectorized across blocks.
    previous = np.zeros(num_blocks, dtype=np.float64)
    for i in range(k):
        v = generator.random(num_blocks)
        previous = 1.0 - (1.0 - previous) * v ** (1.0 / (n - i))
        uniforms[:, i] = previous
    # Guard against a pathological 1.0 from floating-point round-off.
    np.clip(uniforms, 1e-15, 1.0 - 1e-15, out=uniforms)
    return uniforms


def lifetimes_from_uniforms(uniforms: np.ndarray, mean: float,
                            cov: float) -> np.ndarray:
    """Step 2: map uniforms to integer write counts, clipped to at least 1."""
    lifetimes = mean + mean * cov * ndtri(uniforms)
    return np.maximum(np.rint(lifetimes), 1.0).astype(np.int64)


def sample_failure_times(num_blocks: int,
                         cells_per_block: int,
                         mean: float,
                         cov: float,
                         k: int,
                         rng: SeedLike = None) -> np.ndarray:
    """Sample the first *k* cell failure times for every block.

    Parameters
    ----------
    num_blocks:
        Number of blocks to sample.
    cells_per_block:
        ``n``, the number of cells per block (512 for a 64 B block).
    mean, cov:
        Mean and coefficient of variation of the per-cell lifetime normal.
    k:
        How many order statistics (cell deaths) to materialize per block.
    rng:
        Seed or generator.

    Returns
    -------
    numpy.ndarray
        Integer array of shape ``(num_blocks, k)``; entry ``[b, i]`` is the
        block-write count at which block *b*'s ``(i+1)``-th cell dies.  Rows
        are non-decreasing.  Values are clipped to at least 1.
    """
    return lifetimes_from_uniforms(
        order_uniforms(num_blocks, cells_per_block, k, rng), mean, cov)


@dataclass
class EnduranceModel:
    """Lazy owner of a chip's failure-time matrix.

    Construction draws the ``(num_blocks, max_order)`` uniforms (so the
    result is identical to :func:`sample_failure_times` with the same
    arguments, whatever is read later); each order's column of lifetimes is
    computed the first time it is read and cached.  ECC schemes read the
    one column that is their uncorrectable threshold; PAYG reads a further
    column each time a block extends past every capacity seen so far, and
    :attr:`failure_times` materialises them all.
    """

    num_blocks: int
    cells_per_block: int = 512
    mean: float = 4e3
    cov: float = 0.2
    max_order: int = 24
    seed: int = 1

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ConfigurationError("mean endurance must be positive")
        if not 0.0 <= self.cov < 1.0:
            raise ConfigurationError("cov must be in [0, 1)")
        self._uniforms = order_uniforms(
            self.num_blocks, self.cells_per_block, self.max_order,
            rng=self.seed)
        self._failure_times = np.zeros((self.num_blocks, self.max_order),
                                       dtype=np.int64)
        self._converted = [False] * self.max_order

    @property
    def failure_times(self) -> np.ndarray:
        """``(num_blocks, max_order)`` matrix of cell death times."""
        for order in range(1, self.max_order + 1):
            self.nth_failure(order)
        return self._failure_times

    def nth_failure(self, order: int) -> np.ndarray:
        """Write counts at which each block's ``order``-th cell dies (1-based)."""
        if not 1 <= order <= self.max_order:
            raise ConfigurationError(
                f"order {order} outside materialized range [1, {self.max_order}]")
        column = order - 1
        if not self._converted[column]:
            self._failure_times[:, column] = lifetimes_from_uniforms(
                self._uniforms[:, column], self.mean, self.cov)
            self._converted[column] = True
        return self._failure_times[:, column]

    def uncorrectable_threshold(self, capacity: int) -> np.ndarray:
        """Per-block wear at which an ECC correcting *capacity* faults gives up.

        With capacity ``c`` the block is uncorrectable once cell ``c+1`` dies.
        """
        return self.nth_failure(capacity + 1)

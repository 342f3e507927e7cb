"""Trace substrate: synthetic write workloads.

The paper drives its simulator with Pin-collected memory traces of eight
PARSEC/NPB/SPLASH-2 programs, characterizing each solely by its *write CoV*
— the coefficient of variation of per-block write counts (Table I).  Those
traces are not redistributable, so this package synthesizes address streams
calibrated to the same CoVs (see DESIGN.md, substitutions): a spatially
clustered hot set receiving a solved-for share of the traffic over a uniform
background reproduces any target CoV and preserves the spatial concentration
that matters for page retirement and for LLS's restricted randomization.

Also provided: Zipf-mixture generators, malicious attack streams (the
birthday-paradox attack of Seznec that wear-leveling papers must survive),
and CoV estimators.  Recorded traffic lives in :mod:`repro.workloads`:
its :class:`~repro.workloads.tracefile.TraceReplay` is the one replay
path, and is itself a :class:`WriteTrace`.
"""

from .base import WriteTrace, DistributionTrace, RequestStream
from .synthetic import (
    hotspot_distribution,
    lognormal_distribution,
    solve_hot_fraction,
    uniform_distribution,
    zipf_distribution,
)
from .benchmarks import BENCHMARKS, BenchmarkSpec, benchmark_trace, benchmark_names
from .attacks import birthday_paradox_attack, hammer_attack
from .stats import counts_cov

__all__ = [
    "WriteTrace", "DistributionTrace", "RequestStream",
    "uniform_distribution", "hotspot_distribution",
    "lognormal_distribution", "zipf_distribution",
    "solve_hot_fraction",
    "BENCHMARKS", "BenchmarkSpec", "benchmark_trace", "benchmark_names",
    "birthday_paradox_attack", "hammer_attack",
    "counts_cov",
]

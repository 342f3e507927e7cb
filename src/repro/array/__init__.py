"""Sharded multi-device PCM arrays behind an interleaved decoder.

Everything below :mod:`repro.array` simulates *one* chip; this package
scales out: N independent shard devices — each a full chip + Start-Gap +
recovery stack with its own derived seed — behind an
:class:`InterleavedDecoder` that round-robins the global block space
across them, driven by an :class:`ArrayEngine` that advances the shards
shared-nothing in lockstep on one global write clock and merges their
series and telemetry into one array-level result.

The new failure regime this opens is *array-level* end of life: with the
``fail-stop`` policy the array dies with its first shard; with the
``degraded`` policy a dead shard drops out of the decoder, its traffic
re-decodes onto the survivors (a :class:`SegmentedTrace` distribution
switch at the next epoch boundary), and the array keeps serving at
reduced usable capacity until the last shard dies.  Both are reported
through an :class:`ArrayEndOfLifeReport` carrying a per-shard census.

Run one from the command line with ``python -m repro.array``; the
``fig_array`` experiment sweeps shard counts and workloads.
"""

from .decoder import INTERLEAVE_MODES, InterleavedDecoder
from .engine import (ARRAY_POLICIES, ArrayConfig, ArrayEngine, ArrayResult)
from .report import ArrayEndOfLifeReport, ShardCensus
from .shard import shard_seed
from .trace import SegmentedTrace
from .workloads import shard_attack_workload, zipf_workload

__all__ = [
    "ARRAY_POLICIES",
    "ArrayConfig",
    "ArrayEndOfLifeReport",
    "ArrayEngine",
    "ArrayResult",
    "INTERLEAVE_MODES",
    "InterleavedDecoder",
    "SegmentedTrace",
    "ShardCensus",
    "shard_attack_workload",
    "shard_seed",
    "zipf_workload",
]

"""Unified workload package: generators, trace files, shards, FTL/WA.

One vocabulary of storage traffic consumed by both stacks:

* :mod:`~repro.workloads.generators` — composable deterministic
  request generators (Zipf, uniform, sequential, phase-shifting
  hotspots, per-phase read/write mixes) built on ``derive_rng`` streams;
* :mod:`~repro.workloads.tracefile` — the canonical on-disk trace
  format, a recorder freezing any generator to disk, and
  :class:`TraceReplay`, which loads a file in one read and is the one
  wrap-around replayer of recorded traffic for the serving layer and
  the batch engines alike;
* :mod:`~repro.workloads.shards` — per-shard projections and digests,
  the equivalence surface between ``repro.serve`` and ``repro.array``;
* :mod:`~repro.workloads.ftl` — a page-mapping FTL with greedy /
  cost-benefit garbage collection whose write-amplification accounting
  feeds the ``fig_wa`` experiment through telemetry.

:mod:`~repro.workloads.convert` ingests external block-trace CSVs
(MSR-Cambridge layout) into the canonical format, so real enterprise
traces replay through the same machinery as generated ones.

CLI: ``python -m repro.workloads {generate,record,replay,describe,convert}``.
"""

from .convert import convert_msr, fold_addresses, read_msr_csv
from .ftl import FTLConfig, GC_POLICIES, PageMappingFTL
from .generators import (CHUNK, Phase, PhasedWorkload, SequentialWorkload,
                         Workload, phase_shifting_hotspot, uniform_workload,
                         zipf_workload)
from .shards import per_shard_streams, shard_digests, stream_digest
from .tracefile import (TraceMeta, TraceReplay, canonical_bytes,
                        check_canonical, read_meta, record_workload,
                        write_records)

__all__ = [
    "CHUNK", "Phase", "Workload", "PhasedWorkload", "SequentialWorkload",
    "uniform_workload", "zipf_workload", "phase_shifting_hotspot",
    "TraceMeta", "TraceReplay", "canonical_bytes",
    "check_canonical", "read_meta", "record_workload", "write_records",
    "per_shard_streams", "shard_digests", "stream_digest",
    "FTLConfig", "GC_POLICIES", "PageMappingFTL",
    "convert_msr", "fold_addresses", "read_msr_csv",
]

"""Property suite for the workload package.

The pinned contracts, each driven by hypothesis over seeds and
geometries:

* **seed determinism** — a workload's stream is a pure function of its
  builder arguments, however it is consumed (one request at a time or
  in arbitrary bulk splits);
* **Zipf rank-frequency monotonicity** — empirical frequency follows
  the rank law: higher-probability ranks are sampled at least as often,
  aggregated over rank halves to keep the check noise-immune;
* **read/write mix convergence** — the empirical write fraction
  concentrates around ``write_ratio``;
* **record → replay round trip** — freezing a workload to the canonical
  file format and loading it back reproduces the records and the bytes
  exactly;
* **prefix-replay equivalence** — appending phases never rewrites an
  earlier prefix (the :class:`~repro.array.trace.SegmentedTrace`
  contract);
* **replay cursor** — :meth:`TraceReplay.next_request` reads the same
  records as :meth:`TraceReplay.take`, wrap-around included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (SequentialWorkload, TraceMeta, TraceReplay,
                             canonical_bytes, phase_shifting_hotspot,
                             record_workload, uniform_workload,
                             zipf_workload)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
spaces = st.integers(min_value=4, max_value=128)


def build(kind, blocks, seed, write_ratio=0.5):
    if kind == "uniform":
        return uniform_workload(blocks, requests=512,
                                write_ratio=write_ratio, seed=seed)
    if kind == "zipf":
        return zipf_workload(blocks, requests=512,
                             write_ratio=write_ratio, seed=seed)
    if kind == "sequential":
        return SequentialWorkload(blocks, stride=3,
                                  write_ratio=write_ratio, seed=seed)
    return phase_shifting_hotspot(blocks, phases=3, phase_requests=200,
                                  write_ratio=write_ratio, seed=seed)


KINDS = ("uniform", "zipf", "sequential", "hotshift")


@given(seed=seeds, blocks=spaces, kind=st.sampled_from(KINDS),
       split=st.integers(min_value=1, max_value=400))
@settings(max_examples=60, deadline=None)
def test_stream_is_independent_of_consumption_granularity(
        seed, blocks, kind, split):
    bulk = build(kind, blocks, seed).take(401)
    pieces = build(kind, blocks, seed)
    first = pieces.take(split)
    rest = pieces.take(401 - split)
    assert np.array_equal(bulk, np.concatenate([first, rest]))


@given(seed=seeds, blocks=spaces, kind=st.sampled_from(KINDS))
@settings(max_examples=40, deadline=None)
def test_same_arguments_reproduce_the_same_stream(seed, blocks, kind):
    assert np.array_equal(build(kind, blocks, seed).take(300),
                          build(kind, blocks, seed).take(300))


@given(seed=seeds, blocks=st.integers(min_value=8, max_value=64))
@settings(max_examples=30, deadline=None)
def test_zipf_rank_frequency_is_monotone_over_halves(seed, blocks):
    workload = zipf_workload(blocks, exponent=1.2, requests=4096,
                             seed=seed)
    addresses = workload.take(4096)[:, 0]
    counts = np.bincount(addresses, minlength=blocks)
    probabilities = workload.phases[0].probabilities
    by_rank = counts[np.argsort(probabilities)[::-1]]
    half = blocks // 2
    # The popular half must dominate the tail half, decisively.
    assert by_rank[:half].sum() > by_rank[half:].sum()
    # And the single top rank beats the single bottom rank.
    assert by_rank[0] >= by_rank[-1]


@given(seed=seeds, kind=st.sampled_from(KINDS),
       write_ratio=st.floats(min_value=0.1, max_value=0.9))
@settings(max_examples=40, deadline=None)
def test_write_mix_converges_to_the_requested_ratio(seed, kind,
                                                    write_ratio):
    flags = build(kind, 32, seed, write_ratio).take(4096)[:, 1]
    observed = flags.mean()
    sigma = np.sqrt(write_ratio * (1 - write_ratio) / 4096)
    assert abs(observed - write_ratio) < 6 * sigma


@given(seed=seeds, blocks=spaces, kind=st.sampled_from(KINDS),
       requests=st.integers(min_value=1, max_value=300),
       epoch=st.integers(min_value=1, max_value=64))
@settings(max_examples=40, deadline=None)
def test_record_replay_round_trip_is_byte_identical(tmp_path_factory,
                                                    seed, blocks, kind,
                                                    requests, epoch):
    path = tmp_path_factory.mktemp("prop") / "w.trace"
    meta = record_workload(path, build(kind, blocks, seed), requests,
                           epoch_requests=epoch)
    replay = TraceReplay.load(path)
    assert np.array_equal(replay.records,
                          build(kind, blocks, seed).take(requests))
    assert canonical_bytes(meta, replay.records) == path.read_bytes()


@given(seed=seeds, blocks=spaces,
       prefix_phases=st.integers(min_value=1, max_value=3),
       extra_phases=st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_appending_phases_never_rewrites_the_prefix(seed, blocks,
                                                    prefix_phases,
                                                    extra_phases):
    base = phase_shifting_hotspot(blocks, phases=prefix_phases,
                                  phase_requests=150, seed=seed)
    extra = phase_shifting_hotspot(blocks, phases=extra_phases,
                                   phase_requests=90, seed=seed,
                                   name="extra")
    span = prefix_phases * 150
    prefix = base.take(span)
    assert np.array_equal(prefix, base.then(extra).take(span))


@given(seed=seeds, blocks=spaces, kind=st.sampled_from(KINDS),
       records=st.integers(min_value=1, max_value=64),
       calls=st.integers(min_value=1, max_value=200))
@settings(max_examples=40, deadline=None)
def test_replay_next_request_reads_the_take_stream(seed, blocks, kind,
                                                   records, calls):
    stored = build(kind, blocks, seed).take(records)
    meta = TraceMeta(name="replay", virtual_blocks=blocks,
                     requests=records, epoch_requests=records,
                     write_ratio=0.5)
    single, bulk = TraceReplay(stored, meta), TraceReplay(stored, meta)
    served = [single.next_request() for _ in range(calls)]
    assert served == [(int(address), bool(is_write))
                      for address, is_write in bulk.take(calls)]
    assert all(type(a) is int and type(w) is bool for a, w in served)
    # Both cursors stand at the same record afterwards.
    assert np.array_equal(single.take(records), bulk.take(records))

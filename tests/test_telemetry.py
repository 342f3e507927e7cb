"""The telemetry subsystem: metrics, tracing, sessions, and the CLI.

Three layers of assurance:

* unit tests over every primitive (counters, gauges, histograms, the
  registry's enabled flag and type guard, the trace writer's closed
  vocabulary and sequence discipline);
* Hypothesis properties — histogram cumulative monotonicity under any
  observation sequence, snapshot-merge associativity/commutativity (the
  worker-order-independence guarantee), and trace round-trip identity;
* end-to-end reconciliation: an instrumented seeded run's event counts
  must match the controller's own ground-truth counters exactly.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.telemetry import (TelemetrySession, TraceWriter, attach_controller,
                             attach_exact, attach_fast, attach_ftl, census,
                             diff_traces, merge_snapshots, read_trace,
                             run_meta)
from repro.telemetry.metrics import (DEFAULT_BUCKETS, Registry,
                                     SLO_QUANTILES, deterministic_snapshot,
                                     gauge_payload, gauge_value,
                                     histogram_quantile, quantile_label,
                                     snapshot_quantiles)
from repro.telemetry.session import phase
from repro.telemetry.trace import (EVENT_KINDS, PROFILE_KIND, dumps, loads,
                                   profile_of)

# ---------------------------------------------------------------------------
# metric primitives


class TestCounter:
    def test_increments_accumulate(self):
        counter = Registry().counter("writes")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_is_rejected(self):
        counter = Registry().counter("writes")
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            counter.inc(-1)

    def test_registry_returns_same_instance(self):
        registry = Registry()
        assert registry.counter("a") is registry.counter("a")


class TestGauge:
    def test_last_write_wins(self):
        gauge = Registry().gauge("depth")
        gauge.set(3)
        gauge.set(1)
        assert gauge.value == 1


class TestGaugeModes:
    """Per-gauge merge policies (max / min / last)."""

    def test_default_mode_is_max_and_snapshots_bare(self):
        # Regression pin: a gauge without an explicit mode behaves and
        # serializes exactly as before the modes existed.
        registry = Registry()
        registry.gauge("peak").set(7)
        assert registry.gauge("peak").mode == "max"
        assert registry.snapshot()["gauges"] == {"peak": 7}

    def test_max_merge_default_is_unchanged(self):
        a = {"gauges": {"peak": 3}}
        b = {"gauges": {"peak": 9}}
        merged = merge_snapshots(a, b)
        assert merged["gauges"] == {"peak": 9}

    def test_min_mode_keeps_the_low_water_mark(self):
        registry = Registry()
        registry.gauge("headroom", mode="min").set(0.8)
        other = {"gauges": {"headroom": {"value": 0.3, "mode": "min"}}}
        registry.merge(other)
        registry.merge({"gauges": {"headroom": {"value": 0.5,
                                                "mode": "min"}}})
        assert registry.gauge("headroom").value == 0.3
        assert registry.snapshot()["gauges"]["headroom"] == {
            "value": 0.3, "mode": "min"}

    def test_last_mode_takes_the_incoming_value(self):
        a = {"gauges": {"risk": {"value": 0.2, "mode": "last"}}}
        b = {"gauges": {"risk": {"value": 0.7, "mode": "last"}}}
        merged = merge_snapshots(a, b)
        assert merged["gauges"]["risk"] == {"value": 0.7, "mode": "last"}

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown merge mode"):
            Registry().gauge("g", mode="median")

    def test_mode_mismatch_on_reuse_is_rejected(self):
        registry = Registry()
        registry.gauge("g", mode="min")
        registry.gauge("g")  # None = don't care
        with pytest.raises(ConfigurationError, match="merge mode"):
            registry.gauge("g", mode="max")

    def test_mode_mismatch_between_snapshots_is_rejected(self):
        a = {"gauges": {"g": {"value": 1, "mode": "min"}}}
        b = {"gauges": {"g": {"value": 2, "mode": "last"}}}
        with pytest.raises(ConfigurationError, match="differs between"):
            merge_snapshots(a, b)

    def test_bad_snapshot_mode_is_rejected(self):
        bad = {"gauges": {"g": {"value": 1, "mode": "median"}}}
        with pytest.raises(ConfigurationError, match="bad merge mode"):
            merge_snapshots(bad, {})

    def test_gauge_payload_and_value_accept_both_forms(self):
        assert gauge_payload("g", 4) == (4, "max")
        assert gauge_payload("g", {"value": 2.5, "mode": "min"}) \
            == (2.5, "min")
        assert gauge_value(4) == 4
        assert gauge_value({"value": 2.5, "mode": "last"}) == 2.5

    def test_session_set_gauge_forwards_the_mode(self):
        session = TelemetrySession()
        session.set_gauge("headroom", 0.4, mode="min")
        assert session.registry.gauge("headroom").mode == "min"


class TestHistogram:
    def test_observations_land_in_correct_buckets(self):
        hist = Registry().histogram("lat", bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        # bisect_left: a value equal to a bound lands in that bound's bucket.
        assert hist.counts == [2, 1, 1]
        assert hist.total == 4
        assert hist.sum == pytest.approx(106.5)

    def test_bounds_must_be_strictly_increasing(self):
        registry = Registry()
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            registry.histogram("bad", bounds=(1.0, 1.0))
        with pytest.raises(ConfigurationError, match="at least one"):
            registry.histogram("empty", bounds=())

    def test_cumulative_ends_at_total(self):
        hist = Registry().histogram("lat", bounds=(1.0, 2.0, 3.0))
        for value in (0.5, 2.5, 9.0):
            hist.observe(value)
        assert hist.cumulative()[-1] == hist.total == 3

    def test_observe_many_of_nothing_changes_nothing(self):
        hist = Registry().histogram("lat", bounds=(1.0, 10.0))
        hist.observe(5)
        before = hist.snapshot()
        hist.observe_many([])
        assert hist.snapshot() == before


class TestRegistry:
    def test_cross_type_name_collision_is_rejected(self):
        registry = Registry()
        registry.counter("shared")
        with pytest.raises(ConfigurationError, match="different type"):
            registry.gauge("shared")
        with pytest.raises(ConfigurationError, match="different type"):
            registry.histogram("shared")

    def test_merge_folds_a_worker_snapshot(self):
        worker = Registry()
        worker.counter("cells").inc(3)
        worker.gauge("peak").set(7)
        worker.histogram("wall", bounds=(1.0,)).observe(0.5)
        parent = Registry()
        parent.counter("cells").inc(1)
        parent.gauge("peak").set(9)
        parent.merge(worker.snapshot())
        assert parent.counter("cells").value == 4
        assert parent.gauge("peak").value == 9
        assert parent.histogram("wall", bounds=(1.0,)).total == 1

    def test_merge_rejects_mismatched_histogram_bounds(self):
        a = Registry()
        a.histogram("wall", bounds=(1.0,)).observe(0.5)
        b = Registry()
        b.histogram("wall", bounds=(2.0,)).observe(0.5)
        with pytest.raises(ConfigurationError, match="bounds differ"):
            a.merge(b.snapshot())

    def test_merge_rejects_malformed_snapshots(self):
        registry = Registry()
        with pytest.raises(ConfigurationError, match="expected a number"):
            registry.merge({"counters": {"x": "three"}})
        with pytest.raises(ConfigurationError, match="not a mapping"):
            registry.merge({"histograms": {"h": [1, 2]}})
        with pytest.raises(ConfigurationError, match="expected a list"):
            registry.merge({"histograms": {"h": {"bounds": "oops"}}})
        # Same bounds but a truncated counts vector: the overflow bucket
        # is implicit, so len(counts) must be len(bounds) + 1.
        registry.histogram("wall", bounds=(1.0,))
        with pytest.raises(ConfigurationError, match="bucket count"):
            registry.merge({"histograms": {"wall": {
                "bounds": [1.0], "counts": [2], "total": 2, "sum": 0.5}}})


# ---------------------------------------------------------------------------
# hypothesis properties


@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                 allow_nan=False), max_size=200))
@settings(max_examples=100, deadline=None)
def test_histogram_cumulative_is_monotone(values):
    """Property: cumulative bucket counts never decrease and end at the
    total, for any observation sequence."""
    hist = Registry().histogram("h", bounds=DEFAULT_BUCKETS)
    for value in values:
        hist.observe(value)
    cumulative = hist.cumulative()
    assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))
    assert cumulative[-1] == hist.total == len(values)


_MANY_BOUNDS = (1.0, 4.0, 16.0, 64.0)
_many_values = st.lists(st.one_of(
    st.integers(min_value=-100, max_value=0),        # below the first bound
    st.sampled_from([1, 4, 16, 64]),                 # equal to a bound
    st.integers(min_value=2, max_value=63),          # between bounds
    st.integers(min_value=65, max_value=10 ** 9)),   # past the last bound
    max_size=120)


@given(before=_many_values, values=_many_values)
@settings(max_examples=150, deadline=None)
def test_observe_many_equals_one_observe_per_value(before, values):
    """Property: folding int values in bulk gives the same snapshot —
    buckets, total and exact int sum — as observing them one by one,
    onto an empty or an already-populated histogram."""
    one_by_one = Registry().histogram("h", bounds=_MANY_BOUNDS)
    bulk = Registry().histogram("h", bounds=_MANY_BOUNDS)
    for value in before:
        one_by_one.observe(value)
        bulk.observe(value)
    for value in values:
        one_by_one.observe(value)
    bulk.observe_many(values)
    assert bulk.snapshot() == one_by_one.snapshot()
    assert type(bulk.sum) is int


def _snapshot_strategy():
    names = st.sampled_from(["a", "b", "c"])
    counters = st.dictionaries(names, st.integers(min_value=0,
                                                  max_value=1000))
    gauges = st.dictionaries(names.map(lambda n: "g." + n),
                             st.integers(min_value=-50, max_value=50))
    histograms = st.dictionaries(
        names.map(lambda n: "h." + n),
        st.lists(st.integers(min_value=0, max_value=9), min_size=3,
                 max_size=3).map(lambda counts: {
                     "bounds": [1.0, 2.0], "counts": counts,
                     "total": sum(counts), "sum": float(sum(counts))}))
    return st.fixed_dictionaries({"counters": counters, "gauges": gauges,
                                  "histograms": histograms})


@given(a=_snapshot_strategy(), b=_snapshot_strategy(),
       c=_snapshot_strategy())
@settings(max_examples=100, deadline=None)
def test_snapshot_merge_is_associative_and_commutative(a, b, c):
    """Property: merge order never matters — workers can finish in any
    order and the aggregate is identical."""
    assert merge_snapshots(a, b) == merge_snapshots(b, a)
    assert merge_snapshots(merge_snapshots(a, b), c) == \
        merge_snapshots(a, merge_snapshots(b, c))


class TestMergeSnapshotsEdges:
    """Edge shapes the array layer feeds the merge (shards with no
    telemetry, disjoint metric sets, inconsistent kinds)."""

    def test_empty_snapshot_is_the_identity(self):
        snapshot = {"counters": {"x": 3}, "gauges": {"g": 5},
                    "histograms": {}}
        assert merge_snapshots(snapshot, {}) == {
            "counters": {"x": 3}, "gauges": {"g": 5}, "histograms": {}}
        assert merge_snapshots({}, snapshot) == \
            merge_snapshots(snapshot, {})
        assert merge_snapshots({}, {}) == {
            "counters": {}, "gauges": {}, "histograms": {}}

    def test_deterministic_snapshot_strips_phase_seconds(self):
        snapshot = {"counters": {"phase.run.seconds": 0.5,
                                 "phase.run.calls": 3, "writes": 9},
                    "gauges": {"peak": 2}, "histograms": {}}
        cleaned = deterministic_snapshot(snapshot)
        assert cleaned["counters"] == {"phase.run.calls": 3, "writes": 9}
        assert cleaned["gauges"] == {"peak": 2}

    def test_disjoint_labels_union(self):
        a = {"counters": {"s0.writes": 10}, "gauges": {"s0.peak": 2}}
        b = {"counters": {"s1.writes": 7}, "gauges": {"s1.peak": 4}}
        merged = merge_snapshots(a, b)
        assert merged["counters"] == {"s0.writes": 10, "s1.writes": 7}
        assert merged["gauges"] == {"s0.peak": 2, "s1.peak": 4}

    def test_kind_mismatch_raises(self):
        # The same name as a counter in one shard and a gauge in another
        # means the instrumentation disagrees — never merge silently.
        a = {"counters": {"shared": 3}}
        b = {"gauges": {"shared": 1}}
        with pytest.raises(ConfigurationError, match="different type"):
            merge_snapshots(a, b)


_FIELD_VALUES = st.one_of(st.none(), st.booleans(),
                          st.integers(min_value=-2**31, max_value=2**31),
                          st.text(max_size=20))


@given(events=st.lists(
    st.tuples(st.sampled_from(sorted(EVENT_KINDS)),
              st.dictionaries(st.sampled_from(["da", "vpa", "page", "note"]),
                              _FIELD_VALUES, max_size=4)),
    max_size=50))
@settings(max_examples=100, deadline=None)
def test_trace_round_trips_identically(events):
    """Property: dumps -> loads -> dumps is the identity on any emitted
    trace, and read_trace validates it."""
    writer = TraceWriter(meta={"seed": 1})
    for kind, fields in events:
        writer.emit(kind, **fields)
    text = writer.getvalue()
    records = read_trace(text.splitlines())
    assert "\n".join(dumps(r) for r in records) + "\n" == text
    assert records == [loads(line) for line in text.splitlines()]
    assert diff_traces(records, read_trace(text.splitlines())) is None


# ---------------------------------------------------------------------------
# trace writer + reader


class TestTraceWriter:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ConfigurationError, match="closed"):
            TraceWriter().emit("link-instal")  # typo'd kind

    def test_fields_cannot_shadow_kind_or_seq(self):
        writer = TraceWriter()
        with pytest.raises(ConfigurationError, match="shadow"):
            writer.emit("crash", seq=99)

    def test_sequence_numbers_are_contiguous_from_zero(self):
        writer = TraceWriter(meta={"seed": 1})
        writer.emit("crash", site="x")
        writer.emit("recover")
        records = read_trace(writer.getvalue().splitlines())
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert run_meta(records) == {"seed": 1}
        assert census(records) == {"crash": 1, "recover": 1, "run-meta": 1}

    def test_read_trace_rejects_broken_sequence(self):
        lines = [dumps({"seq": 0, "kind": "crash"}),
                 dumps({"seq": 2, "kind": "recover"})]
        with pytest.raises(ConfigurationError, match="sequence broken"):
            read_trace(lines)

    def test_read_trace_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown kind"):
            read_trace([dumps({"seq": 0, "kind": "nonsense"})])

    def test_diff_reports_first_divergence_and_length(self):
        a = [{"seq": 0, "kind": "crash"}]
        b = [{"seq": 0, "kind": "recover"}]
        assert "record 0 differs" in diff_traces(a, b)
        assert "lengths differ" in diff_traces(a, a + b)
        assert diff_traces(a, list(a)) is None

    def test_profile_record_is_parsed(self):
        writer = TraceWriter()
        writer.emit("crash")
        writer.append_profile({"verify": {"seconds": 1.5, "calls": 2}})
        records = read_trace(writer.getvalue().splitlines())
        assert records[-1]["kind"] == PROFILE_KIND
        assert profile_of(records) == {
            "verify": {"seconds": 1.5, "calls": 2}}

    def test_loads_rejects_a_non_object_line(self):
        with pytest.raises(ConfigurationError, match="not an object"):
            loads("[1, 2, 3]")

    def test_getvalue_requires_the_in_memory_sink(self, tmp_path):
        with open(tmp_path / "run.jsonl", "w") as sink:
            writer = TraceWriter(sink=sink)
            writer.emit("crash")
            with pytest.raises(ConfigurationError, match="in-memory"):
                writer.getvalue()

    def test_read_trace_skips_blank_lines(self):
        lines = ["", dumps({"seq": 0, "kind": "crash"}), "   ",
                 dumps({"seq": 1, "kind": "recover"}), ""]
        assert [r["kind"] for r in read_trace(lines)] == ["crash", "recover"]

    def test_run_meta_is_empty_unless_the_trace_leads_with_it(self):
        assert run_meta([]) == {}
        assert run_meta([{"seq": 0, "kind": "crash"},
                         {"seq": 1, "kind": "run-meta", "seed": 3}]) == {}


# ---------------------------------------------------------------------------
# the session facade


class TestSession:
    def test_emit_counts_and_traces_in_lockstep(self):
        session = TelemetrySession(writer=TraceWriter())
        session.emit("page-retire", page=3)
        session.emit("page-retire", page=4)
        assert session.event_count("page-retire") == 2
        assert session.writer.counts["page-retire"] == 2

    def test_emit_without_writer_still_counts(self):
        session = TelemetrySession()
        session.emit("crash")
        assert session.event_count("crash") == 1

    def test_phase_timing_accumulates_into_profile(self):
        session = TelemetrySession()
        with session.phase("verify"):
            pass
        session.add_phase_seconds("verify", 1.25)
        profile = session.profile()
        assert profile["verify"]["calls"] == 2
        assert profile["verify"]["seconds"] >= 1.25

    def test_detached_phase_records_nothing(self):
        first = phase(None, "verify")
        with first:
            pass
        # Every detached phase shares one no-op context.
        assert phase(None, "service-write") is first

    def test_attached_phase_adds_one_call(self):
        session = TelemetrySession()
        with phase(session, "verify"):
            pass
        counters = session.registry.snapshot()["counters"]
        assert counters["phase.verify.calls"] == 1
        assert session.profile() == {
            "verify": {"seconds": counters["phase.verify.seconds"],
                       "calls": 1}}

    def test_append_profile_lands_in_the_trace(self):
        session = TelemetrySession(writer=TraceWriter())
        session.add_phase_seconds("verify", 0.5)
        session.append_profile()
        records = read_trace(session.writer.getvalue().splitlines())
        assert profile_of(records)["verify"]["calls"] == 1

    def test_gauge_and_histogram_shorthands(self):
        session = TelemetrySession()
        session.set_gauge("grid.jobs", 4)
        session.observe("grid.cell_wall", 0.2, bounds=(1.0,))
        assert session.registry.gauge("grid.jobs").value == 4
        assert session.registry.histogram("grid.cell_wall",
                                          bounds=(1.0,)).total == 1

    def test_profile_ignores_counters_outside_the_phase_shape(self):
        session = TelemetrySession()
        session.count("phase.verify.seconds", 2)
        session.count("phase.verify.calls")
        session.count("phase.oddball")          # no .seconds/.calls suffix
        session.count("phase.x.bogus")          # unknown field
        assert session.profile() == {"verify": {"seconds": 2, "calls": 1}}


# ---------------------------------------------------------------------------
# end-to-end reconciliation against ground truth


def test_exact_run_events_reconcile_with_controller_counters():
    """An instrumented exact run's event census must agree exactly with
    the controller's own ground-truth counters."""
    from repro.faultinject.campaign import _exact_system, _schedule_horizon
    from repro.faultinject.hooks import ScheduleDriver
    from repro.faultinject.schedule import random_schedule

    engine = _exact_system(seed=5, num_blocks=96, mean=120.0)
    schedule = random_schedule(5, 96, _schedule_horizon(96, 120.0, 10_000))
    ScheduleDriver(schedule).attach_exact(engine)
    session = TelemetrySession(writer=TraceWriter(meta={"seed": 5}))
    attach_exact(session, engine)
    engine.run(max_writes=10_000)
    engine.verify_all()

    controller = engine.controller
    reviver = controller.reviver
    assert session.event_count("pointer-switch") == reviver.resolver.switches
    assert session.event_count("page-retire") == \
        controller.reporter.report_count
    assert session.event_count("crash") == controller.crashes_recovered
    assert session.event_count("recover") == controller.crashes_recovered
    assert session.event_count("read-retry") == \
        controller.transient_read_errors
    # Inverse rewrites mirror the "inverse" metadata writes one-for-one:
    # one per link, two per switch, one per recovery redo of that side.
    assert session.event_count("inverse-rewrite") >= \
        session.event_count("link-install") + \
        2 * session.event_count("pointer-switch")
    # Installs and restores cover every currently linked block.
    assert session.event_count("link-install") + \
        session.event_count("link-restore") >= len(reviver.links)
    # The trace validates and its census matches the registry.
    records = read_trace(session.writer.getvalue().splitlines())
    for kind, count in census(records).items():
        if kind in EVENT_KINDS:
            assert session.event_count(kind) == count
    # The run did something worth tracing.
    assert len(reviver.links) > 0
    assert controller.crashes_recovered > 0


def test_fast_run_links_reconcile_and_phases_are_profiled():
    """Instrumented FastEngine: link-install events equal the link dict,
    page-retire events equal OS reports, and every epoch phase shows up
    in the profile."""
    from repro.pcm import AddressGeometry, EnduranceModel, PCMChip
    from repro.ecc import ECP
    from repro.sim.fast import FastConfig, FastEngine
    from repro.traces import hotspot_distribution
    from repro.wl import StartGap

    geometry = AddressGeometry(num_blocks=256, block_bytes=64, page_bytes=512)
    endurance = EnduranceModel(num_blocks=256, mean=150.0, cov=0.25,
                               max_order=8, seed=3)
    chip = PCMChip(geometry, ECP(endurance, 1))
    wl = StartGap(256)
    config = FastConfig(batch_writes=2_000, max_writes=60_000, seed=9)
    trace = hotspot_distribution(config.blocks_per_page * 3, 4.0, seed=4)
    engine = FastEngine(chip, wl, trace, config=config)
    session = TelemetrySession(writer=TraceWriter())
    attach_fast(session, engine)
    engine.run()

    assert session.event_count("link-install") == len(engine.links)
    assert session.event_count("page-retire") == \
        engine.reporter.report_count
    assert session.registry.counter("fast.writes").value == \
        engine.total_writes
    profile = session.profile()
    for phase in ("redirect-rebuild", "software-apply", "wear-leveling"):
        assert profile[phase]["calls"] > 0


def test_attach_controller_reaches_reviver_and_reporter():
    from .conftest import make_reviver_system

    controller, _, _, _ = make_reviver_system(num_blocks=64, mean=200.0)
    session = TelemetrySession()
    attach_controller(session, controller)
    assert controller.telem is session
    assert controller.reviver.telem is session
    assert controller.reviver.links.telem is session
    assert controller.reporter.telem is session


# ---------------------------------------------------------------------------
# the CLI


def _write_sample_trace(path):
    writer = TraceWriter(meta={"seed": 7, "engine": "exact"})
    writer.emit("link-install", da=3, vpa=40)
    writer.emit("crash", site="mid-migration")
    writer.emit("recover", crashes=1)
    writer.append_profile({"verify": {"seconds": 0.25, "calls": 1}})
    path.write_text(writer.getvalue())
    return path


def _hist_snap(bounds, counts, total=None, total_sum=0.0):
    return {"bounds": list(bounds), "counts": list(counts),
            "total": sum(counts) if total is None else total,
            "sum": total_sum}


class TestHistogramQuantiles:
    def test_interpolates_within_a_bucket(self):
        snap = _hist_snap((1.0, 2.0, 4.0), (1, 2, 1, 1))
        # rank 2.5 of 5 lands 1.5 observations into the [1, 2) bucket.
        assert histogram_quantile(snap, 0.5) == pytest.approx(1.75)

    def test_q0_is_the_lower_edge_and_q1_clamps_to_last_bound(self):
        snap = _hist_snap((1.0, 2.0, 4.0), (1, 2, 1, 1))
        assert histogram_quantile(snap, 0.0) == 0.0
        assert histogram_quantile(snap, 1.0) == 4.0

    def test_empty_buckets_are_skipped(self):
        snap = _hist_snap((1.0, 2.0, 4.0), (0, 2, 0, 0))
        assert histogram_quantile(snap, 0.5) == pytest.approx(1.5)

    def test_first_bucket_lower_edge_follows_a_negative_bound(self):
        assert histogram_quantile(
            _hist_snap((-2.0, 0.0), (2, 0, 0)), 0.5) == pytest.approx(-2.0)
        assert histogram_quantile(
            _hist_snap((2.0, 4.0), (2, 0, 0)), 0.5) == pytest.approx(1.0)

    def test_quantile_out_of_range_is_rejected(self):
        snap = _hist_snap((1.0,), (1, 0))
        for bad in (-0.1, 1.5):
            with pytest.raises(ConfigurationError, match="in \\[0, 1\\]"):
                histogram_quantile(snap, bad)

    def test_malformed_snapshots_are_rejected(self):
        with pytest.raises(ConfigurationError, match="bucket counts"):
            histogram_quantile(_hist_snap((1.0, 2.0), (1, 1)), 0.5)
        with pytest.raises(ConfigurationError, match="empty"):
            histogram_quantile(_hist_snap((1.0,), (0, 0)), 0.5)
        with pytest.raises(ConfigurationError, match="list under 'bounds'"):
            histogram_quantile({"bounds": 3, "counts": [1]}, 0.5)

    def test_histogram_method_matches_module_function(self):
        hist = Registry().histogram("lat", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0, 10.0):
            hist.observe(value)
        assert hist.quantile(0.5) == histogram_quantile(hist.snapshot(), 0.5)

    def test_quantile_label(self):
        assert [quantile_label(q) for q in SLO_QUANTILES] == \
            ["p50", "p95", "p99"]
        assert quantile_label(0.999) == "p99.9"

    def test_snapshot_quantiles_skips_empty_histograms(self):
        registry = Registry()
        registry.histogram("empty", bounds=(1.0,))
        registry.histogram("lat", bounds=(1.0, 2.0)).observe(0.5)
        table = snapshot_quantiles(registry.snapshot())
        assert set(table) == {"lat"}
        assert set(table["lat"]) == {"p50", "p95", "p99"}

    def test_snapshot_quantiles_rejects_non_mapping_histogram(self):
        with pytest.raises(ConfigurationError, match="not a mapping"):
            snapshot_quantiles({"histograms": {"x": 3}})

    def test_merged_snapshot_quantiles_cover_the_union(self):
        shard_a, shard_b = Registry(), Registry()
        for value in (0.5, 1.5):
            shard_a.histogram("lat", bounds=(1.0, 2.0, 4.0)).observe(value)
        for value in (1.5, 3.0, 10.0):
            shard_b.histogram("lat", bounds=(1.0, 2.0, 4.0)).observe(value)
        merged = merge_snapshots(shard_a.snapshot(), shard_b.snapshot())
        union = Registry()
        for value in (0.5, 1.5, 1.5, 3.0, 10.0):
            union.histogram("lat", bounds=(1.0, 2.0, 4.0)).observe(value)
        assert snapshot_quantiles(merged) == \
            snapshot_quantiles(union.snapshot())


class TestCli:
    def test_summarize_text(self, tmp_path, capsys):
        from repro.telemetry.cli import main

        trace = _write_sample_trace(tmp_path / "run.jsonl")
        assert main(["summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "link-install" in out
        assert "seed: 7" in out
        assert "verify" in out  # the profile table

    def test_summarize_json(self, tmp_path, capsys):
        from repro.telemetry.cli import main

        trace = _write_sample_trace(tmp_path / "run.jsonl")
        assert main(["summarize", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["census"]["crash"] == 1
        assert payload["meta"]["engine"] == "exact"
        assert payload["profile"]["verify"]["calls"] == 1

    def test_diff_identical_and_divergent(self, tmp_path, capsys):
        from repro.telemetry.cli import main

        a = _write_sample_trace(tmp_path / "a.jsonl")
        b = _write_sample_trace(tmp_path / "b.jsonl")
        assert main(["diff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out
        b.write_text(b.read_text().replace('"da":3', '"da":4'))
        assert main(["diff", str(a), str(b)]) == 1
        assert "record 1 differs" in capsys.readouterr().out

    def test_bad_trace_is_an_error_exit(self, tmp_path, capsys):
        from repro.telemetry.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"seq": 0, "kind": "nonsense"}\n')
        assert main(["summarize", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_format_profile_tolerates_malformed_stats(self):
        from repro.telemetry.cli import _format_profile

        lines = _format_profile({
            "good": {"seconds": 1.0, "calls": 2},
            "not-a-dict": 7,
            "bad-fields": {"seconds": "fast", "calls": None},
        })
        assert any(line.startswith("good") for line in lines)
        assert not any("not-a-dict" in line for line in lines)
        assert any(line.startswith("bad-fields") for line in lines)
        assert lines[-1].startswith("total")

    def test_summarize_snapshot_text(self, tmp_path, capsys):
        from repro.telemetry.cli import main

        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps({
            "counters": {"serve.ok": 3}, "gauges": {"serve.depth": 2},
            "histograms": {"lat": _hist_snap((1.0, 2.0, 4.0), (1, 2, 1, 1))},
        }))
        assert main(["summarize", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "serve.ok" in out and "serve.depth" in out
        assert "p99" in out and "1.750" in out

    def test_summarize_unwraps_embedded_snapshot(self, tmp_path, capsys):
        """A serve-style result file carries its snapshot under a key."""
        from repro.telemetry.cli import main

        result = tmp_path / "slo.json"
        result.write_text(json.dumps({
            "config": {"seed": 7}, "report": {"throughput": 1.0},
            "snapshot": {
                "counters": {"serve.ok": 9},
                "histograms": {
                    "lat": _hist_snap((1.0, 2.0, 4.0), (1, 2, 1, 1))},
            },
        }))
        assert main(["summarize", str(result)]) == 0
        out = capsys.readouterr().out
        assert "serve.ok" in out and "p99" in out

    def test_non_dict_embedded_snapshot_falls_through(self, tmp_path,
                                                      capsys):
        from repro.telemetry.cli import main

        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"snapshot": [1, 2]}')
        assert main(["summarize", str(bogus)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_summarize_snapshot_json(self, tmp_path, capsys):
        from repro.telemetry.cli import main

        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps({
            "histograms": {"lat": _hist_snap((1.0, 2.0, 4.0), (1, 2, 1, 1))},
        }))
        assert main(["summarize", str(snap), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["quantiles"]["lat"]["p50"] == pytest.approx(1.75)
        assert payload["snapshot"]["histograms"]["lat"]["total"] == 5

    def test_summarize_snapshot_without_histograms(self, tmp_path, capsys):
        from repro.telemetry.cli import main

        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps({"counters": {"serve.ok": 3}}))
        assert main(["summarize", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "serve.ok" in out and "histograms:" not in out

    def test_non_snapshot_json_falls_through_to_trace_reader(self, tmp_path,
                                                             capsys):
        from repro.telemetry.cli import main

        # A JSON object with foreign keys, a non-dict section value, and a
        # non-object document are all *not* snapshots; they hit the trace
        # reader, which rejects them as malformed records (exit 2).
        for text in ('{"foo": 1}', '{"counters": 5}', '[1, 2]', "{}"):
            bad = tmp_path / "bad.json"
            bad.write_text(text)
            assert main(["summarize", str(bad)]) == 2
            assert "error:" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        trace = _write_sample_trace(tmp_path / "run.jsonl")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.telemetry", "summarize",
             str(trace)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "census" in proc.stdout

    def test_module_entry_point_in_process(self, tmp_path, capsys,
                                           monkeypatch):
        import runpy
        import sys

        trace = _write_sample_trace(tmp_path / "run.jsonl")
        monkeypatch.setattr(
            sys, "argv", ["repro.telemetry", "summarize", str(trace)])
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_module("repro.telemetry", run_name="__main__")
        assert excinfo.value.code == 0
        assert "census" in capsys.readouterr().out


def test_attach_ftl_routes_wa_accounting_through_the_session():
    import numpy as np

    from repro.workloads import FTLConfig, PageMappingFTL

    ftl = PageMappingFTL(FTLConfig(logical_pages=96, physical_blocks=8,
                                   pages_per_block=32))
    session = TelemetrySession()
    assert attach_ftl(session, ftl) is session
    assert ftl.telem is session
    addresses = np.random.default_rng(7).integers(0, 96, size=2048)
    ftl.replay(addresses, epoch_writes=512)
    counters = session.registry.snapshot()["counters"]
    assert counters["wa.host_writes"] == 2048
    assert counters["wa.gc_writes"] == ftl.gc_writes
    assert counters["wa.erases"] == ftl.erases
    gauges = session.registry.snapshot()["gauges"]
    assert gauges["wa.ratio"] == pytest.approx(ftl.wa_ratio())
    histogram = session.registry.snapshot()["histograms"]["wa.epoch_ratio"]
    assert sum(histogram["counts"]) == len(ftl.epoch_series) == 4


def test_detached_ftl_pays_nothing():
    import numpy as np

    from repro.workloads import FTLConfig, PageMappingFTL

    ftl = PageMappingFTL(FTLConfig(logical_pages=96, physical_blocks=8,
                                   pages_per_block=32))
    assert ftl.telem is None
    ftl.replay(np.zeros(64, dtype=np.int64), epoch_writes=16)
    assert len(ftl.epoch_series) == 4  # the series itself still accrues

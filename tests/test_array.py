"""The shard-array layer: decoder, segmented traces, array campaigns.

The integration tests run real 4-shard campaigns at a deliberately tiny
scale (240 software blocks per shard, endurance 150-250) so a full
degraded lifecycle — every shard worn to death, traffic re-decoded after
each casualty — finishes in well under a second.
"""

import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array import (ArrayConfig, ArrayEngine, InterleavedDecoder,
                         SegmentedTrace, shard_attack_workload, shard_seed)
from repro.array.shard import build_shard
from repro.array.__main__ import main as array_main
from repro.errors import ConfigurationError
from repro.faultinject import FaultSchedule, shard_death_schedule
from repro.telemetry import deterministic_snapshot
from repro.traces import (hotspot_distribution, uniform_distribution,
                          zipf_distribution)
from repro.workloads import record_workload, zipf_workload

PAGE = 16


def make_decoder(shards=4, blocks=240, interleave="block"):
    return InterleavedDecoder(shards, blocks, interleave=interleave,
                              page_blocks=PAGE)


def make_config(**overrides):
    base = dict(num_shards=4, shard_blocks=256, page_blocks=PAGE,
                mean_endurance=150.0, psi=8, batch_writes=1_000, seed=7)
    base.update(overrides)
    return ArrayConfig(**base)


# ----------------------------------------------------------------- decoder


class TestInterleavedDecoder:
    @pytest.mark.parametrize("interleave", ["block", "page"])
    def test_decode_encode_is_a_bijection(self, interleave):
        decoder = make_decoder(interleave=interleave)
        blocks = np.arange(decoder.global_blocks, dtype=np.int64)
        shards, locals_ = decoder.decode(blocks)
        assert shards.min() >= 0 and shards.max() < 4
        assert locals_.min() >= 0 and locals_.max() < 240
        back = decoder.encode(shards, locals_)
        np.testing.assert_array_equal(back, blocks)
        # Every (shard, local) pair is hit exactly once.
        pairs = set(zip(shards.tolist(), locals_.tolist()))
        assert len(pairs) == decoder.global_blocks

    @pytest.mark.parametrize("interleave", ["block", "page"])
    def test_uniform_traffic_splits_evenly(self, interleave):
        decoder = make_decoder(interleave=interleave)
        probabilities = np.full(decoder.global_blocks,
                                1.0 / decoder.global_blocks)
        masses = decoder.shard_masses(probabilities)
        np.testing.assert_allclose(masses, 0.25)

    def test_page_mode_keeps_pages_whole(self):
        decoder = make_decoder(interleave="page")
        blocks = np.arange(decoder.global_blocks, dtype=np.int64)
        shards, locals_ = decoder.decode(blocks)
        # All blocks of one global page land on one shard.
        for page_start in range(0, decoder.global_blocks, PAGE):
            page_shards = shards[page_start:page_start + PAGE]
            assert len(set(page_shards.tolist())) == 1

    def test_local_mass_partitions_the_distribution(self):
        decoder = make_decoder()
        rng = np.random.default_rng(3)
        probabilities = rng.random(decoder.global_blocks)
        probabilities /= probabilities.sum()
        masses = [decoder.local_mass(probabilities, s) for s in range(4)]
        assert sum(float(m.sum()) for m in masses) == pytest.approx(1.0)
        for shard, mass in enumerate(masses):
            assert float(mass.sum()) == pytest.approx(
                float(decoder.shard_masses(probabilities)[shard]))

    @pytest.mark.parametrize("bad", [
        dict(num_shards=0, shard_blocks=240),
        dict(num_shards=4, shard_blocks=0),
        dict(num_shards=4, shard_blocks=240, interleave="stripe"),
        # Page interleaving requires whole pages per shard.
        dict(num_shards=4, shard_blocks=250, interleave="page"),
        dict(num_shards=4, shard_blocks=240, page_blocks=0),
    ])
    def test_invalid_geometry_is_rejected(self, bad):
        kwargs = dict(page_blocks=PAGE)
        kwargs.update(bad)
        with pytest.raises(ConfigurationError):
            InterleavedDecoder(**kwargs)

    def test_probability_shape_is_checked(self):
        decoder = make_decoder()
        with pytest.raises(ConfigurationError):
            decoder.shard_masses(np.ones(decoder.global_blocks - 1))


# ---------------------------------------------------------- segmented trace


class TestSegmentedTrace:
    def test_single_segment_draws_like_its_distribution(self):
        probabilities = np.array([0.5, 0.25, 0.25])
        trace = SegmentedTrace([(0, probabilities)], name="t", seed=3)
        counts = trace.batch_counts(10_000)
        assert counts.sum() == 10_000
        assert counts[0] > counts[1]

    def test_batches_split_at_segment_boundaries(self):
        first = np.array([1.0, 0.0])
        second = np.array([0.0, 1.0])
        trace = SegmentedTrace([(0, first), (100, second)], name="t",
                               seed=3)
        counts = trace.batch_counts(150)
        # 100 draws from the first table, 50 from the second.
        np.testing.assert_array_equal(counts, [100, 50])

    def test_prefix_replay_is_byte_identical(self):
        rng = np.random.default_rng(11)
        table_a = rng.random(32)
        table_a /= table_a.sum()
        table_b = rng.random(32)
        table_b /= table_b.sum()
        short = SegmentedTrace([(0, table_a)], name="s", seed=9)
        extended = SegmentedTrace([(0, table_a), (3_000, table_b)],
                                  name="s", seed=9)
        # Appending a future segment must not disturb earlier epochs.
        for _ in range(3):
            np.testing.assert_array_equal(short.batch_counts(1_000),
                                          extended.batch_counts(1_000))

    def test_reset_restarts_the_stream(self):
        table = np.full(8, 0.125)
        trace = SegmentedTrace([(0, table)], name="t", seed=5)
        first = trace.batch_counts(500)
        trace.reset()
        np.testing.assert_array_equal(first, trace.batch_counts(500))

    def test_reschedule_continues_like_a_fresh_replay(self):
        flat = np.full(8, 0.125)
        ramp = np.arange(1.0, 9.0)
        resumed = SegmentedTrace([(0, flat)], name="t", seed=5)
        resumed.batch_counts(100)
        later = [(0, flat), (100, ramp), (300, flat)]
        resumed.reschedule(later)
        fresh = SegmentedTrace(later, name="t", seed=5)
        fresh.batch_counts(100)
        for _ in range(4):
            np.testing.assert_array_equal(resumed.batch_counts(100),
                                          fresh.batch_counts(100))

    @pytest.mark.parametrize("segments", [
        [(0, np.arange(1.0, 9.0))],                  # drawn table changed
        [(0, np.full(8, 0.125)), (50, np.arange(1.0, 9.0))],  # behind
        [(0, np.full(4, 0.25))],                     # width
    ])
    def test_reschedule_refuses_to_change_a_drawn_segment(self, segments):
        trace = SegmentedTrace([(0, np.full(8, 0.125)),
                                (200, np.arange(1.0, 9.0))],
                               name="t", seed=5)
        trace.batch_counts(100)
        with pytest.raises(ConfigurationError):
            trace.reschedule(segments)

    def test_restricted_to_folds_each_segment(self):
        table = np.array([0.1, 0.2, 0.3, 0.4])
        trace = SegmentedTrace([(0, table), (50, table[::-1].copy())],
                               name="t", seed=5)
        folded = trace.restricted_to(2)
        assert folded.num_segments == 2
        counts = folded.batch_counts(1_000)
        assert counts.shape == (2,)
        assert counts.sum() == 1_000

    @pytest.mark.parametrize("segments", [
        [],
        [(5, np.array([1.0]))],                       # first start != 0
        [(0, np.array([1.0])), (0, np.array([1.0]))],  # not increasing
        [(0, np.array([0.5, 0.5])), (10, np.array([1.0]))],  # width
        [(0, np.array([0.0, 0.0]))],                  # no mass
        [(0, np.array([0.5, -0.5]))],                 # negative
    ])
    def test_invalid_segment_tables_are_rejected(self, segments):
        with pytest.raises(ConfigurationError):
            SegmentedTrace(segments, name="bad", seed=1)


# ------------------------------------------------------------ configuration


class TestArrayConfig:
    def test_software_blocks_excludes_the_gap_page(self):
        assert make_config().software_blocks == 240

    @pytest.mark.parametrize("bad", [
        dict(policy="explode"),
        dict(interleave="stripe"),
        dict(num_shards=0),
        dict(shard_blocks=PAGE),  # below two OS pages
        dict(shard_blocks=100),  # not a whole number of pages
        dict(page_blocks=0),
        dict(max_writes=-5),
        dict(recovery="freep"),
        dict(recovery="bogus"),
        dict(dead_fraction=0.0),
        dict(batch_writes=0),
        dict(psi=0),
        dict(mean_endurance=0.0),
        dict(endurance_cov=-1.0),
    ])
    def test_invalid_configurations_are_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            make_config(**bad)

    def test_shard_seeds_are_stable_and_distinct(self):
        seeds = [shard_seed(7, i) for i in range(4)]
        assert seeds == [shard_seed(7, i) for i in range(4)]
        assert len(set(seeds)) == 4
        assert seeds != [shard_seed(8, i) for i in range(4)]

    def test_zero_dead_fraction_is_rejected_before_any_write(self):
        # A zero dead fraction would declare every shard dead at write 0;
        # the config refuses it before any engine exists.
        with pytest.raises(ConfigurationError, match="dead_fraction"):
            make_config(dead_fraction=0.0)

    def test_undersized_trace_is_rejected(self):
        config = make_config()
        small = uniform_distribution(2 * 240)
        with pytest.raises(ConfigurationError, match="decodes"):
            ArrayEngine(config, small)


# ------------------------------------------------------------ shard resume

#: One shard stack small enough to die within a few dozen epochs.
SHARD_EPOCH = 500
SHARD_CONFIG = make_config(shard_blocks=128, batch_writes=SHARD_EPOCH)
SHARD_SPACE = SHARD_CONFIG.software_blocks


def resume_shard(segments, max_writes):
    """Shard 0's stack, built the way the array engine builds it."""
    return build_shard(SHARD_CONFIG, 0, segments, max_writes,
                       label="resume")


def shard_record(engine, session):
    """Everything the array reads off a finished shard, as plain data."""
    return {"total_writes": engine.total_writes,
            "series": engine.series.to_payload(),
            "report": engine.end_of_life_report().as_dict(),
            "snapshot": deterministic_snapshot(session.registry.snapshot())}


def fresh_record(segments, max_writes):
    engine, session = resume_shard(segments, max_writes)
    engine.run()
    return shard_record(engine, session)


class TestShardResume:
    @settings(max_examples=12, deadline=None)
    @given(steps=st.lists(st.tuples(st.integers(1, 4), st.booleans()),
                          min_size=1, max_size=5),
           table_seed=st.integers(0, 2 ** 16))
    def test_resumed_shard_equals_a_fresh_run(self, steps, table_seed):
        # The lockstep step: one engine resumed cap by cap, its trace
        # taking each new segment at the cap it is parked on.
        rng = np.random.default_rng(table_seed)
        segments = [(0, rng.random(SHARD_SPACE) + 0.01)]
        engine, session = resume_shard(segments, 0)
        engine.run()
        cap = 0
        for epochs, switch in steps:
            cap += epochs * SHARD_EPOCH
            engine.resume(cap)
            if engine.stopped_reason != "max-writes":
                break  # the shard died, and a death cannot be continued
            if switch:
                segments.append((cap, rng.random(SHARD_SPACE) + 0.01))
                engine.trace.reschedule(segments)
        record = shard_record(engine, session)
        fresh = fresh_record(segments, cap)
        for key in ("series", "report", "snapshot"):
            assert record[key] == fresh[key]
        assert record == fresh

    def test_pickled_engine_resumes_like_the_original(self):
        # A shard engine parked at its cap is plain data: a pickled copy
        # resumes to the same record as the engine it was copied from.
        table = np.random.default_rng(3).random(SHARD_SPACE) + 0.01
        engine, session = resume_shard([(0, table)], 4000)
        engine.run()
        assert engine.stopped_reason == "max-writes"
        copy, copy_session = pickle.loads(pickle.dumps((engine, session)))
        for resumed in (copy, engine):
            resumed.resume(8000)
        records = [shard_record(e, s)
                   for e, s in [(copy, copy_session), (engine, session)]]
        assert records[0]["total_writes"] == 8000
        assert records[0] == records[1]


# ------------------------------------------------------------ end of life


def run_array(jobs=1, policy="degraded", schedule=None, workload="hotspot",
              **overrides):
    config = make_config(policy=policy, **overrides)
    decoder = make_decoder(shards=config.num_shards,
                           blocks=config.software_blocks,
                           interleave=config.interleave)
    if workload == "hotspot":
        trace = hotspot_distribution(config.global_blocks, 3.0, seed=7)
    elif workload == "attack":
        trace = shard_attack_workload(decoder, shard=0, hot_share=0.9,
                                      seed=7)
    elif workload == "attack-s1-only":
        trace = shard_attack_workload(decoder, shard=1, hot_share=1.0,
                                      seed=7)
    elif workload == "zipf":
        trace = zipf_distribution(config.global_blocks, exponent=1.0,
                                  seed=7)
    else:
        trace = uniform_distribution(config.global_blocks, seed=7)
    engine = ArrayEngine(config, trace, label="t", jobs=jobs,
                         schedule=schedule)
    return engine.run()


class TestArrayEndOfLife:
    def test_degraded_array_outlives_every_shard(self):
        result = run_array()
        report = result.report
        assert report.stop is not None
        assert report.stop.cause.value == "exhausted"
        assert sorted(report.dead_shards) == [0, 1, 2, 3]
        assert report.usable_fraction == 0.0
        assert report.num_shards == 4 and len(report.shards) == 4
        # The merged series ends with the array fully unusable.
        assert result.series.points[-1].usable == 0.0
        # Census shares cover the whole distribution initially.
        assert sum(c.share for c in report.shards) == pytest.approx(1.0)

    def test_forced_shard_death_degrades_but_serves(self):
        schedule = shard_death_schedule(2, at_write=3_000, num_blocks=256)
        result = run_array(schedule=schedule, workload="uniform",
                           mean_endurance=200.0)
        report = result.report
        # The killed shard dies first, at its injected local time.
        assert report.dead_shards[0] == 2
        victim = report.shards[2]
        assert victim.local_writes == 3_000
        assert victim.died_at_global is not None
        # The array kept serving well past the casualty...
        assert report.total_writes > victim.died_at_global
        # ...at reduced capacity: usable drops to 3/4 after the death.
        after = result.series.sample_at(victim.died_at_global + 1).usable
        assert after == pytest.approx(0.75, abs=0.05)
        # The survivors inherited the victim's share.
        final = [c.final_share for c in report.shards]
        assert final[2] == 0.0
        assert sum(final) == pytest.approx(1.0)

    def test_fail_stop_dies_with_its_first_shard(self):
        schedule = shard_death_schedule(2, at_write=3_000, num_blocks=256)
        result = run_array(policy="fail-stop", schedule=schedule,
                           workload="uniform", mean_endurance=200.0)
        report = result.report
        assert report.stop is not None
        assert report.stop.cause.value == "shard-failed"
        assert "shard 2" in report.stop.detail
        assert report.dead_shards == (2,)
        # The first pass of the run loop finds the death and ends the run.
        assert result.rounds == 1
        # Survivors end on the death's epoch boundary, still alive.
        for census in report.shards:
            if census.shard != 2:
                assert census.stop == "max-writes"
                assert census.died_at_global is None

    def test_global_budget_stops_a_healthy_array(self):
        result = run_array(workload="uniform", max_writes=8_000,
                           mean_endurance=250.0)
        report = result.report
        assert report.stop is not None
        assert report.stop.cause.value == "max-writes"
        assert report.dead_shards == ()
        assert report.usable_fraction == 1.0

    def test_attack_kills_the_victim_shard_first(self):
        result = run_array(workload="attack")
        assert result.report.dead_shards[0] == 0


FORCED_KILL = dict(workload="uniform", mean_endurance=200.0,
                   schedule=shard_death_schedule(2, at_write=3_000,
                                                 num_blocks=256))


def counted_draws(monkeypatch):
    """Record every batch size the shard traces draw from now on."""
    drawn = []
    batch_counts = SegmentedTrace.batch_counts

    def counting(trace, batch):
        drawn.append(batch)
        return batch_counts(trace, batch)

    monkeypatch.setattr(SegmentedTrace, "batch_counts", counting)
    return drawn


def survivor_headroom(result):
    """The least endurance headroom left on a shard that did not die."""
    cfg = result.config
    return min(1.0 - census.local_writes
               / (cfg.shard_blocks * cfg.mean_endurance)
               for census in result.report.shards
               if census.died_at_global is None)


class TestLockstep:
    @pytest.mark.parametrize("overrides", [
        dict(policy="degraded", workload="attack", num_shards=2),
        dict(policy="fail-stop", workload="attack", num_shards=2),
        # Near-equal shares: endurance noise decides the death order.
        dict(policy="degraded", workload="uniform", mean_endurance=200.0),
        dict(policy="fail-stop", workload="uniform", mean_endurance=200.0,
             batch_writes=500, seed=1),
        # A health model reading every survivor at each event.
        dict(policy="degraded", workload="zipf", interleave="page",
             mean_endurance=200.0, balance=True, balance_every=4_000),
    ], ids=["degraded", "fail-stop", "uniform-block-degraded",
            "uniform-block-fail-stop", "zipf-page-balanced"])
    def test_writes_drawn_equal_writes_kept(self, monkeypatch, overrides):
        # Deaths here come from wear alone, and no shard steps past one,
        # so every write a trace hands out is kept.
        drawn = counted_draws(monkeypatch)
        result = run_array(**overrides)
        assert result.report.dead_shards
        assert sum(drawn) == result.report.total_writes

    #: sha256 of each run's sorted ``as_dict()`` JSON, recorded with the
    #: round-based engine the lockstep driver replaced, so they check the
    #: driver against an independent implementation.
    PINS = {
        "degraded-kill": (
            dict(policy="degraded", **FORCED_KILL),
            "b18b648bae767150f8d6eb7b8876f979eaf1096fce9b61ac068a791000684878"),
        "fail-stop-kill": (
            dict(policy="fail-stop", **FORCED_KILL),
            "d422c083c9fba876713fc2e884ffe8787d894a7007bba38eff22994c284a1aa3"),
        "degraded-early-kill": (
            dict(policy="degraded", workload="uniform",
                 schedule=shard_death_schedule(1, 1_000, 256)),
            "2793ea4cebed8b35417ceeb67872e575c41e7e77e7575110b6475d9859caa139"),
        "fail-stop-attack-page-kill": (
            dict(policy="fail-stop", workload="attack", interleave="page",
                 schedule=shard_death_schedule(2, 3_000, 256)),
            "867d6cf5025636259e80dfed5ea7a8950ed25e5182fa0d1a5ac1d5d5b0becdb0"),
        "degraded-uniform": (
            dict(policy="degraded", workload="uniform"),
            "1be6743fef83968c20b758e4b470f14f852902ecd9145c239f90ca525b69ac50"),
        "degraded-attack": (
            dict(policy="degraded", workload="attack"),
            "84c42ba7da1096bc41fdfb3812ea2d06f5a4cbbb65c7df958590f8f93c94e36f"),
        "fail-stop-uniform": (
            dict(policy="fail-stop", workload="uniform"),
            "1b8b5139723c71565292ceb54ffe4a18de8676a0c1323535b3e82639677a8782"),
        "fail-stop-attack": (
            dict(policy="fail-stop", workload="attack"),
            "3f0de65dfcc36b73ef0cec47d267a62093bda2f8c034bcc7341ef1d3727ab84d"),
        "degraded-hotspot": (
            dict(policy="degraded", workload="hotspot"),
            "c344daf7cd37c67bdacc76ad5ecd97389fcf0a060f47f196f109e7ead257cf30"),
        "degraded-zipf": (
            dict(policy="degraded", workload="zipf"),
            "cff444969d05a72bb8e9585d503590904b99aa151c39acab687ecd6ba79974fb"),
    }

    #: All traffic on shard 1: under fail-stop shards 0, 2 and 3 never
    #: see a write, so these pin the census of a shard with no traffic.
    #: Recorded with the engine that turned each shard into a dict record.
    IDLE_PINS = {
        "fail-stop-idle": (
            dict(policy="fail-stop", workload="attack-s1-only"),
            "070eb72d697443ca2f30bccdd9a724f37ba259712d23edd3f6deee30fb2aef25"),
        "degraded-idle": (
            dict(policy="degraded", workload="attack-s1-only"),
            "11f1194d343f60c0c932371a145318ccad8265dba8d49e420c13e0733371858a"),
    }

    @pytest.mark.parametrize("name", sorted(IDLE_PINS))
    def test_idle_shard_output_is_pinned(self, name):
        overrides, digest = self.IDLE_PINS[name]
        result = run_array(**overrides)
        if overrides["policy"] == "fail-stop":
            assert [c.report["stop"] for c in result.report.shards] == [
                "max-writes: no traffic decoded to shard", "dead-fraction",
                "max-writes: no traffic decoded to shard",
                "max-writes: no traffic decoded to shard"]
        payload = json.dumps(result.as_dict(), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_static_output_is_pinned(self, name):
        # The forced kills tie the victim with the survivors on the
        # global clock, so these also pin the tie repair.
        overrides, digest = self.PINS[name]
        result = run_array(**overrides)
        if overrides.get("workload") == "attack":
            # The attack is built over the config's own layout, so shard
            # 0 draws most of the traffic under either interleave.
            assert result.report.shards[0].share > 0.5
        payload = json.dumps(result.as_dict(), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest

    def test_a_tied_second_death_is_not_in_the_fail_stop_census(self):
        # Two shards killed on the same local write under equal shares
        # die at one global instant.  The lower id stops the array, and
        # the other is reported as it was at that instant, before the
        # epoch that would kill it.
        kills = (shard_death_schedule(1, 1_000, 256).actions
                 + shard_death_schedule(2, 1_000, 256).actions)
        result = run_array(policy="fail-stop", workload="uniform",
                           mean_endurance=200.0,
                           schedule=FaultSchedule(actions=kills, seed=None,
                                                  name="two-kills"))
        assert result.report.dead_shards == (1,)
        tied = result.report.shards[2]
        assert (tied.stop, tied.local_writes) == ("max-writes", 1_000)
        assert tied.report["failed_fraction"] == 0.0

    @pytest.mark.parametrize("overrides", [
        dict(workload="attack", balance=True, remap_budget=16),
        dict(workload="uniform", add_shard_at=2_500),
    ], ids=["balanced", "growing"])
    def test_health_gauge_reads_survivors_at_the_death(self, overrides):
        # A fail-stop array ends at its first death, so the health model's
        # last reading of every survivor is the census's.
        result = run_array(policy="fail-stop", **overrides)
        assert result.report.dead_shards
        gauge = result.snapshot["gauges"]["balance.headroom"]["value"]
        assert gauge == pytest.approx(survivor_headroom(result))


class TestArrayDeterminism:
    def test_result_is_invariant_under_jobs(self):
        schedule = shard_death_schedule(1, at_write=2_000, num_blocks=256)
        serial = run_array(jobs=1, schedule=schedule)
        pooled = run_array(jobs=2, schedule=schedule)
        assert json.dumps(serial.snapshot, sort_keys=True) == \
            json.dumps(pooled.snapshot, sort_keys=True)
        assert serial.report.as_dict() == pooled.report.as_dict()
        assert serial.series.to_payload() == pooled.series.to_payload()

    def test_snapshot_carries_array_and_shard_counters(self):
        result = run_array()
        counters = result.snapshot["counters"]
        assert counters["array.shard-deaths"] == 4
        assert counters["array.writes"] == result.report.total_writes
        assert result.snapshot["gauges"]["array.shards-live"] == 0
        # Wall-clock phase timers must not leak into the merged snapshot.
        assert not any(name.endswith(".seconds") for name in counters)


# ----------------------------------------------------------------- the CLI


class TestArrayCli:
    def test_main_renders_a_census(self, capsys, tmp_path):
        out = tmp_path / "array.json"
        code = array_main(["--shards", "2", "--shard-blocks", "256",
                           "--page-blocks", "16", "--mean", "200",
                           "--batch-writes", "1000", "--workload",
                           "uniform", "--max-writes", "6000",
                           "--json", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "array[2x]" in captured.out
        assert "s0:" in captured.out and "s1:" in captured.out
        payload = json.loads(out.read_text())
        assert payload["num_shards"] == 2
        assert payload["report"]["stop"].startswith("max-writes")

    def test_kill_flag_injects_a_shard_death(self, capsys):
        code = array_main(["--shards", "2", "--shard-blocks", "256",
                           "--page-blocks", "16", "--mean", "200",
                           "--batch-writes", "1000", "--workload",
                           "uniform", "--kill-shard", "0",
                           "--kill-at", "2000"])
        assert code == 0
        captured = capsys.readouterr()
        assert "dead shards: 0" in captured.out

    def test_recorded_trace_output_is_pinned(self, tmp_path):
        # A zipf trace over the 2 x 240-block software space, replayed
        # to the last shard death through --workload trace.
        trace, out = tmp_path / "w.trace", tmp_path / "array.json"
        record_workload(trace, zipf_workload(480, requests=2_000,
                                             write_ratio=0.7, seed=5),
                        2_000, epoch_requests=500)
        code = array_main(["--shards", "2", "--shard-blocks", "256",
                           "--page-blocks", "16", "--mean", "200",
                           "--batch-writes", "1000", "--workload", "trace",
                           "--trace", str(trace), "--quiet",
                           "--json", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "58eafffaff1238695e661cc19673e1d4e6326ed46dec6e4008a6b6d5d4bdfdf3"

"""The shard-array layer: decoder, segmented traces, array campaigns.

The integration tests run real 4-shard campaigns at a deliberately tiny
scale (240 software blocks per shard, endurance 150-250) so a full
degraded lifecycle — every shard worn to death, traffic re-decoded after
each casualty — finishes in well under a second.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array import (ArrayConfig, ArrayEngine, InterleavedDecoder,
                         SegmentedTrace, deterministic_snapshot,
                         hotspot_workload, run_shard_cell,
                         shard_attack_workload, shard_seed,
                         uniform_workload)
from repro.array.__main__ import main as array_main
from repro.errors import ConfigurationError
from repro.faultinject import shard_death_schedule

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
    ])
    def test_invalid_configurations_are_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            make_config(**bad)

    def test_shard_seeds_are_stable_and_distinct(self):
        seeds = [shard_seed(7, i) for i in range(4)]
        assert seeds == [shard_seed(7, i) for i in range(4)]
        assert len(set(seeds)) == 4
        assert seeds != [shard_seed(8, i) for i in range(4)]

    def test_undersized_trace_is_rejected(self):
        config = make_config()
        small = uniform_workload(make_decoder(shards=2, blocks=240))
        with pytest.raises(ConfigurationError, match="decodes"):
            ArrayEngine(config, small)


# ------------------------------------------------------------ shard resume

#: One shard stack small enough to die within a few dozen epochs.
SHARD_EPOCH = 500
SHARD_SPACE = make_config(shard_blocks=128).software_blocks


def shard_kwargs(segments, max_writes):
    """One shard cell's kwargs, in the form the array engine builds."""
    return dict(shard=0, seed=shard_seed(7, 0), device_blocks=128,
                mean_endurance=150.0, endurance_cov=0.2, max_order=16,
                ecp_k=6, psi=8, batch_writes=SHARD_EPOCH,
                recovery="reviver", dead_fraction=0.3, page_blocks=PAGE,
                segments=[[start, [float(x) for x in table]]
                          for start, table in segments],
                max_writes=max_writes, schedule=None, telemetry=True,
                label="resume")


class TestShardResume:
    @settings(max_examples=12, deadline=None)
    @given(steps=st.lists(st.tuples(st.integers(1, 4), st.booleans()),
                          min_size=1, max_size=5),
           table_seed=st.integers(0, 2 ** 16))
    def test_resumed_shard_equals_a_fresh_run(self, steps, table_seed):
        rng = np.random.default_rng(table_seed)
        segments = [(0, rng.random(SHARD_SPACE) + 0.01)]
        cap = 0
        record, checkpoint = None, None
        for epochs, switch in steps:
            cap += epochs * SHARD_EPOCH
            record = run_shard_cell(checkpoint=checkpoint,
                                    **shard_kwargs(segments, cap))
            checkpoint = record.pop("checkpoint", None)
            if checkpoint is None:
                break  # the shard died, and a death cannot be continued
            if switch:
                segments.append((cap, rng.random(SHARD_SPACE) + 0.01))
        fresh = run_shard_cell(**shard_kwargs(segments, cap))
        fresh.pop("checkpoint", None)
        for key in ("series", "report", "snapshot"):
            assert record[key] == fresh[key]
        assert record == fresh

    def test_a_dead_shard_keeps_no_checkpoint(self):
        record = run_shard_cell(**shard_kwargs(
            [(0, np.full(SHARD_SPACE, 1.0))], None))
        assert record["stop"] != "max-writes"
        assert "checkpoint" not in record


# ------------------------------------------------------------ end of life


def run_array(jobs=1, policy="degraded", schedule=None, workload="hotspot",
              **overrides):
    config = make_config(policy=policy, **overrides)
    decoder = make_decoder(shards=config.num_shards,
                           blocks=config.software_blocks)
    if workload == "hotspot":
        trace = hotspot_workload(decoder, cov=3.0, seed=7)
    elif workload == "attack":
        trace = shard_attack_workload(decoder, shard=0, hot_share=0.9,
                                      seed=7)
    else:
        trace = uniform_workload(decoder, seed=7)
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
        after = result.series.usable_at(victim.died_at_global + 1)
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
        # Truncating the survivors belongs to the round that found the
        # death, whichever shard led it.
        assert result.rounds == 1
        # Survivors are truncated at the death epoch, still alive.
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


def _lead_choices():
    """``ArrayEngine._lead`` stand-ins: each pending position, smallest share."""
    choices = [(f"pending[{k}]",
                lambda self, pending, k=k: pending[k % len(pending)])
               for k in range(4)]
    choices.append(("smallest-share", lambda self, pending: min(
        pending, key=lambda i: (self._states[i].share, i))))
    return choices


FORCED_KILL = dict(workload="uniform", mean_endurance=200.0,
                   schedule=shard_death_schedule(2, at_write=3_000,
                                                 num_blocks=256))


class TestLeadRule:
    @pytest.mark.parametrize("overrides", [
        dict(policy="degraded", workload="uniform"),
        dict(policy="degraded", workload="attack"),
        dict(policy="fail-stop", workload="uniform"),
        dict(policy="fail-stop", workload="attack"),
        dict(policy="degraded", **FORCED_KILL),
        dict(policy="fail-stop", **FORCED_KILL),
        # The health model reads survivors' records after each round,
        # so a balanced array must not park them at the lead's death.
        dict(policy="fail-stop", workload="attack", balance=True,
             remap_budget=16),
    ], ids=["degraded-uniform", "degraded-attack", "fail-stop-uniform",
            "fail-stop-attack", "degraded-kill", "fail-stop-kill",
            "fail-stop-balanced"])
    def test_result_does_not_depend_on_the_lead(self, monkeypatch,
                                                overrides):
        expected = json.dumps(run_array(**overrides).as_dict(),
                              sort_keys=True)
        for name, choose in _lead_choices():
            monkeypatch.setattr(ArrayEngine, "_lead", choose)
            got = json.dumps(run_array(**overrides).as_dict(),
                             sort_keys=True)
            assert got == expected, name

    @pytest.mark.parametrize("policy", ["degraded", "fail-stop"])
    def test_no_writes_replay_when_the_lead_dies_first(self, monkeypatch,
                                                       policy):
        drawn = []
        batch_counts = SegmentedTrace.batch_counts

        def counting(trace, batch):
            drawn.append(batch)
            return batch_counts(trace, batch)

        monkeypatch.setattr(SegmentedTrace, "batch_counts", counting)
        result = run_array(policy=policy, workload="attack", num_shards=2)
        assert result.report.dead_shards[0] == 0
        assert sum(drawn) == result.report.total_writes


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

    def test_deterministic_snapshot_strips_phase_seconds(self):
        snapshot = {"counters": {"phase.run.seconds": 0.5,
                                 "phase.run.calls": 3, "writes": 9},
                    "gauges": {"peak": 2}, "histograms": {}}
        cleaned = deterministic_snapshot(snapshot)
        assert cleaned["counters"] == {"phase.run.calls": 3, "writes": 9}
        assert cleaned["gauges"] == {"peak": 2}


# ----------------------------------------------------------------- the CLI


class TestArrayCli:
    def test_main_renders_a_census(self, capsys, tmp_path):
        out = tmp_path / "array.json"
        code = array_main(["--shards", "2", "--shard-blocks", "256",
                           "--page-blocks", "16", "--mean", "200",
                           "--batch-writes", "1000", "--workload",
                           "uniform", "--max-writes", "6000",
                           "--jobs", "2", "--json", str(out)])
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

"""The repro.balance control plane: health, remap, leveler, engines.

Four layers:

* unit tests over the primitives — the deterministic health model
  (wear + failure-rate EWMA, seeded tie-break jitter), the remappable
  decoder (swap / grow / rehome and the sparse table), and the
  bounded-budget leveler (budget, quiet threshold, no mass inversion);
* array integration — the balanced engine path extends full-capacity
  lifetime over the static baseline under skewed traffic, elastic
  scale-out grows the report, fault schedules compose, and results are
  byte-identical at any ``--jobs``;
* serve integration — live scale-out under traffic preserves the
  zero-drop identity and byte-identical SLO reports at any ``--jobs``,
  and kill schedules reach shards added mid-run;
* CLI smoke for both front ends.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.array import ArrayConfig, ArrayEngine, InterleavedDecoder
from repro.array.workloads import zipf_workload
from repro.balance import (BalancedDecoder, ShardHealthModel, movers_mask,
                           plan_swaps)
from repro.errors import ConfigurationError
from repro.faultinject import shard_death_schedule
from repro.serve import ServeConfig
from repro.serve.engine import ServiceEngine

# ---------------------------------------------------------------------------
# health model


class TestHealthModel:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match=">= 1 shard"):
            ShardHealthModel(0, 100.0)
        with pytest.raises(ConfigurationError, match="endurance_budget"):
            ShardHealthModel(2, 0.0)

    def test_wear_drives_risk(self):
        model = ShardHealthModel(2, endurance_budget=100.0, seed=1)
        model.observe(0, 80.0, 0.0)
        model.observe(1, 10.0, 0.0)
        assert model.risk(0) > model.risk(1)
        assert model.headroom(0) == pytest.approx(0.2)
        assert model.headroom(1) == pytest.approx(0.9)

    def test_failure_rate_ewma_sharpens_the_ranking(self):
        # Equal wear, but shard 0's failed capacity is accelerating.
        model = ShardHealthModel(2, endurance_budget=100.0, seed=1)
        for failed in (0.0, 0.05, 0.15):
            model.observe(0, 50.0, failed)
            model.observe(1, 50.0, 0.0)
        assert model.risk(0) > model.risk(1)

    def test_reobserving_an_old_reading_is_harmless(self):
        model = ShardHealthModel(1, endurance_budget=100.0, seed=1)
        model.observe(0, 50.0, 0.1)
        before = model.risk(0)
        model.observe(0, 50.0, 0.1)
        # The EWMA sees a zero increment, decaying toward zero: risk
        # never jumps from a repeated observation.
        assert model.risk(0) <= before
        assert model._failed[0] == pytest.approx(0.1)

    def test_dead_shard_pins_the_extremes(self):
        model = ShardHealthModel(2, endurance_budget=100.0, seed=1)
        model.observe(0, 10.0, 0.0, dead=True)
        assert model.risk(0) == 1.0
        assert model.headroom(0) == 0.0

    def test_risks_are_seed_deterministic_and_totally_ordered(self):
        a = ShardHealthModel(4, endurance_budget=100.0, seed=9)
        b = ShardHealthModel(4, endurance_budget=100.0, seed=9)
        assert np.array_equal(a.risks(), b.risks())
        # Identical signals, yet the seeded jitter makes ties impossible.
        assert len(set(a.risks().tolist())) == 4

    def test_add_shard_starts_fresh(self):
        model = ShardHealthModel(2, endurance_budget=100.0, seed=1)
        model.observe(0, 90.0, 0.0)
        new = model.add_shard()
        assert new == 2
        assert model.headroom(new) == pytest.approx(1.0, abs=1e-9)

    def test_bounds_and_negative_observations_are_rejected(self):
        model = ShardHealthModel(2, endurance_budget=100.0, seed=1)
        with pytest.raises(ConfigurationError, match="outside"):
            model.risk(2)
        with pytest.raises(ConfigurationError, match="non-negative"):
            model.observe(0, -1.0, 0.0)

    def test_publish_uses_min_and_last_modes(self):
        from repro.telemetry import TelemetrySession
        model = ShardHealthModel(2, endurance_budget=100.0, seed=1)
        model.observe(0, 60.0, 0.0)
        session = TelemetrySession()
        model.publish(session)
        gauges = session.registry.snapshot()["gauges"]
        assert gauges["balance.headroom"]["mode"] == "min"
        assert gauges["balance.headroom"]["value"] == pytest.approx(0.4)
        assert gauges["balance.s0.risk"]["mode"] == "last"


# ---------------------------------------------------------------------------
# remappable decoder


def _decoder(shards=3, blocks=64, interleave="page"):
    base = InterleavedDecoder(shards, shards * blocks,
                              interleave=interleave, page_blocks=16)
    return BalancedDecoder(base)


class TestBalancedDecoder:
    def test_starts_as_the_identity(self):
        decoder = _decoder()
        addresses = np.arange(decoder.global_blocks, dtype=np.int64)
        assert np.array_equal(decoder.shard_of(addresses),
                              decoder.base.shard_of(addresses))
        assert np.array_equal(decoder.local_of(addresses),
                              decoder.base.local_of(addresses))

    def test_swap_exchanges_homes(self):
        decoder = _decoder()
        a, b = 0, decoder.global_blocks - 1
        home_a, home_b = decoder.decode(a), decoder.decode(b)
        decoder.swap(a, b)
        assert decoder.decode(a) == home_b
        assert decoder.decode(b) == home_a
        with pytest.raises(ConfigurationError, match="outside"):
            decoder.swap(0, decoder.global_blocks)

    def test_add_shard_moves_only_the_hash_hits(self):
        decoder = _decoder()
        addresses = np.arange(decoder.global_blocks, dtype=np.int64)
        before = decoder.shard_of(addresses).copy()
        movers, donors = decoder.add_shard()
        after = decoder.shard_of(addresses)
        assert decoder.num_shards == 4
        changed = np.nonzero(before != after)[0]
        assert np.array_equal(changed, movers)
        assert np.array_equal(before[movers], donors)
        assert np.array_equal(after[movers],
                              np.full(movers.size, 3, dtype=np.int64))
        # Movers take the new shard's slots in ascending address order.
        assert np.array_equal(decoder.local_of(movers),
                              np.arange(movers.size, dtype=np.int64))
        # ~1/4 of the space moves under the consistent-hash rule.
        assert 0 < movers.size < decoder.global_blocks // 2

    def test_rehome_applies_the_degraded_rule(self):
        decoder = _decoder()
        addresses = np.arange(decoder.global_blocks, dtype=np.int64)
        slots = decoder.local_of(addresses).copy()
        dead = decoder.shard_of(addresses).copy()
        affected = decoder.rehome(1, [0, 2])
        live = np.asarray([0, 2], dtype=np.int64)
        expected = live[slots[affected] % 2]
        assert np.array_equal(decoder.shard_of(affected), expected)
        assert np.array_equal(affected, np.nonzero(dead == 1)[0])
        # Slots are preserved across the re-home.
        assert np.array_equal(decoder.local_of(affected), slots[affected])
        with pytest.raises(ConfigurationError, match="survivor"):
            decoder.rehome(0, [])

    def test_masses_project_through_the_map(self):
        decoder = _decoder()
        probabilities = np.full(decoder.global_blocks,
                                1.0 / decoder.global_blocks)
        masses = decoder.shard_masses(probabilities)
        assert masses.sum() == pytest.approx(1.0)
        decoder.rehome(1, [0, 2])
        masses = decoder.shard_masses(probabilities)
        assert masses[1] == 0.0
        local = decoder.local_mass(probabilities, 0)
        assert local.sum() == pytest.approx(masses[0])
        with pytest.raises(ConfigurationError, match="covers"):
            decoder.shard_masses(np.ones(3))

    def test_movers_mask_is_a_pure_address_function(self):
        addresses = np.arange(4096, dtype=np.int64)
        a = movers_mask(addresses, 4, 5)
        b = movers_mask(addresses, 4, 5)
        assert np.array_equal(a, b)
        with pytest.raises(ConfigurationError, match="positive"):
            movers_mask(addresses, 0, 0)


# ---------------------------------------------------------------------------
# leveler


class TestLeveler:
    def test_short_risk_vector_is_rejected(self):
        decoder = _decoder()
        with pytest.raises(ConfigurationError, match="risk vector"):
            plan_swaps(decoder, np.ones(decoder.global_blocks),
                       np.zeros(1), [0, 1, 2], 8)

    def test_quiet_below_the_gap_threshold(self):
        decoder = _decoder()
        probabilities = np.ones(decoder.global_blocks)
        risks = np.array([0.50, 0.505, 0.51])
        swaps = plan_swaps(decoder, probabilities, risks, [0, 1, 2], 8)
        assert swaps == []

    def test_moves_hot_mass_off_the_risky_shard(self):
        decoder = _decoder()
        probabilities = np.zeros(decoder.global_blocks)
        # Concentrate traffic on shard 0's addresses.
        owned = np.nonzero(decoder.shard_of(
            np.arange(decoder.global_blocks, dtype=np.int64)) == 0)[0]
        probabilities[owned] = 1.0
        probabilities += 1e-3
        risks = np.array([0.9, 0.1, 0.1])
        before = decoder.shard_masses(probabilities)
        swaps = plan_swaps(decoder, probabilities, risks, [0, 1, 2], 8)
        after = decoder.shard_masses(probabilities)
        assert swaps
        assert len(swaps) <= 8
        assert after[0] < before[0]
        # The mass-inversion guard: the donor never drops below the
        # receiver it shed to.
        assert after[0] >= after[1] - 1e-9

    def test_head_heavy_distribution_still_finds_fitting_swaps(self):
        # A single address holding most of the mass cannot move without
        # inverting the ordering — the leveler must skip it and steer
        # the next-hottest addresses instead of going quiet.
        decoder = _decoder()
        probabilities = np.full(decoder.global_blocks, 1e-3)
        owned = np.nonzero(decoder.shard_of(
            np.arange(decoder.global_blocks, dtype=np.int64)) == 0)[0]
        probabilities[owned[0]] = 100.0   # immovable head
        probabilities[owned[1:9]] = 1.0   # steerable hot set
        risks = np.array([0.9, 0.1, 0.1])
        swaps = plan_swaps(decoder, probabilities, risks, [0, 1, 2], 4)
        assert swaps
        assert owned[0] not in {hot for hot, _cold in swaps}

    def test_single_survivor_means_no_swaps(self):
        decoder = _decoder()
        swaps = plan_swaps(decoder, np.ones(decoder.global_blocks),
                           np.array([0.9, 0.1, 0.1]), [0], 8)
        assert swaps == []


# ---------------------------------------------------------------------------
# array integration


def _array_result(balance=False, add_at=None, schedule=None, jobs=1,
                  policy="degraded", **overrides):
    params = dict(num_shards=3, shard_blocks=128, interleave="page",
                  page_blocks=16, mean_endurance=100.0, batch_writes=500,
                  seed=7, policy=policy, balance=balance,
                  balance_every=2000 if balance else None, remap_budget=32,
                  add_shard_at=add_at)
    params.update(overrides)
    config = ArrayConfig(**params)
    decoder = InterleavedDecoder(config.num_shards, config.software_blocks,
                                 interleave="page", page_blocks=16)
    workload = zipf_workload(decoder, exponent=1.0, seed=7)
    engine = ArrayEngine(config, workload, label="balance-test", jobs=jobs,
                         schedule=schedule)
    return engine.run()


def _elastic_run(kill):
    """The benchmark's array-elastic workload at its smoke size, seed 1.

    Returns ``(config, engine, result, schedule)``; with *kill* shard 1
    is killed at local write 4,000.
    """
    config = ArrayConfig(num_shards=3, shard_blocks=256, interleave="page",
                         page_blocks=16, psi=12, mean_endurance=200.0,
                         batch_writes=666, balance=True,
                         balance_every=8 * 666, remap_budget=32,
                         add_shard_at=12_000, max_writes=30_000, seed=1)
    decoder = InterleavedDecoder(3, config.software_blocks,
                                 interleave="page", page_blocks=16)
    schedule = shard_death_schedule(1, 4_000, 256) if kill else None
    engine = ArrayEngine(config, zipf_workload(decoder, exponent=1.0, seed=1),
                         label="resume", schedule=schedule)
    return config, engine, engine.run(), schedule


def _first_death(result):
    deaths = [shard.died_at_global for shard in result.report.shards
              if shard.died_at_global is not None]
    return min(deaths) if deaths else None


class TestArrayBalance:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="remap_budget"):
            ArrayConfig(remap_budget=-1)
        with pytest.raises(ConfigurationError, match="balance_every"):
            ArrayConfig(balance=True, balance_every=0)
        with pytest.raises(ConfigurationError, match="add_shard_at"):
            ArrayConfig(add_shard_at=0)

    def test_steering_extends_full_capacity_lifetime(self):
        static = _array_result()
        balanced = _array_result(balance=True)
        assert _first_death(balanced) > _first_death(static)
        counters = balanced.snapshot["counters"]
        assert counters["balance.remap-swaps"] > 0
        # Every swap is charged as two migration writes.
        assert counters["balance.migration-writes"] \
            == 2 * counters["balance.remap-swaps"]

    def test_death_only_steering_without_budget_is_the_static_run(self):
        # balance_every=None steers only at shard deaths; with no swap
        # budget the run must equal the static one, in which every
        # survivor that inherits a dead shard's traffic serves it.
        static = _array_result()
        steered = _array_result(balance=True, balance_every=None,
                                remap_budget=0)
        assert len(static.report.dead_shards) == 3
        assert steered.report.as_dict() == static.report.as_dict()
        assert steered.series.to_payload() == static.series.to_payload()
        assert any(name.startswith("balance.")
                   for name in steered.snapshot["counters"])
        assert not any(name.startswith("balance.")
                       for kind in static.snapshot.values()
                       for name in kind)

    def test_add_shard_grows_the_array(self):
        grown = _array_result(balance=True, add_at=4000)
        assert grown.report.num_shards == 4
        assert len(grown.report.shards) == 4
        counters = grown.snapshot["counters"]
        assert counters["balance.shards-added"] == 1
        assert counters["balance.migration-writes"] > 0
        # The late-joining shard actually absorbs traffic.
        assert grown.report.shards[3].local_writes > 0

    def test_balanced_results_are_jobs_invariant(self):
        schedule = shard_death_schedule(1, 1500, 128)
        one = _array_result(balance=True, add_at=4000, schedule=schedule,
                            jobs=1)
        two = _array_result(balance=True, add_at=4000, schedule=schedule,
                            jobs=2)
        assert json.dumps(one.as_dict(), sort_keys=True) \
            == json.dumps(two.as_dict(), sort_keys=True)

    def test_kill_schedule_composes_with_growth(self):
        schedule = shard_death_schedule(1, 1500, 128)
        result = _array_result(balance=True, add_at=4000,
                               schedule=schedule)
        assert 1 in result.report.dead_shards
        assert result.report.num_shards == 4

    def test_health_gauges_reach_the_snapshot(self):
        result = _array_result(balance=True)
        gauges = result.snapshot["gauges"]
        assert gauges["balance.headroom"]["mode"] == "min"
        assert all(f"balance.s{i}.risk" in gauges for i in range(3))

    def test_fail_stop_policy_still_supported(self):
        result = _array_result(balance=True, policy="fail-stop")
        assert result.report.stop is not None

    #: sha256 of the sorted ``as_dict()`` JSON of the benchmark's
    #: array-elastic workload at its smoke size (seed 1), without and with
    #: a kill of shard 1; recorded with the engine that turned each shard
    #: into a dict record.
    ELASTIC_PINS = {
        False: "5370befbde83e8b84c0089a29d9bbf1746daf34db3d68aaa74428acd29bd9663",
        True: "a6502eef4007630e6816563cef47ae261f3db1d7935b3c366fc449100cd8e2e8",
    }

    @pytest.mark.parametrize("kill", [False, True])
    def test_elastic_output_is_pinned(self, kill):
        _config, _engine, result, _schedule = _elastic_run(kill)
        payload = json.dumps(result.as_dict(), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() \
            == self.ELASTIC_PINS[kill]

    @pytest.mark.parametrize("kill", [False, True])
    def test_every_resumed_shard_cell_equals_a_fresh_run(self, kill):
        # The benchmark's array-elastic workload at its smoke size.  Each
        # shard's engine is continued epoch by epoch across steering,
        # growth and (with the kill) re-homing; it must end where a
        # fresh stack built over the shard's final segments and run to
        # the same point ends.
        from repro.array.shard import build_shard
        from .test_array import shard_record
        config, engine, result, schedule = _elastic_run(kill)
        assert (1 in result.report.dead_shards) == kill
        for shard, state in enumerate(engine._states):
            assert state.engine is not None and state.session is not None
            cap = (state.engine.total_writes
                   if state.engine.stopped_reason == "max-writes" else None)
            fresh, session = build_shard(config, shard, state.segments, cap,
                                         schedule, label=f"resume/s{shard}")
            fresh.run()
            assert shard_record(fresh, session) \
                == shard_record(state.engine, state.session)

    def test_array_cli_balance_flags(self, tmp_path, capsys):
        from repro.array.__main__ import main
        out = tmp_path / "balance.json"
        code = main(["--shards", "3", "--shard-blocks", "128",
                     "--interleave", "page", "--workload", "zipf",
                     "--mean", "100", "--batch-writes", "500",
                     "--balance", "--balance-every", "2000",
                     "--remap-budget", "32", "--add-shard-at", "4000",
                     "--json", str(out)])
        assert code == 0
        assert "balance:" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["report"]["num_shards"] == 4


# ---------------------------------------------------------------------------
# serve integration


def _serve_config(**overrides):
    base = dict(num_shards=3, shard_blocks=128, page_blocks=16,
                interleave="page", total_requests=1200, seed=7,
                mean_endurance=2.0, brownout_wear=1.0)
    base.update(overrides)
    return ServeConfig(**base)


class TestServeBalance:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="rebalance_every"):
            _serve_config(rebalance_every=0)
        with pytest.raises(ConfigurationError, match="remap_budget"):
            _serve_config(remap_budget=-1)
        with pytest.raises(ConfigurationError, match="add_shard_at"):
            _serve_config(add_shard_at=0)

    def test_live_scale_out_keeps_the_zero_drop_identity(self):
        config = _serve_config(balance=True, rebalance_every=25,
                               remap_budget=16, add_shard_at=400)
        result = ServiceEngine(config).run(jobs=1)
        assert sum(result.outcomes.values()) == config.total_requests
        counters = result.snapshot["counters"]
        assert counters["serve.shards_added"] == 1
        assert counters["serve.migrated"] > 0
        assert result.report["shards"]["total"] == 4

    def test_balanced_serve_is_jobs_invariant(self):
        schedule = shard_death_schedule(1, 100, 128)
        config = _serve_config(balance=True, rebalance_every=25,
                               remap_budget=16, add_shard_at=400)
        one = ServiceEngine(config, schedule=schedule).run(jobs=1)
        two = ServiceEngine(config, schedule=schedule).run(jobs=2)
        assert one.to_json() == two.to_json()

    def test_kill_composes_with_growth(self):
        schedule = shard_death_schedule(1, 100, 128)
        config = _serve_config(balance=True, rebalance_every=25,
                               remap_budget=16, add_shard_at=400)
        result = ServiceEngine(config, schedule=schedule).run(jobs=1)
        assert result.snapshot["counters"]["serve.deaths"] == 1
        assert result.report["shards"]["total"] == 4
        assert result.report["shards"]["live"] == 3
        assert sum(result.outcomes.values()) == config.total_requests

    def test_steering_reduces_the_wear_spread(self):
        def wears(balance):
            config = _serve_config(balance=balance, rebalance_every=25,
                                   remap_budget=16, total_requests=1600,
                                   num_shards=4)
            engine = ServiceEngine(config)
            engine.run(jobs=1)
            return [station.writes_served for station in engine.stations]
        static = wears(False)
        balanced = wears(True)
        assert max(balanced) - min(balanced) < max(static) - min(static)

    def test_legacy_serve_snapshot_is_unchanged(self):
        # The balance fields default off: the engine must add no balance
        # metrics.
        config = _serve_config()
        result = ServiceEngine(config).run(jobs=1)
        counters = result.snapshot["counters"]
        assert "serve.remap_swaps" not in counters
        assert "serve.migrated" not in counters
        assert not any(name.startswith("balance.")
                       for name in result.snapshot["gauges"])

    def test_serve_cli_balance_flags(self, tmp_path, capsys):
        from repro.serve.__main__ import main
        out = tmp_path / "serve.json"
        code = main(["--shards", "3", "--shard-blocks", "128",
                     "--interleave", "page", "--requests", "1200",
                     "--mean-endurance", "2.0", "--brownout-wear", "1.0",
                     "--balance", "--rebalance-every", "25",
                     "--remap-budget", "16", "--add-shard-at", "400",
                     "--json", str(out)])
        assert code == 0
        assert "balance:" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["report"]["shards"]["total"] == 4

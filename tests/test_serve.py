"""The online serving layer: admission, breakers, failover, determinism.

The heavyweight properties (byte-identical runs across job counts, the
zero-drop accounting identity under mid-traffic shard death) each run
one small campaign; unit tests cover the circuit breaker's exact cycle
and the degraded re-home rule directly.
"""

import json

import numpy as np
import pytest

from repro.array import InterleavedDecoder
from repro.balance import BalancedDecoder
from repro.errors import ConfigurationError, ProtocolError
from repro.faultinject import (FaultAction, FaultSchedule,
                               shard_death_schedule, shard_stall_schedule)
from repro.serve import (CircuitBreaker, OUTCOMES, Request, ServeConfig,
                         ServiceEngine, build_report)


def small_config(**overrides):
    """A seconds-fast config; overrides land on top."""
    base = dict(num_shards=2, shard_blocks=128, clients=4,
                total_requests=300, think_ticks=2, seed=11)
    base.update(overrides)
    return ServeConfig(**base)


def outcome_counts(result):
    return {name: result.outcomes[name] for name in OUTCOMES}


# --------------------------------------------------------------- breaker


class TestCircuitBreaker:
    def test_full_cycle_closed_open_halfopen_closed(self):
        breaker = CircuitBreaker(threshold=3, cooldown=10)
        assert breaker.admit(0) == "ok"
        for tick in range(3):
            breaker.record_failure(tick, probe=False)
        assert breaker.state == "open"
        assert breaker.opened == 1
        # Open: fast-fail until the cooldown elapses.
        assert breaker.admit(5) == "fast-fail"
        # Half-open: exactly one probe is admitted; others fast-fail.
        assert breaker.admit(12) == "probe"
        assert breaker.state == "half-open"
        assert breaker.admit(12) == "fast-fail"
        breaker.record_success(probe=True)
        assert breaker.state == "closed"
        assert breaker.closed_after_probe == 1
        assert breaker.admit(13) == "ok"

    def test_probe_failure_reopens_a_full_cooldown(self):
        breaker = CircuitBreaker(threshold=2, cooldown=8)
        for tick in range(2):
            breaker.record_failure(tick, probe=False)
        assert breaker.admit(9) == "probe"
        breaker.record_failure(9, probe=True)
        assert breaker.state == "open"
        assert breaker.opened == 2
        assert breaker.admit(12) == "fast-fail"
        assert breaker.admit(17) == "probe"

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2, cooldown=4)
        breaker.record_failure(0, probe=False)
        breaker.record_success(probe=False)
        breaker.record_failure(1, probe=False)
        assert breaker.state == "closed"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(threshold=0, cooldown=4)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(threshold=1, cooldown=0)


# ----------------------------------------------------------- determinism


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        config = small_config()
        a = ServiceEngine(config).run()
        b = ServiceEngine(config).run()
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        a = ServiceEngine(small_config(seed=1)).run()
        b = ServiceEngine(small_config(seed=2)).run()
        assert a.to_json() != b.to_json()

    def test_buffered_think_draws_equal_single_draws(self):
        """Think times are drawn in bulk; across refills they equal the
        successive single draws of the client's own stream."""
        from repro.rng import derive_rng
        config = small_config(think_ticks=16)
        engine = ServiceEngine(config)
        reference = derive_rng(config.seed, "serve-think-1")
        expected = [int(reference.exponential(config.think_ticks))
                    for _ in range(700)]
        assert [engine._think(1) for _ in range(700)] == expected

    def test_jobs_do_not_change_bytes_under_mid_traffic_death(self):
        """The PR's pinned regression: merged telemetry and the SLO
        report are byte-identical at --jobs 1 vs --jobs 2 while a shard
        dies mid-traffic under the degraded policy."""
        config = small_config(total_requests=500, clients=6)
        schedule = shard_death_schedule(1, at_write=50,
                                        num_blocks=config.shard_blocks)
        serial = ServiceEngine(config, schedule).run(jobs=1)
        pooled = ServiceEngine(config, schedule).run(jobs=2)
        assert serial.outcomes["ok"] > 0
        assert serial.report["resilience"]["deaths"] == 1
        assert serial.to_json() == pooled.to_json()
        assert json.dumps(serial.snapshot, sort_keys=True) == \
            json.dumps(pooled.snapshot, sort_keys=True)


# ------------------------------------------------- accounting & failover


class TestAccounting:
    def test_zero_drop_identity_under_death(self):
        config = small_config(total_requests=400, clients=6)
        schedule = shard_death_schedule(0, at_write=40,
                                        num_blocks=config.shard_blocks)
        result = ServiceEngine(config, schedule).run()
        counts = outcome_counts(result)
        assert sum(counts.values()) == config.total_requests
        assert result.report["counts"]["issued"] == config.total_requests

    def test_identity_violation_is_a_protocol_error(self):
        engine = ServiceEngine(small_config(total_requests=10))
        engine.issued = 3  # corrupt the books
        with pytest.raises(ProtocolError, match="accounting"):
            engine._check_identity()

    def test_degraded_failover_keeps_serving(self):
        config = small_config(total_requests=500, clients=6)
        schedule = shard_death_schedule(1, at_write=50,
                                        num_blocks=config.shard_blocks)
        result = ServiceEngine(config, schedule).run()
        resilience = result.report["resilience"]
        assert resilience["deaths"] == 1
        assert resilience["failover"] > 0
        assert result.report["shards"]["live"] == 1
        # No hard failures under degraded: displaced requests re-home.
        assert result.outcomes["failed"] == 0
        assert result.outcomes["ok"] > config.total_requests // 2
        # The dead shard's gauge row records the death tick.
        gauges = result.snapshot["gauges"]
        assert gauges["serve.s1.alive"] == 0
        assert gauges["serve.s1.died_at"] >= 0
        assert gauges["serve.s0.alive"] == 1

    def test_fail_stop_fails_dead_shard_traffic(self):
        config = small_config(total_requests=400, clients=6,
                              policy="fail-stop")
        schedule = shard_death_schedule(1, at_write=40,
                                        num_blocks=config.shard_blocks)
        result = ServiceEngine(config, schedule).run()
        assert result.outcomes["failed"] > 0
        assert sum(outcome_counts(result).values()) == config.total_requests

    def test_rehome_rule_matches_the_array_engine(self):
        """Dead shard's local address l re-homes to live[l % len(live)],
        keeping its local position — the ArrayEngine redistribution rule."""
        config = ServeConfig(num_shards=3, shard_blocks=64, clients=1,
                             total_requests=1, seed=3)
        engine = ServiceEngine(config)
        engine._kill(engine.stations[1])
        live = [0, 2]
        local = 5
        address = int(engine.decoder.base.encode(1, local))
        request = Request(rid=0, client=0, address=address, is_write=False,
                          issued_at=0, deadline=100)
        engine._route(request)
        expected = live[local % len(live)]
        assert request in engine.stations[expected].queue

    def test_second_death_moves_only_the_new_casualty(self):
        """Routing after two kills equals the map after two re-homes: the
        first casualty's addresses stay on the survivors they went to,
        and only the second casualty's addresses move."""
        config = small_config(num_shards=4, total_requests=2000, clients=8)
        actions = (shard_death_schedule(1, 20, config.shard_blocks).actions
                   + shard_death_schedule(2, 200, config.shard_blocks)
                   .actions)
        engine = ServiceEngine(config, FaultSchedule(actions=actions))
        kills, routed = [], []
        kill, route = engine._kill, engine._route

        def spy_kill(station):
            kills.append(station.sid)
            kill(station)

        def spy_route(request, station=None):
            queued = route(request, station)
            if len(kills) == 2 and not request.is_write \
                    and queued is not None:
                routed.append((request.address, queued.sid))
            return queued

        engine._kill, engine._route = spy_kill, spy_route
        engine.run()
        reference = BalancedDecoder(InterleavedDecoder(
            config.num_shards, config.shard_blocks,
            interleave=config.interleave, page_blocks=config.page_blocks))
        live = list(range(config.num_shards))
        for victim in kills:
            live.remove(victim)
            reference.rehome(victim, live)
        assert len(kills) == 2
        first_casualty = [(address, sid) for address, sid in routed
                          if reference.base.shard_of(address) == kills[0]]
        assert len(first_casualty) > 10
        assert all(sid == reference.shard_of(address)
                   for address, sid in routed)


# ---------------------------------------------------- admission control


class TestAdmission:
    def test_shed_mode_rejects_on_full_queue(self):
        config = small_config(total_requests=400, clients=16,
                              queue_depth=1, batch_max=1, think_ticks=0,
                              admission="shed", write_ticks=6,
                              read_ticks=4)
        result = ServiceEngine(config).run()
        assert result.outcomes["shed"] > 0
        assert sum(outcome_counts(result).values()) == config.total_requests

    def test_block_mode_parks_instead_of_shedding(self):
        config = small_config(total_requests=400, clients=16,
                              queue_depth=1, batch_max=1, think_ticks=0,
                              admission="block", write_ticks=6,
                              read_ticks=4)
        result = ServiceEngine(config).run()
        assert result.outcomes["shed"] == 0
        assert result.report["resilience"]["blocked"] > 0
        assert sum(outcome_counts(result).values()) == config.total_requests

    def test_tiny_deadline_is_enforced(self):
        config = small_config(total_requests=300, clients=16,
                              queue_depth=2, batch_max=1, think_ticks=0,
                              admission="block", deadline_ticks=4,
                              write_ticks=6, read_ticks=4)
        result = ServiceEngine(config).run()
        assert result.outcomes["deadline"] > 0
        assert sum(outcome_counts(result).values()) == config.total_requests


# ------------------------------------------------- stalls and breakers


class TestBreakerIntegration:
    def test_stall_trips_and_recovers_the_breaker(self):
        config = small_config(total_requests=600, clients=8,
                              breaker_threshold=3, breaker_cooldown=16)
        schedule = shard_stall_schedule(0, at_write=30, requests=12)
        result = ServiceEngine(config, schedule).run()
        resilience = result.report["resilience"]
        assert resilience["stalled"] == 12
        assert resilience["breaker_opened"] >= 1
        assert resilience["breaker_closed"] >= 1  # half-open probe healed
        assert resilience["retries"] > 0
        assert result.report["resilience"]["deaths"] == 0
        assert sum(outcome_counts(result).values()) == config.total_requests

    def test_bounded_retries_exhaust_into_errors(self):
        config = small_config(total_requests=300, clients=4,
                              retry_limit=2, deadline_ticks=5_000)
        schedule = shard_stall_schedule(0, at_write=20, requests=40)
        result = ServiceEngine(config, schedule).run()
        assert result.outcomes["error"] > 0
        assert result.report["resilience"]["retries_exhausted"] == \
            result.outcomes["error"]
        assert sum(outcome_counts(result).values()) == config.total_requests

    def test_brownout_steers_writes_off_worn_shards(self):
        config = small_config(total_requests=400, clients=4,
                              mean_endurance=2.0, brownout_wear=0.5)
        result = ServiceEngine(config).run()
        assert result.report["resilience"]["steered"] > 0
        assert result.outcomes["ok"] == config.total_requests


# ------------------------------------------------------------ reporting


class TestReporting:
    def test_report_derives_from_snapshot_only(self):
        config = small_config()
        result = ServiceEngine(config).run()
        assert build_report(result.snapshot, config) == result.report

    def test_latency_quantiles_present_and_ordered(self):
        result = ServiceEngine(small_config()).run()
        for kind in ("read", "write"):
            table = result.report["latency"][kind]
            assert table["p50"] <= table["p95"] <= table["p99"]

    def test_merged_latency_histogram_covers_all_ok_requests(self):
        result = ServiceEngine(small_config()).run()
        histograms = result.snapshot["histograms"]
        total = sum(histograms[f"serve.latency.{kind}"]["total"]
                    for kind in ("read", "write"))
        assert total == result.outcomes["ok"]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(num_shards=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(policy="explode")
        with pytest.raises(ConfigurationError):
            ServeConfig(admission="drop")
        with pytest.raises(ConfigurationError):
            ServeConfig(write_ratio=1.5)
        with pytest.raises(ConfigurationError):
            ServeConfig(retry_limit=0)


# ------------------------------------------------------------------ CLI


class TestCli:
    def test_cli_kill_run_writes_slo_artifact(self, tmp_path, capsys):
        from repro.serve.__main__ import main

        out = tmp_path / "slo.json"
        rc = main(["--shards", "2", "--shard-blocks", "128", "--clients",
                   "4", "--requests", "300", "--kill-shard", "1",
                   "--kill-at", "40", "--json", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "latency[read]" in printed and "deaths=1" in printed
        payload = json.loads(out.read_text())
        assert payload["report"]["resilience"]["deaths"] == 1
        assert payload["report"]["counts"]["issued"] == 300

    def test_cli_stall_run(self, capsys):
        from repro.serve.__main__ import main

        rc = main(["--shards", "2", "--shard-blocks", "128", "--clients",
                   "4", "--requests", "300", "--stall-shard", "0",
                   "--stall-at", "30", "--stall-requests", "8", "--quiet"])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_cli_rejects_bad_config(self, capsys):
        from repro.serve.__main__ import main

        rc = main(["--shards", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve", "--shards", "2",
             "--shard-blocks", "64", "--clients", "2", "--requests", "60"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "outcomes:" in proc.stdout

    def test_custom_schedule_round_trips_into_the_engine(self):
        """A hand-built mixed schedule drives both a stall and a death."""
        config = small_config(total_requests=500, clients=6)
        schedule = FaultSchedule(actions=(
            FaultAction("shard-stall", at_write=20, requests=4, shard=0),
            FaultAction("fail-block", at_write=60,
                        das=tuple(range(config.shard_blocks)), shard=1),
        ), seed=None, name="mixed")
        parsed = FaultSchedule.from_json(schedule.to_json())
        result = ServiceEngine(config, parsed).run()
        assert result.report["resilience"]["deaths"] == 1
        assert result.report["resilience"]["stalled"] >= 4
        assert sum(outcome_counts(result).values()) == config.total_requests


# ----------------------------------------------- workload-package dedupe


class TestWorkloadPackageDedupe:
    """The clients draw from one shared address law; these pins hold
    the served behavior byte-identical (hashes recorded from an earlier
    engine)."""

    PINS = {
        "zipf": ("b05ed60ead7efee49140783b2deb1c897"
                 "3d87e359f9aaf11ca71888d1f77b164"),
        "uniform": ("51d8629df97bb8c8a8ea2e7e58b609f5"
                    "9735503e268ca67c9c75a5588f9f4c81"),
    }

    @staticmethod
    def behavior_hash(result):
        import hashlib
        payload = {"snapshot": result.snapshot, "report": result.report,
                   "duration": result.duration,
                   "outcomes": result.outcomes}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def test_zipf_behavior_is_pinned(self):
        result = ServiceEngine(small_config()).run()
        assert self.behavior_hash(result) == self.PINS["zipf"]

    def test_uniform_behavior_is_pinned(self):
        config = ServeConfig(num_shards=4, shard_blocks=256, clients=6,
                             total_requests=400, seed=23,
                             workload="uniform")
        result = ServiceEngine(config).run()
        assert self.behavior_hash(result) == self.PINS["uniform"]

    #: Configs that drive every counter site the event loop bumps, with
    #: hashes recorded before the counters moved off the event loop.
    COUNTER_PINS = [
        pytest.param(
            dict(total_requests=400, clients=16, queue_depth=1,
                 batch_max=1, think_ticks=0, admission="shed",
                 write_ticks=6, read_ticks=4), None,
            "d53917041d432d36f6d2e4ec83fdf571"
            "053fa2186147e4d9cde7e767667bc687", id="shed"),
        pytest.param(
            dict(total_requests=600, clients=8, breaker_threshold=3,
                 breaker_cooldown=16), ("stall", 0, 30, 12),
            "94159ebaf81151b5b3a601484c91196e"
            "dc002e68a57c40f46bdfdf228064cb7a", id="stall"),
        pytest.param(
            dict(retry_limit=2, deadline_ticks=5_000), ("stall", 0, 20, 40),
            "56c0f6266c4540db532a5de1b9f22a95"
            "917b48ce8add0225f9e177a8d86a6575", id="retry-exhaustion"),
        pytest.param(
            dict(total_requests=300, clients=16, queue_depth=2,
                 batch_max=1, think_ticks=0, admission="block",
                 deadline_ticks=4, write_ticks=6, read_ticks=4), None,
            "8733be77a7daa8454a9fe87b46fdd732"
            "f0f3070098b9f89ee4d2e8dba3cfdf7d", id="block-deadline"),
        pytest.param(
            dict(policy="fail-stop"), ("death", 1, 40, 128),
            "8e8540cfb82dcdbf85eb9b82a5d67be7"
            "fe76e0d0358969a7de75c92294097677", id="fail-stop-kill"),
        pytest.param(
            dict(total_requests=400, clients=4, mean_endurance=2.0,
                 brownout_wear=0.5), None,
            "0d2df7c52777c417a0ec752d8ed37ed2"
            "5d01949e3afdc4d64c87cb0bf5092bb5", id="brownout"),
        pytest.param(
            dict(num_shards=3, total_requests=1200, mean_endurance=2.0,
                 brownout_wear=1.0, balance=True, rebalance_every=25,
                 remap_budget=16, add_shard_at=400, interleave="page"),
            ("death", 1, 60, 128),
            "5c4e53e25866e5053483db2a07048255"
            "43b8b2bc88318ff75bf829f02bcb64b6", id="balanced-grow-kill"),
    ]

    @pytest.mark.parametrize("overrides, schedule, pin", COUNTER_PINS)
    def test_counter_sites_are_pinned(self, overrides, schedule, pin):
        if schedule is not None:
            kind, shard, at_write, size = schedule
            build = (shard_stall_schedule if kind == "stall"
                     else shard_death_schedule)
            schedule = build(shard, at_write, size)
        result = ServiceEngine(small_config(**overrides), schedule).run()
        assert self.behavior_hash(result) == pin

    @pytest.mark.parametrize("workload", ["zipf", "uniform"])
    def test_clients_share_one_address_law(self, workload):
        from repro.traces import DistributionTrace, zipf_distribution
        config = small_config(workload=workload, clients=3)
        blocks = config.global_blocks
        law = (zipf_distribution(blocks, exponent=config.zipf_exponent,
                                 name="serve", seed=config.seed)
               if workload == "zipf" else
               DistributionTrace(np.full(blocks, 1.0 / blocks),
                                 name="serve", seed=config.seed))
        engine = ServiceEngine(config)
        for client, stream in enumerate(engine._streams):
            expected = law.request_stream(config.write_ratio,
                                          name=f"serve-client-{client}")
            assert [stream.next_request() for _ in range(64)] == \
                [expected.next_request() for _ in range(64)]


class TestRouteAndCompletionPins:
    """sha256 of ``to_json()``, recorded before each request's path was
    merged into one route step and one completion step."""

    @staticmethod
    def digest(result):
        import hashlib
        return hashlib.sha256(result.to_json().encode()).hexdigest()

    def test_failover_smoke_shape_is_pinned(self):
        """The benchmark's serve-failover smoke shape: shard 1 dies at
        local write 1,500 and a fifth shard joins at request 12,000,
        under block admission and steering."""
        config = ServeConfig(
            num_shards=4, shard_blocks=512, clients=32,
            total_requests=20_000, workload="zipf", zipf_exponent=1.0,
            write_ratio=0.5, arrival="poisson", think_ticks=16,
            admission="block", mean_endurance=5.0, balance=True,
            add_shard_at=12_000, seed=1)
        result = ServiceEngine(
            config, shard_death_schedule(1, 1_500, 512)).run()
        assert self.digest(result) == (
            "a9ef01e27ca7adf0abae24fdbf6f7bb3"
            "c05923799bf41931492cc164fb62f5bb")

    def test_probe_served_inside_a_batch_is_pinned(self):
        """A one-tick cooldown lets the half-open probe queue behind a
        request admitted before the trip, so the probe succeeds inside
        a two-request batch; slow service makes successes late."""
        config = small_config(
            clients=16, total_requests=600, breaker_threshold=3,
            breaker_cooldown=1, batch_max=2, deadline_ticks=200,
            write_ticks=20, read_ticks=20)
        result = ServiceEngine(config, shard_stall_schedule(0, 30, 4)).run()
        counters = result.snapshot["counters"]
        assert counters["serve.breaker_probes"] > 0
        assert counters["serve.breaker_closed"] > 0
        assert counters["serve.deadline_miss"] > 0
        assert self.digest(result) == (
            "3d6f14649b3f9cccb0aea5856cbdd353"
            "c72a56082d8c5adb3bc5cb340f030af3")

    def test_success_between_short_stalls_resets_the_streak(self):
        """Two 2-request stalls under a threshold of 3: the successes
        between them reset the failure streak, so the breaker never
        opens."""
        config = small_config(breaker_threshold=3)
        schedule = FaultSchedule(actions=tuple(
            FaultAction("shard-stall", at_write=at, requests=2, shard=0)
            for at in (20, 40)))
        result = ServiceEngine(config, schedule).run()
        counters = result.snapshot["counters"]
        assert counters["serve.stalled"] == 4
        assert counters["serve.breaker_opened"] == 0
        assert self.digest(result) == (
            "cb858cbfe666e4ff157456abf2296bc0"
            "cfb90888940621eb664c2fcf987218a7")


class TestTelemetryOffTheEventLoop:
    """The event loop makes no telemetry call per event: the session
    sees one call per metric name, folded after the run, and the
    accounting never goes through the grid runner."""

    @staticmethod
    def telemetry_calls(monkeypatch, config):
        from repro.experiments.parallel import GridRunner
        from repro.telemetry import TelemetrySession
        calls = {"count": 0, "observe": 0, "grid": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(TelemetrySession, "count", counting(
                "count", TelemetrySession.count))
            patch.setattr(TelemetrySession, "observe", counting(
                "observe", TelemetrySession.observe))
            patch.setattr(GridRunner, "run", counting(
                "grid", GridRunner.run))
            ServiceEngine(config).run()
        return calls

    def test_session_calls_do_not_grow_with_traffic(self, monkeypatch):
        small = self.telemetry_calls(
            monkeypatch, small_config(total_requests=300))
        large = self.telemetry_calls(
            monkeypatch, small_config(total_requests=3_000))
        assert small == large
        assert small["grid"] == 0

    def test_histograms_exist_only_once_observed(self):
        result = ServiceEngine(small_config(write_ratio=1.0)).run()
        histograms = result.snapshot["histograms"]
        assert "serve.latency.read" not in histograms
        assert histograms["serve.latency.write"]["total"] == \
            result.outcomes["ok"]

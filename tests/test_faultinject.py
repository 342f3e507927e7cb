"""The fault-injection subsystem: DSL, hooks, crash recovery, campaigns.

These tests drive injection exclusively through the public
:class:`~repro.faultinject.ScheduleDriver` API (the FAULT-HOOK rule bans
hook mutation elsewhere in ``src``); the driver is attached to a minimal
engine stand-in so each scenario can step the controller by hand.
"""

import dataclasses
import pickle
import random
from types import SimpleNamespace

import pytest

from repro.errors import (CapacityExhaustedError, ConfigurationError,
                          ProtocolError, SimulatedCrash, UncorrectableError)
from repro.faultinject import (ACTION_KINDS, CRASH_SITES, ChipHooks,
                               ControllerHooks, FaultAction, FaultSchedule,
                               ScheduleDriver, for_shard, random_schedule,
                               shard_death_schedule, shard_stall_schedule)
from repro.faultinject import campaign
from repro.faultinject.campaign import (RATIO_BAND, _exact_system,
                                        _schedule_horizon, reproduce,
                                        run_cell, summarize)
from repro.mc.controller import READ_RETRY_LIMIT
from repro.reviver.registers import SparePool
from repro.wl import SecurityRefresh, StartGap, TwoLevelSecurityRefresh

from .conftest import (assert_data_consistent, drive_random_writes,
                       make_reviver_system)


def attach(controller, schedule):
    """Attach a driver to a bare controller via an engine stand-in."""
    shim = SimpleNamespace(controller=controller)
    return ScheduleDriver(schedule).attach_exact(shim)


def drive_injected(controller, driver, steps, seed=7, tag_base=1_000_000):
    """Random tagged writes with per-write polling and crash handling."""
    rng = random.Random(seed)
    expected = {}
    space = controller.ospool.virtual_blocks
    for step in range(steps):
        driver.poll(controller.writes)
        vblock = rng.randrange(space)
        tag = tag_base + step
        try:
            controller.service_write(vblock, tag=tag)
        except SimulatedCrash as crash:
            controller.lost_vblocks.add(vblock)
            controller.crash_and_recover(crash)
            continue
        except CapacityExhaustedError:
            break
        expected[vblock] = tag
    return expected


def schedule_of(*actions, name="test"):
    return FaultSchedule(actions=tuple(actions), name=name)


# --------------------------------------------------------------------- DSL


class TestScheduleDSL:
    def test_random_schedule_is_deterministic(self):
        a = random_schedule(17, 96, 4_000)
        b = random_schedule(17, 96, 4_000)
        assert a.to_json() == b.to_json()
        assert a.to_json() != random_schedule(18, 96, 4_000).to_json()

    def test_json_round_trip_is_byte_identical(self):
        schedule = random_schedule(3, 128, 2_000)
        parsed = FaultSchedule.from_json(schedule.to_json())
        assert parsed.to_json() == schedule.to_json()
        assert parsed.seed == 3

    def test_hand_built_round_trip_preserves_every_field(self):
        schedule = schedule_of(
            FaultAction("endurance-burst", at_write=7, das=(3, 9), margin=2),
            FaultAction("crash", at_write=5, site="mid-migration"),
            FaultAction("read-error", at_write=1, da=40),
            FaultAction("exhaust-spares", at_write=2))
        parsed = FaultSchedule.from_json(schedule.to_json())
        assert parsed.sorted_actions() == schedule.sorted_actions()

    def test_sorted_actions_order_by_write_then_kind(self):
        schedule = schedule_of(
            FaultAction("read-error", at_write=10, da=1),
            FaultAction("fail-block", at_write=10, das=(2,)),
            FaultAction("exhaust-spares", at_write=4))
        kinds = [a.kind for a in schedule.sorted_actions()]
        assert kinds == ["exhaust-spares", "fail-block", "read-error"]

    def test_any_three_consecutive_seeds_cover_every_crash_site(self):
        for base in (0, 7, 100):
            sites = {a.site
                     for seed in range(base, base + 3)
                     for a in random_schedule(seed, 96, 2_000).actions
                     if a.kind == "crash"}
            assert sites == set(CRASH_SITES)

    @pytest.mark.parametrize("bad", [
        dict(kind="meteor-strike", at_write=1),
        dict(kind="fail-block", at_write=-1, das=(1,)),
        dict(kind="fail-block", at_write=1),
        dict(kind="crash", at_write=1, site="during-lunch"),
        dict(kind="crash", at_write=1),
        dict(kind="read-error", at_write=1),
        dict(kind="endurance-burst", at_write=1, das=(1,), margin=0),
    ])
    def test_invalid_actions_are_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            FaultAction(**bad)

    def test_every_action_kind_is_constructible(self):
        samples = {
            "fail-block": dict(das=(1,)),
            "endurance-burst": dict(das=(1, 2)),
            "exhaust-spares": {},
            "crash": dict(site=CRASH_SITES[0]),
            "read-error": dict(da=1),
            "shard-stall": dict(requests=3, shard=0),
        }
        assert set(samples) == set(ACTION_KINDS)
        for kind, extra in samples.items():
            FaultAction(kind, at_write=1, **extra)


class TestShardStall:
    """The transient ``shard-stall`` action (serving-layer brownout)."""

    def test_round_trips_through_json(self):
        schedule = schedule_of(
            FaultAction("shard-stall", at_write=500, requests=4, shard=1))
        parsed = FaultSchedule.from_json(schedule.to_json())
        assert parsed == schedule
        assert parsed.actions[0].requests == 4

    def test_request_count_is_validated(self):
        with pytest.raises(ConfigurationError, match="requests >= 1"):
            FaultAction("shard-stall", at_write=0, shard=0)
        with pytest.raises(ConfigurationError, match="requests must be"):
            FaultAction("fail-block", at_write=0, das=(1,), requests=-1)

    def test_builder_projects_onto_its_shard_only(self):
        schedule = shard_stall_schedule(1, at_write=200, requests=3)
        mine = for_shard(schedule, 1).actions
        assert len(mine) == 1 and mine[0].shard is None
        assert mine[0].requests == 3
        assert for_shard(schedule, 0).actions == ()

    def test_engine_driver_treats_it_as_a_no_op(self):
        controller, chip, wl, ospool = make_reviver_system(
            check_invariants=False)
        driver = attach(controller, schedule_of(
            FaultAction("shard-stall", at_write=0, requests=2)))
        thresholds_before = chip.ecc.thresholds.copy()
        driver.poll(0)
        # Recorded as applied (the serving layer interprets it), but the
        # device underneath is untouched.
        assert [a.kind for a in driver.applied] == ["shard-stall"]
        assert (chip.ecc.thresholds == thresholds_before).all()
        assert driver.spares_drained == 0


class TestShardSchedules:
    """Per-shard targeting for array campaigns."""

    def test_shard_tag_round_trips(self):
        schedule = schedule_of(
            FaultAction("fail-block", at_write=5, das=(1, 2), shard=2),
            FaultAction("crash", at_write=3, site=CRASH_SITES[0]))
        parsed = FaultSchedule.from_json(schedule.to_json())
        assert parsed.sorted_actions() == schedule.sorted_actions()
        shards = [a.shard for a in parsed.sorted_actions()]
        assert shards == [None, 2]

    def test_untagged_actions_serialize_without_the_field(self):
        action = FaultAction("read-error", at_write=1, da=4)
        assert "shard" not in action.as_dict()
        tagged = FaultAction("read-error", at_write=1, da=4, shard=0)
        assert tagged.as_dict()["shard"] == 0

    def test_negative_shard_is_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultAction("read-error", at_write=1, da=4, shard=-1)

    def test_for_shard_projects_and_strips_the_tag(self):
        schedule = schedule_of(
            FaultAction("fail-block", at_write=5, das=(1,), shard=0),
            FaultAction("read-error", at_write=2, da=3, shard=1),
            FaultAction("crash", at_write=9, site=CRASH_SITES[0]))
        mine = for_shard(schedule, 1)
        assert [(a.kind, a.shard) for a in mine.sorted_actions()] == [
            ("read-error", None), ("crash", None)]
        assert mine.name.endswith("/s1")
        # Broadcast actions reach every shard; tagged ones only theirs.
        assert [a.kind for a in for_shard(schedule, 2).sorted_actions()] \
            == ["crash"]

    def test_shard_death_schedule_fails_every_block(self):
        schedule = shard_death_schedule(3, at_write=4_000, num_blocks=64)
        (action,) = schedule.sorted_actions()
        assert action.kind == "fail-block"
        assert action.shard == 3
        assert action.das == tuple(range(64))
        projected = for_shard(schedule, 3)
        assert len(projected.sorted_actions()) == 1
        assert for_shard(schedule, 0).sorted_actions() == ()


# ------------------------------------------------------------------- hooks


class TestHooks:
    def test_hooks_disabled_by_default(self):
        controller, chip, _, _ = make_reviver_system()
        assert controller.inject is None
        assert chip.inject is None

    def test_arm_crash_rejects_unknown_site(self):
        hooks = ControllerHooks()
        with pytest.raises(ProtocolError):
            hooks.arm_crash("unknown-site")

    def test_crash_point_fires_exactly_once_per_arm(self):
        hooks = ControllerHooks()
        hooks.arm_crash("mid-migration")
        with pytest.raises(SimulatedCrash) as excinfo:
            hooks.crash_point("mid-migration", pa=9)
        assert excinfo.value.site == "mid-migration"
        assert excinfo.value.pa == 9
        hooks.crash_point("mid-migration", pa=9)  # disarmed: no raise
        assert hooks.fired == ["mid-migration"]

    def test_fast_engine_with_a_driver_pickles(self):
        # An engine may cross a process pool by pickle, so an engine with
        # a driver attached must survive the round trip with the driver
        # still bound to *its* engine's spare pool.
        from repro.config import StartGapConfig
        from repro.ecc import ECP
        from repro.pcm import AddressGeometry, EnduranceModel, PCMChip
        from repro.sim.fast import FastConfig, FastEngine
        from repro.traces import hotspot_distribution
        from repro.wl import StartGap
        endurance = EnduranceModel(num_blocks=256, mean=200.0, cov=0.25,
                                   max_order=10, seed=3)
        chip = PCMChip(AddressGeometry(num_blocks=256), ECP(endurance, 6))
        wl = StartGap(256, config=StartGapConfig(psi=8, seed=4))
        engine = FastEngine(chip, wl,
                            hotspot_distribution(wl.logical_blocks, 3.0,
                                                 seed=5),
                            FastConfig(batch_writes=500, max_writes=6_000,
                                       seed=6))
        driver = ScheduleDriver(schedule_of(
            FaultAction("fail-block", at_write=500, das=tuple(range(8))),
            FaultAction("exhaust-spares", at_write=2_000)))
        driver.attach_fast(engine)
        copy = pickle.loads(pickle.dumps(engine))
        engine.run()
        copy.run()
        assert copy.end_of_life_report().as_dict() \
            == engine.end_of_life_report().as_dict()
        assert copy.inject.spares_drained == driver.spares_drained > 0

    def test_chip_hooks_deliver_each_armed_error_once(self):
        hooks = ChipHooks()
        hooks.arm_read_error(4, count=2)
        for _ in range(2):
            with pytest.raises(UncorrectableError):
                hooks.on_read(4)
        hooks.on_read(4)  # exhausted: clean read
        hooks.on_read(5)  # never armed
        assert hooks.delivered == 2


# -------------------------------------------------------- forced failures


class TestForcedFailures:
    def test_clamp_forces_failure_through_normal_machinery(self):
        controller, chip, wl, ospool = make_reviver_system(
            check_invariants=False)
        expected = drive_random_writes(controller, 50)
        vblock = next(iter(expected))
        da = wl.map(ospool.translate(vblock))
        driver = attach(controller, schedule_of(
            FaultAction("fail-block", at_write=0, das=(da,))))
        driver.poll(controller.writes)
        controller.service_write(vblock, tag=42)
        assert chip.is_failed(da)
        assert controller.reviver.links.vpa_of(da) is not None
        assert controller.service_read(vblock).tag == 42
        controller.check_invariants()
        assert driver.applied[0].kind == "fail-block"

    def test_clamp_skips_already_failed_blocks(self):
        controller, chip, wl, ospool = make_reviver_system(
            check_invariants=False)
        expected = drive_random_writes(controller, 50)
        vblock = next(iter(expected))
        da = wl.map(ospool.translate(vblock))
        driver = attach(controller, schedule_of(
            FaultAction("fail-block", at_write=0, das=(da,))))
        driver.poll(controller.writes)
        controller.service_write(vblock, tag=1)
        assert chip.is_failed(da)
        wear_after = int(chip.wear[da])
        # Re-applying a clamp to the now-failed block must not touch it.
        driver._clamp((da,), margin=1)
        assert int(chip.wear[da]) == wear_after
        assert chip.ecc.thresholds[da] <= wear_after


# ------------------------------------------------------ transient reads


class TestTransientReadErrors:
    def _system_with_written_block(self, **controller_kwargs):
        controller, chip, wl, ospool = make_reviver_system(
            check_invariants=False, **controller_kwargs)
        expected = drive_random_writes(controller, 50)
        for vblock, tag in expected.items():
            da = wl.map(ospool.translate(vblock))
            if not chip.is_failed(da):
                return controller, vblock, tag, da
        pytest.fail("no healthy written block found")

    def test_transient_error_is_absorbed_by_retry(self):
        controller, vblock, tag, da = self._system_with_written_block()
        driver = attach(controller, schedule_of(
            FaultAction("read-error", at_write=0, da=da)))
        driver.poll(controller.writes)
        result = controller.service_read(vblock)
        assert result.tag == tag
        assert controller.transient_read_errors == 1
        assert driver.chip_hooks.delivered == 1

    def test_retry_limit_turns_persistent_error_into_protocol_error(self):
        controller, vblock, tag, da = self._system_with_written_block()
        driver = attach(controller, schedule_of(
            FaultAction("read-error", at_write=0, da=da)))
        # Arm one error beyond the retry budget: the read must give up.
        driver.chip_hooks.arm_read_error(da, count=READ_RETRY_LIMIT + 1)
        with pytest.raises(ProtocolError):
            controller.service_read(vblock)
        assert controller.transient_read_errors == READ_RETRY_LIMIT

    def test_exhausted_retries_raise_structured_error(self):
        from repro.errors import ReadRetriesExhausted

        controller, vblock, tag, da = self._system_with_written_block()
        driver = attach(controller, schedule_of(
            FaultAction("read-error", at_write=0, da=da)))
        driver.chip_hooks.arm_read_error(da, count=READ_RETRY_LIMIT + 1)
        # Pre-fix this surfaced as a bare ProtocolError whose only payload
        # was message text; the serving layer's retry/backoff path needs
        # the address and spent budget as structured fields.
        with pytest.raises(ReadRetriesExhausted) as excinfo:
            controller.service_read(vblock)
        assert excinfo.value.da == da
        assert excinfo.value.attempts == READ_RETRY_LIMIT

    def test_read_retry_budget_is_configurable(self):
        from repro.errors import ReadRetriesExhausted

        controller, vblock, tag, da = self._system_with_written_block(
            read_retry_limit=2)
        driver = attach(controller, schedule_of(
            FaultAction("read-error", at_write=0, da=da)))
        driver.chip_hooks.arm_read_error(da, count=3)
        with pytest.raises(ReadRetriesExhausted) as excinfo:
            controller.service_read(vblock)
        assert excinfo.value.attempts == 2
        assert controller.transient_read_errors == 2

    def test_retry_budget_below_one_is_rejected(self):
        with pytest.raises(ConfigurationError, match="read_retry_limit"):
            make_reviver_system(check_invariants=False, read_retry_limit=0)


# ------------------------------------------------------- crash recovery


class TestCrashRecovery:
    @pytest.mark.parametrize("site", CRASH_SITES)
    def test_crash_and_recovery_round_trip(self, site):
        controller, chip, wl, ospool = make_reviver_system(
            check_invariants=False)
        driver = attach(controller, schedule_of(
            FaultAction("crash", at_write=0, site=site),
            FaultAction("fail-block", at_write=40, das=tuple(range(24)))))
        expected = drive_injected(controller, driver, 1_200)
        assert driver.controller_hooks.fired == [site]
        assert controller.crashes_recovered == 1
        assert controller.reviver.recoveries == 1
        controller.check_invariants()
        assert_data_consistent(controller, expected)

    @pytest.mark.parametrize("site", ["after-link-write",
                                      "before-inverse-write"])
    def test_torn_metadata_write_is_redone_on_recovery(self, site):
        controller, chip, wl, ospool = make_reviver_system(
            check_invariants=False)
        driver = attach(controller, schedule_of(
            FaultAction("crash", at_write=0, site=site),
            FaultAction("fail-block", at_write=40, das=tuple(range(24)))))
        drive_injected(controller, driver, 800)
        assert driver.controller_hooks.fired == [site]
        # The interrupted pointer/inverse pair left exactly one cell in the
        # PCM; the recovery scan must detect and complete it.
        assert controller.reviver.recovery_redo_writes >= 1
        controller.check_invariants()

    def test_clean_crash_rebuilds_links_without_redo(self):
        controller, chip, wl, ospool = make_reviver_system(
            check_invariants=False)
        driver = attach(controller, schedule_of(
            FaultAction("fail-block", at_write=40, das=tuple(range(16)))))
        expected = drive_injected(controller, driver, 700)
        reviver = controller.reviver
        assert len(reviver.links) >= 2, "scenario needs established links"
        before_links = sorted(zip(*(a.tolist()
                                    for a in reviver.links.as_arrays())))
        before_spares = set(reviver.spares.peek_all())
        controller.crash_and_recover()
        after_links = sorted(zip(*(a.tolist()
                                   for a in reviver.links.as_arrays())))
        assert after_links == before_links
        assert set(reviver.spares.peek_all()) == before_spares
        assert reviver.recovery_redo_writes == 0
        assert controller.crashes_recovered == 1
        # Service continues seamlessly on the rebuilt state.
        expected.update(drive_injected(controller, driver, 200,
                                       seed=8, tag_base=2_000_000))
        controller.check_invariants()
        assert_data_consistent(controller, expected)

    def test_repeated_crashes_survive(self):
        controller, chip, wl, ospool = make_reviver_system(
            check_invariants=False)
        driver = attach(controller, schedule_of(
            FaultAction("fail-block", at_write=40, das=tuple(range(16)))))
        expected = drive_injected(controller, driver, 500)
        for _ in range(3):
            controller.crash_and_recover()
        assert controller.crashes_recovered == 3
        assert controller.reviver.recoveries == 3
        controller.check_invariants()
        assert_data_consistent(controller, expected)


# -------------------------------------------------- spare-pool exhaustion


class TestSpareExhaustion:
    def test_take_and_take_specific_guard_empty_pool(self):
        pool = SparePool()
        with pytest.raises(CapacityExhaustedError):
            pool.take()
        with pytest.raises(CapacityExhaustedError):
            pool.take_specific(0)

    def test_take_specific_rejects_non_spare_pa(self):
        pool = SparePool()
        pool.add([5, 6])
        with pytest.raises(CapacityExhaustedError):
            pool.take_specific(99)
        assert pool.take() == 5  # FIFO order intact after the rejection

    def test_exhaust_action_drains_pool_through_controller(self):
        controller, chip, wl, ospool = make_reviver_system(
            check_invariants=False)
        driver = attach(controller, schedule_of(
            FaultAction("fail-block", at_write=30, das=tuple(range(12))),
            FaultAction("exhaust-spares", at_write=400)))
        drive_injected(controller, driver, 420)
        reviver = controller.reviver
        assert reviver.ledger.pages_acquired >= 1
        assert driver.spares_drained > 0
        assert reviver.spares.available == 0
        # The exhausted pool raises through both register paths
        # (registers.take / registers.take_specific).
        with pytest.raises(CapacityExhaustedError):
            reviver.spares.take()
        with pytest.raises(CapacityExhaustedError):
            reviver.spares.take_specific(0)

    def test_failure_after_exhaustion_reacquires_through_os(self):
        controller, chip, wl, ospool = make_reviver_system(
            check_invariants=False)
        driver = attach(controller, schedule_of(
            FaultAction("fail-block", at_write=30, das=tuple(range(12))),
            FaultAction("exhaust-spares", at_write=400),
            FaultAction("fail-block", at_write=420,
                        das=tuple(range(64, 80)))))
        expected = drive_injected(controller, driver, 900)
        reviver = controller.reviver
        reports_total = reviver.reporter.report_count
        assert reports_total >= 2, \
            "post-exhaustion failures must re-trigger OS acquisition"
        assert len(reviver.links) > 12 - reviver.spares.total_consumed \
            or reviver.ledger.pages_acquired >= 2
        controller.check_invariants()
        assert_data_consistent(controller, expected)


# ---------------------------------------------------------------- campaign


class TestCampaign:
    SMALL = dict(num_blocks=64, mean=150.0, max_writes=12_000)

    def test_schedule_horizon_tracks_endurance_budget(self):
        assert _schedule_horizon(96, 250.0, 40_000) == 1_500
        assert _schedule_horizon(8, 10.0, 40_000) == 100   # floor
        assert _schedule_horizon(96, 250.0, 900) == 900    # max_writes cap

    def test_run_cell_passes_and_reports_coverage(self):
        result = run_cell(0, **self.SMALL)
        assert result["ok"], result["failure"]
        exact = result["exact"]
        assert exact["lifetime_writes"] > 0
        assert exact["recoveries"] == len(exact["crash_sites_fired"])
        assert exact["actions_applied"] >= 1
        low, high = RATIO_BAND
        assert low < result["ratio"] < high
        report = exact["report"]
        assert report["stop"].split(":")[0] in (
            "dead-fraction", "exhausted", "max-writes", "capacity-lost")
        assert report["crashes_recovered"] == exact["recoveries"]

    # Seeds 17038 and 10953 once read through a shadow PA whose datum sat
    # in the store buffer, then on into an unlinked failed block.  The
    # page-copy seeds still fail on the exact side at the default cell
    # size; their strict xfails turn red once fixed.
    @pytest.mark.parametrize("seed", [
        17038,
        10953,
        pytest.param(10001, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="data corruption: vblock 55 read 1876, expected 1730")),
        pytest.param(10040, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="data corruption: vblock 66 read 1853, expected 532")),
    ])
    def test_start_gap_chaos_seed_passes(self, seed):
        result = run_cell(seed)
        assert result["ok"], result["failure"]["error"]

    # Revive *any* scheme: the cell's exact system with its Start-Gap
    # swapped for the scheme under test, no fault schedule, Theorems 1-3
    # checked every tick and every datum verified at the end.
    # Security Refresh seed 11 and Two-Level seeds 0-3 once lost data or
    # walked a 2-cycle when a swap moved a PA-DA loop under a live PA.
    @pytest.mark.parametrize("make_wl, seed", [
        pytest.param(StartGap, 0, id="startgap-0"),
        pytest.param(SecurityRefresh, 11, id="secref-11"),
        *(pytest.param(TwoLevelSecurityRefresh, seed, id=f"secref2-{seed}")
          for seed in range(4)),
    ])
    def test_fault_free_scheme_keeps_every_datum(self, monkeypatch, make_wl,
                                                 seed):
        monkeypatch.setattr(campaign, "StartGap", make_wl)
        exact = _exact_system(seed, 128, 250.0)
        controller = exact.controller
        controller.reviver_config = dataclasses.replace(
            controller.reviver_config, check_invariants=True)
        exact.run(max_writes=40_000)
        exact.verify_all()
        controller.check_invariants()

    def test_reproduce_reruns_from_reported_schedule(self):
        result = run_cell(1, **self.SMALL)
        assert result["ok"], result["failure"]
        replay = reproduce(result["schedule_json"], 1, **self.SMALL)
        assert replay["ok"], replay["failure"]
        assert replay["schedule_json"] == result["schedule_json"]

    def test_reproduce_rejects_seed_schedule_mismatch(self):
        schedule = random_schedule(
            2, 64, _schedule_horizon(64, 150.0, 12_000))
        with pytest.raises(ConfigurationError):
            reproduce(schedule.to_json(), 3, **self.SMALL)

    def test_summarize_aggregates_failures_and_coverage(self):
        results = [
            {"seed": 0, "ok": True, "schedule_json": "{}",
             "exact": {"crash_sites_fired": ["mid-migration"],
                       "switch_scenarios": {"shadow-failed": 2},
                       "recoveries": 1, "spares_drained": 3,
                       "read_errors_delivered": 1, "victimized_writes": 0}},
            {"seed": 1, "ok": False, "schedule_json": "{}",
             "failure": {"stage": "exact", "error": "boom"}},
        ]
        summary = summarize(results)
        assert summary["cells"] == 2
        assert summary["failed"] == 1
        assert summary["crash_sites_fired"] == {"mid-migration": 1}
        assert summary["switch_scenarios"] == {"shadow-failed": 2}
        assert summary["cells_with_spare_exhaustion"] == 1

"""Tests for both simulation engines, including cross-engine agreement."""

import numpy as np
import pytest

from repro.config import LLSConfig, StartGapConfig
from repro.ecc import ECP, FreePRegion
from repro.errors import ConfigurationError, ProtocolError
from repro.faultinject import FaultAction, FaultSchedule, ScheduleDriver
from repro.lls import LLSFastEngine
from repro.osmodel.allocator import PagePool
from repro.pcm import AddressGeometry, EnduranceModel, PCMChip
from repro.sim import (ExactEngine, FastConfig, FastEngine, StopCause,
                       StopReason)
from repro.sim.stop import dead_count
from repro.telemetry import TelemetrySession, attach_fast
from repro.traces import hotspot_distribution
from repro.wl import NoWL, StartGap

from .conftest import make_reviver_system


class FixedECC:
    """ECC stub with hand-picked thresholds and no extension."""

    def __init__(self, thresholds):
        self.thresholds = np.asarray(thresholds, dtype=np.int64)

    def threshold(self, da):
        return int(self.thresholds[da])

    def try_extend(self, da):
        return False


def make_fast(recovery: str = "reviver", num_blocks: int = 512,
              mean: float = 300.0, cov_target: float = 6.0,
              psi: int = 10, reserve: float = 0.1, seed: int = 3,
              dead: float = 0.3, batch: int = 2000,
              stop_on_capacity: bool = True):
    geometry = AddressGeometry(num_blocks=num_blocks)
    endurance = EnduranceModel(num_blocks=num_blocks, mean=mean, cov=0.2,
                               max_order=10, seed=seed)
    chip = PCMChip(geometry, ECP(endurance, 1))
    trace = hotspot_distribution(num_blocks, cov_target, seed=seed)
    config = FastConfig(recovery=recovery, freep_reserve=reserve,
                        dead_fraction=dead, batch_writes=batch, seed=seed,
                        stop_on_capacity=stop_on_capacity)
    if recovery == "freep":
        region = FreePRegion(num_blocks, reserve)
        wl = StartGap(region.working_blocks,
                      config=StartGapConfig(psi=psi))
        return FastEngine(chip, wl, trace, config, region=region)
    wl = StartGap(num_blocks, config=StartGapConfig(psi=psi))
    return FastEngine(chip, wl, trace, config)


class TestExactEngine:
    def test_runs_to_dead_fraction(self):
        controller, chip, _, _ = make_reviver_system(
            mean=150, check_invariants=False)
        trace = hotspot_distribution(controller.ospool.virtual_blocks,
                                     3.0, seed=4)
        engine = ExactEngine(controller, trace, dead_fraction=0.2,
                             sample_interval=500)
        summary = engine.run(max_writes=50_000)
        assert summary.lifetime_writes > 0
        assert engine.stopped_reason in ("dead-fraction", "max-writes") \
            or engine.stopped_reason.startswith("exhausted")
        assert len(engine.series.points) >= 2

    def test_verify_mode_catches_nothing_on_healthy_run(self):
        controller, _, _, _ = make_reviver_system(
            mean=5_000, check_invariants=False)
        trace = hotspot_distribution(controller.ospool.virtual_blocks,
                                     3.0, seed=4)
        engine = ExactEngine(controller, trace, verify=True,
                             sample_interval=200)
        engine.run(max_writes=1_000)
        engine.verify_all()  # raises on corruption

    def test_verify_mode_through_failures(self):
        controller, chip, _, _ = make_reviver_system(
            mean=200, check_invariants=False, cache=True)
        trace = hotspot_distribution(controller.ospool.virtual_blocks,
                                     3.0, seed=4)
        engine = ExactEngine(controller, trace, verify=True,
                             sample_interval=1_000, dead_fraction=0.25)
        engine.run(max_writes=20_000)
        assert chip.failed_count > 0
        engine.verify_all()

    def test_reads_interleaved(self):
        controller, _, _, _ = make_reviver_system(
            mean=5_000, check_invariants=False)
        trace = hotspot_distribution(controller.ospool.virtual_blocks,
                                     3.0, seed=4)
        engine = ExactEngine(controller, trace, read_fraction=2.0,
                             sample_interval=200)
        engine.run(max_writes=500)
        assert controller.stats.reads == pytest.approx(1_000, abs=5)

    def test_rejects_oversized_trace(self):
        controller, _, _, _ = make_reviver_system()
        big = hotspot_distribution(10_000, 3.0, seed=4)
        with pytest.raises(ValueError):
            ExactEngine(controller, big)

    @pytest.mark.parametrize("dead", [0.0, -0.1, 1.5])
    def test_rejects_dead_fraction_outside_the_unit_interval(self, dead):
        controller, _, _, _ = make_reviver_system()
        trace = hotspot_distribution(controller.ospool.virtual_blocks,
                                     3.0, seed=4)
        with pytest.raises(ConfigurationError, match="dead_fraction"):
            ExactEngine(controller, trace, dead_fraction=dead)


class TestFastConfig:
    @pytest.mark.parametrize("bad", [
        dict(recovery="bogus"), dict(batch_writes=0),
        dict(dead_fraction=0.0), dict(dead_fraction=1.5),
    ])
    def test_bad_configuration_is_a_configuration_error(self, bad):
        # ProtocolError means a bug in the framework logic; a bad
        # parameter is the caller's mistake.
        with pytest.raises(ConfigurationError):
            FastConfig(**bad)

    def test_edge_values_are_accepted(self):
        # The array builds every shard with a zero write cap.
        FastConfig(max_writes=0)
        FastConfig(dead_fraction=1.0)


class TestFastEngine:
    def test_reviver_outlives_baseline(self):
        revived = make_fast("reviver").run()
        frozen = make_fast("none").run()
        assert revived.lifetime_writes > frozen.lifetime_writes

    def test_batch_size_invariance(self):
        small = make_fast("reviver", batch=1_000).run()
        large = make_fast("reviver", batch=8_000).run()
        ratio = large.lifetime_writes / small.lifetime_writes
        assert 0.85 < ratio < 1.15

    def test_usable_monotone_nonincreasing(self):
        engine = make_fast("reviver")
        engine.run()
        usable = [p.usable for p in engine.series.points]
        assert all(b <= a + 1e-12 for a, b in zip(usable, usable[1:]))

    def test_survival_monotone_nonincreasing(self):
        engine = make_fast("none")
        engine.run()
        survival = [p.survival for p in engine.series.points]
        assert all(b <= a + 1e-12 for a, b in zip(survival, survival[1:]))

    def test_freep_cliff_after_exhaustion(self):
        engine = make_fast("freep", reserve=0.05)
        engine.run()
        assert engine.region.exhausted or not engine.wl.frozen

    def test_freep_reserve_excluded_from_usable(self):
        engine = make_fast("freep", reserve=0.10)
        assert engine.series.points == []
        engine.run()
        assert engine.series.points[0].usable <= 0.91

    def test_reviver_page_accounting(self):
        engine = make_fast("reviver")
        engine.run()
        stats = engine.stats()
        # Every linked block consumed a shadow slot from an acquired page.
        slots = engine.ledger.shadow_slots_per_page * stats["pages_acquired"]
        assert stats["linked_blocks"] <= slots

    def test_stop_on_capacity_flag(self):
        capped = make_fast("none", stop_on_capacity=True).run()
        uncapped_engine = make_fast("none", stop_on_capacity=False)
        uncapped = uncapped_engine.run()
        assert uncapped.lifetime_writes >= capped.lifetime_writes

    def test_max_writes_respected(self):
        engine = make_fast("reviver", mean=100_000)
        engine.config.max_writes = 6_000
        summary = engine.run()
        assert summary.lifetime_writes <= 6_000
        assert engine.stopped_reason == "max-writes"

    def test_resume_continues_like_one_run(self):
        whole = make_fast("reviver")
        whole.config.max_writes = 12_000
        whole.run()
        split = make_fast("reviver")
        split.config.max_writes = 4_000
        split.run()
        split.resume(8_000)
        split.resume(12_000)
        assert split.series.to_payload() == whole.series.to_payload()
        assert split.end_of_life_report().as_dict() \
            == whole.end_of_life_report().as_dict()
        assert np.array_equal(split.chip.wear, whole.chip.wear)

    def test_resume_leaves_the_callers_config_alone(self):
        config = FastConfig(max_writes=2_000, batch_writes=1_000, seed=3)
        geometry = AddressGeometry(num_blocks=512)
        endurance = EnduranceModel(num_blocks=512, mean=100_000, cov=0.2,
                                   max_order=10, seed=3)
        engine = FastEngine(PCMChip(geometry, ECP(endurance, 1)),
                            StartGap(512, config=StartGapConfig(psi=10)),
                            hotspot_distribution(512, 6.0, seed=3), config)
        engine.run()
        engine.resume(4_000)
        assert engine.total_writes == 4_000
        assert config.max_writes == 2_000

    def test_only_a_run_stopped_at_its_cap_resumes(self):
        engine = make_fast("reviver", mean=60.0)
        with pytest.raises(ProtocolError):
            engine.resume(None)  # never ran
        engine.run()
        assert engine.stop.cause is not StopCause.MAX_WRITES
        with pytest.raises(ProtocolError):
            engine.resume(None)  # a death cannot be continued
        capped = make_fast("reviver")
        capped.config.max_writes = 4_000
        capped.run()
        with pytest.raises(ProtocolError):
            capped.resume(2_000)  # the new cap is behind the run

    def test_nowl_runs(self):
        geometry = AddressGeometry(num_blocks=512)
        endurance = EnduranceModel(num_blocks=512, mean=300, cov=0.2,
                                   max_order=10, seed=3)
        chip = PCMChip(geometry, ECP(endurance, 1))
        trace = hotspot_distribution(512, 6.0, seed=3)
        engine = FastEngine(chip, NoWL(512), trace,
                            FastConfig(recovery="none", batch_writes=2000,
                                       seed=3))
        summary = engine.run()
        assert summary.lifetime_writes > 0


class TestFastEngineRegressions:
    """Dedicated regressions for the three fast-engine bugfixes."""

    def test_victim_pa_with_offset_software_space(self):
        """The victim page must come from ``page_of_pa``, not raw division.

        With a software space parked behind a reserved PA prefix, the raw
        ``pa // blocks_per_page`` page id points outside the pool (the old
        code inspected the wrong page).
        """
        geometry = AddressGeometry(num_blocks=64, block_bytes=64,
                                   page_bytes=512)
        endurance = EnduranceModel(num_blocks=64, mean=300, cov=0.2,
                                   max_order=8, seed=3)
        chip = PCMChip(geometry, ECP(endurance, 1))
        trace = hotspot_distribution(64, 2.0, seed=3)
        engine = FastEngine(chip, NoWL(64), trace,
                            FastConfig(recovery="reviver",
                                       blocks_per_page=8, seed=3))
        # Software window [32, 64): 4 pages of 8 blocks behind a reserved
        # 32-block prefix.
        engine.ospool = PagePool(32, blocks_per_page=8, seed=3, base_pa=32)
        # NoWL inverse is the identity: the failed DA 36 is mapped by PA 36,
        # which lives in (usable) page 0 of the offset window.
        assert engine._victim_pa(36) == 36

    def test_overshoot_collision_reissues_every_stream(self):
        """Two streams sharing a dying final block both get their excess back.

        The old ``final_to_index`` dict kept only the last index, crediting
        the whole clawed-back overshoot to one virtual stream.
        """
        thresholds = np.full(16, 1000)
        thresholds[5] = 10
        geometry = AddressGeometry(num_blocks=16, block_bytes=64,
                                   page_bytes=256)
        chip = PCMChip(geometry, FixedECC(thresholds))
        trace = hotspot_distribution(16, 2.0, seed=1)
        engine = FastEngine(chip, NoWL(16), trace,
                            FastConfig(recovery="none", blocks_per_page=4,
                                       batch_writes=100, seed=1))
        engine._process_failures = lambda newly, migration=False: None
        rebuilds = []

        def rigged_rebuild():
            redirect = np.arange(16, dtype=np.int64)
            if not rebuilds:
                # Round 1: both streams' finals collide on block 5.
                redirect[0] = redirect[1] = 5
            else:
                # Re-issue rounds: the streams separate again.
                redirect[0], redirect[1] = 2, 3
            rebuilds.append(1)
            engine._redirect = redirect

        engine._rebuild_redirect = rigged_rebuild
        rigged_rebuild()
        counts = np.zeros(16, dtype=np.int64)
        counts[0] = counts[1] = 8
        engine._apply_software(counts)
        # Block 5 died at wear 10; the 6 overshoot writes must be split 3/3
        # between the two contributing streams, not 6/0 to the last one.
        assert chip.failed[5] and chip.wear[5] == 10
        assert chip.wear[2] == 3
        assert chip.wear[3] == 3

    def test_overshoot_collision_splits_proportionally(self):
        """Unequal contributions claw back proportional shares."""
        thresholds = np.full(16, 1000)
        thresholds[5] = 10
        geometry = AddressGeometry(num_blocks=16, block_bytes=64,
                                   page_bytes=256)
        chip = PCMChip(geometry, FixedECC(thresholds))
        trace = hotspot_distribution(16, 2.0, seed=1)
        engine = FastEngine(chip, NoWL(16), trace,
                            FastConfig(recovery="none", blocks_per_page=4,
                                       batch_writes=100, seed=1))
        engine._process_failures = lambda newly, migration=False: None
        rebuilds = []

        def rigged_rebuild():
            redirect = np.arange(16, dtype=np.int64)
            if not rebuilds:
                redirect[0] = redirect[1] = 5
            else:
                redirect[0], redirect[1] = 2, 3
            rebuilds.append(1)
            engine._redirect = redirect

        engine._rebuild_redirect = rigged_rebuild
        rigged_rebuild()
        counts = np.zeros(16, dtype=np.int64)
        counts[0], counts[1] = 18, 6  # 24 sent, 14 overshoot
        engine._apply_software(counts)
        assert chip.wear[5] == 10
        # Proportional split of 14: floor gives (10, 3); the deficit of 1
        # goes to the largest contributor.
        assert chip.wear[2] == 11
        assert chip.wear[3] == 3
        # Nothing lost: every issued write landed somewhere.
        assert int(chip.wear.sum()) == 24

    def test_no_duplicate_terminal_sample(self):
        """The series must sample each state exactly once."""
        engine = make_fast("reviver")
        engine.run()
        writes = [p.writes for p in engine.series.points]
        assert writes == sorted(set(writes)), "duplicate sample writes"
        assert engine.series.points[-1] != engine.series.points[-2]

    def test_no_duplicate_sample_on_immediate_stop(self):
        engine = make_fast("reviver", mean=100_000)
        engine.config.max_writes = 0
        engine.run()
        assert len(engine.series.points) == 1


class TestRedirectRebuild:
    """The vectorized redirect rebuild against chain/loop semantics."""

    @staticmethod
    def _reference(num_blocks, links, shadow_of, failed):
        """The pre-vectorization per-key dict walk, as ground truth."""
        redirect = np.arange(num_blocks, dtype=np.int64)
        targets = {da: shadow_of[da] for da in links}
        for da in links:
            seen = set()
            cursor = da
            while cursor in targets and cursor not in seen:
                seen.add(cursor)
                cursor = targets[cursor]
            redirect[da] = cursor if not failed[cursor] else da
        return redirect

    def _engine(self, num_blocks=64):
        geometry = AddressGeometry(num_blocks=num_blocks, block_bytes=64,
                                   page_bytes=512)
        endurance = EnduranceModel(num_blocks=num_blocks, mean=300, cov=0.2,
                                   max_order=8, seed=3)
        chip = PCMChip(geometry, ECP(endurance, 1))
        trace = hotspot_distribution(num_blocks, 2.0, seed=3)
        return FastEngine(chip, NoWL(num_blocks), trace,
                          FastConfig(recovery="reviver", blocks_per_page=8,
                                     seed=3))

    def _rig(self, engine, links, shadow_map, failed_extra=()):
        engine.links = dict(links)
        for da in list(links) + list(failed_extra):
            engine.chip._fail(da)
        engine.wl.map_many = lambda vpas: np.asarray(
            [shadow_map[int(v)] for v in vpas], dtype=np.int64)

    def test_chains_sharing_a_shadow(self):
        """Two failed DAs whose chains end on the same healthy block."""
        engine = self._engine()
        # a's shadow currently sits on failed b; b's shadow sits on healthy
        # c — both chains must resolve to c.
        a, b, c = 10, 20, 30
        self._rig(engine, {a: 100, b: 101}, {100: b, 101: c})
        engine._rebuild_redirect()
        assert engine._redirect[a] == c
        assert engine._redirect[b] == c

    def test_loop_stays_unredirected(self):
        engine = self._engine()
        a, b = 10, 20
        self._rig(engine, {a: 100, b: 101}, {100: b, 101: a})
        engine._rebuild_redirect()
        assert engine._redirect[a] == a
        assert engine._redirect[b] == b

    def test_chain_onto_unlinked_dead_block_stays_unredirected(self):
        engine = self._engine()
        a, dead = 10, 40
        self._rig(engine, {a: 100}, {100: dead}, failed_extra=[dead])
        engine._rebuild_redirect()
        assert engine._redirect[a] == a

    def test_fuzz_matches_reference_walk(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            engine = self._engine(num_blocks=96)
            count = int(rng.integers(1, 40))
            failed_das = rng.choice(96, size=count, replace=False)
            vpas = {int(da): 1000 + i
                    for i, da in enumerate(failed_das.tolist())}
            # Shadows point anywhere, including other failed DAs (chains)
            # and occasionally each other (loops).
            shadow_map = {vpas[da]: int(rng.integers(0, 96)) for da in vpas}
            engine.links = dict(vpas)
            for da in failed_das.tolist():
                engine.chip._fail(da)
            shadow_of = {da: shadow_map[vpas[da]] for da in vpas}
            engine.wl.map_many = lambda v, m=shadow_map: np.asarray(
                [m[int(x)] for x in v], dtype=np.int64)
            engine._rebuild_redirect()
            expected = self._reference(96, engine.links, shadow_of,
                                       engine.chip.failed)
            np.testing.assert_array_equal(engine._redirect, expected)


    def _check_shape(self, num_blocks, links, shadow_of, failed_extra=()):
        """Rig one chain shape, rebuild, and compare against _reference."""
        engine = self._engine(num_blocks=num_blocks)
        vpas = {da: 1000 + i for i, da in enumerate(links)}
        self._rig(engine, vpas, {vpas[da]: shadow_of[da] for da in links},
                  failed_extra)
        engine._rebuild_redirect()
        expected = self._reference(num_blocks, vpas, shadow_of,
                                   engine.chip.failed)
        np.testing.assert_array_equal(engine._redirect, expected)
        return engine._redirect

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32])
    def test_chain_through_every_link(self, length):
        """L links in one chain: exactly L hops, the doubling bound's edge."""
        links = list(range(length))
        shadow_of = {da: da + 1 for da in links}  # the last ends on L
        redirect = self._check_shape(64, links, shadow_of)
        assert (redirect[links] == length).all()

    @pytest.mark.parametrize("tail,loop", [(1, 1), (1, 2), (3, 4), (7, 9),
                                           (16, 1)])
    def test_chain_running_into_a_cycle(self, tail, loop):
        """A rho shape: a tail of links feeding a loop of links."""
        links = list(range(tail + loop))
        shadow_of = {da: da + 1 for da in links}
        shadow_of[links[-1]] = tail  # close the loop at its first node
        redirect = self._check_shape(64, links, shadow_of)
        assert (redirect[links] == links).all()

    @pytest.mark.parametrize("length", [1, 2, 5, 8, 33])
    def test_cycle_of_every_link(self, length):
        links = list(range(length))
        shadow_of = {da: (da + 1) % length for da in links}
        redirect = self._check_shape(64, links, shadow_of)
        assert (redirect[links] == links).all()

    def test_single_link(self):
        assert self._check_shape(64, [9], {9: 30})[9] == 30
        assert self._check_shape(64, [9], {9: 9})[9] == 9
        assert self._check_shape(64, [9], {9: 30}, failed_extra=[30])[9] == 9

    def test_every_block_but_one_linked(self):
        """L = num_blocks - 1: one chain, in scrambled order, to the survivor."""
        num_blocks = 64
        order = np.random.default_rng(5).permutation(num_blocks).tolist()
        survivor = order[-1]
        links = order[:-1]
        shadow_of = dict(zip(links, order[1:]))
        redirect = self._check_shape(num_blocks, links, shadow_of)
        assert (redirect[links] == survivor).all()
        # Closing the chain onto its head leaves every link in a loop.
        shadow_of[links[-1]] = links[0]
        redirect = self._check_shape(num_blocks, links, shadow_of)
        assert (redirect[links] == links).all()


def _guard_redirect(engine):
    """Make every software round and migration pass check the table.

    A rebuild writes only ``_redirect``, so each check saves the table,
    rebuilds, compares and restores.  Returns the link count seen at each
    check and what each ``_apply_software`` call returned.
    """
    seen, stale = [], []

    def check():
        table = engine._redirect
        engine._rebuild_redirect()
        np.testing.assert_array_equal(engine._redirect, table)
        engine._redirect = table
        seen.append(len(engine.links))

    prepare, advance = engine._prepare_round, engine._advance_wear_leveling
    apply = engine._apply_software

    def guarded_prepare(*args):
        check()
        return prepare(*args)

    def recorded_apply(counts):
        stale.append(apply(counts))
        return stale[-1]

    def guarded_advance():
        check()
        return advance()

    engine._prepare_round = guarded_prepare
    engine._advance_wear_leveling = guarded_advance
    engine._apply_software = recorded_apply
    return seen, stale


class TestRedirectFreshness:
    """A table rebuilt only after failing rounds is never stale when read."""

    def _run(self, engine):
        seen, stale = _guard_redirect(engine)
        session = attach_fast(TelemetrySession(), engine)
        engine.run()
        counters = session.registry.snapshot()["counters"]
        epochs = counters["fast.epochs"]
        assert epochs == len(stale) > 0 and seen
        assert session.profile()["redirect-rebuild"]["calls"] == 2 * epochs
        return seen, stale

    def test_reviver_lifetime_to_dead_fraction(self):
        engine = make_fast("reviver", num_blocks=256, mean=200, batch=100,
                           stop_on_capacity=False)
        seen, stale = self._run(engine)
        assert engine.stop == StopReason(StopCause.DEAD_FRACTION)
        assert max(seen) > 1
        # Both kinds of epoch ran: a skipped rebuild and a needed one.
        assert set(stale) == {False, True}

    def test_freep(self):
        engine = make_fast("freep", num_blocks=256, mean=200, batch=500)
        # Capped before the run exhausts its pages mid-epoch: a partial
        # epoch enters its phases but is never counted.
        engine.config.max_writes = 2_500
        self._run(engine)
        assert engine.region.links

    def test_lls(self):
        geometry = AddressGeometry(num_blocks=512)
        endurance = EnduranceModel(num_blocks=512, mean=300.0, cov=0.2,
                                   max_order=10, seed=3)
        engine = LLSFastEngine(
            PCMChip(geometry, ECP(endurance, 1)),
            hotspot_distribution(512, 6.0, seed=3),
            FastConfig(batch_writes=2000, seed=3),
            LLSConfig(chunk_blocks=64, num_groups=8),
            StartGapConfig(psi=10))
        self._run(engine)
        assert engine.lls.groups.backups

    def test_fault_injected_cell(self):
        engine = make_fast("reviver", num_blocks=256, mean=400, batch=500,
                           stop_on_capacity=False)
        engine.config.max_writes = 8_000
        ScheduleDriver(FaultSchedule(actions=(
            FaultAction("fail-block", at_write=500, das=tuple(range(8))),
            FaultAction("exhaust-spares", at_write=2_000)))).attach_fast(
                engine)
        seen, stale = self._run(engine)
        assert True in stale
        assert [a.kind for a in engine.inject.applied] == [
            "fail-block", "exhaust-spares"]
        assert engine.inject.spares_drained > 0
        assert max(seen) > 0


class TestDeadCount:
    """The integer stop count is the float rule ``k / n >= f`` at every k."""

    # 0.07 * 100 rounds up to 7.000000000000001: a bare ceil says 8.
    @pytest.mark.parametrize("fraction", [1e-9, 0.07, 0.1, 0.25, 0.3, 1 / 3,
                                          0.5, 1.0])
    def test_matches_float_rule_at_every_count(self, fraction):
        for n in range(1, 1101):
            counts = np.arange(n + 1)
            dead = dead_count(n, fraction)
            np.testing.assert_array_equal(
                counts >= dead, counts / n >= fraction,
                err_msg=f"n={n}, dead_fraction={fraction!r}")

    @pytest.mark.parametrize("fraction", [1.0 + 1e-12, 1.5, 2.0, 10.0])
    def test_fraction_above_one_never_stops(self, fraction):
        for n in range(1, 1101):
            assert dead_count(n, fraction) > n


class TestStopReasonParity:
    """Both engines must report end of life through the same StopReason."""

    def test_max_writes_stop_is_identical_across_engines(self):
        controller, _, _, _ = make_reviver_system(
            mean=5_000, check_invariants=False)
        trace = hotspot_distribution(controller.ospool.virtual_blocks,
                                     3.0, seed=4)
        exact = ExactEngine(controller, trace, sample_interval=200)
        assert exact.stop is None and exact.stopped_reason is None
        exact.run(max_writes=400)
        fast = make_fast("reviver", mean=100_000)
        fast.config.max_writes = 400
        assert fast.stop is None and fast.stopped_reason is None
        fast.run()
        assert exact.stop == fast.stop == StopReason(StopCause.MAX_WRITES)
        assert exact.stopped_reason == fast.stopped_reason == "max-writes"

    def test_dead_fraction_stop_is_identical_across_engines(self):
        controller, _, _, _ = make_reviver_system(
            mean=150, utilization=1.0, check_invariants=False)
        trace = hotspot_distribution(controller.ospool.virtual_blocks,
                                     4.0, seed=6)
        exact = ExactEngine(controller, trace, dead_fraction=0.05,
                            sample_interval=500)
        exact.run(max_writes=200_000)
        # The exact engine has no capacity stop; disable the fast engine's
        # so both can only stop on the failed-block fraction.
        fast = make_fast("reviver", mean=150, dead=0.05,
                         stop_on_capacity=False)
        fast.run()
        assert exact.stop == fast.stop == StopReason(StopCause.DEAD_FRACTION)
        assert exact.stopped_reason == fast.stopped_reason == "dead-fraction"

    def test_end_of_life_reports_share_schema(self):
        controller, _, _, _ = make_reviver_system(
            mean=5_000, check_invariants=False)
        trace = hotspot_distribution(controller.ospool.virtual_blocks,
                                     3.0, seed=4)
        exact = ExactEngine(controller, trace, sample_interval=200)
        exact.run(max_writes=400)
        fast = make_fast("reviver", mean=100_000)
        fast.config.max_writes = 400
        fast.run()
        exact_report = exact.end_of_life_report().as_dict()
        fast_report = fast.end_of_life_report().as_dict()
        assert set(exact_report) == set(fast_report)
        assert exact_report["stop"] == fast_report["stop"] == "max-writes"
        assert exact_report["total_writes"] == 400
        assert fast_report["total_writes"] == 400


class TestEngineAgreement:
    """The fast engine must reproduce the exact engine's lifetime shape."""

    def test_reviver_lifetimes_agree_within_tolerance(self):
        # Exact path.
        controller, chip, _, _ = make_reviver_system(
            num_blocks=128, mean=200, utilization=1.0,
            check_invariants=False)
        trace = hotspot_distribution(controller.ospool.virtual_blocks,
                                     4.0, seed=6)
        exact = ExactEngine(controller, trace, dead_fraction=0.25,
                            sample_interval=500)
        exact_summary = exact.run(max_writes=200_000)

        # Fast path over statistically identical hardware/workload.
        geometry = AddressGeometry(num_blocks=128, block_bytes=64,
                                   page_bytes=512)
        endurance = EnduranceModel(num_blocks=128, mean=200, cov=0.25,
                                   max_order=8, seed=11)
        chip2 = PCMChip(geometry, ECP(endurance, 1))
        wl2 = StartGap(128)
        trace2 = hotspot_distribution(127, 4.0, seed=6)
        fast = FastEngine(chip2, wl2, trace2,
                          FastConfig(recovery="reviver", batch_writes=500,
                                     blocks_per_page=8, dead_fraction=0.25,
                                     seed=6))
        fast_summary = fast.run()
        ratio = (fast_summary.lifetime_writes
                 / max(exact_summary.lifetime_writes, 1))
        assert 0.4 < ratio < 2.5, (exact_summary, fast_summary)

    def test_agreement_under_collision_heavy_failures(self):
        """Agreement must hold when redirect chains share shadows.

        Weak endurance plus a very hot trace makes failed blocks pile up
        fast enough that several link chains resolve to the same final
        block in one rebuild — the path the old ``final_to_index`` dict
        silently mis-credited.  The instrumented rebuild asserts the
        collision path actually ran.
        """
        controller, chip, _, _ = make_reviver_system(
            num_blocks=128, mean=150, utilization=1.0,
            check_invariants=False)
        trace = hotspot_distribution(controller.ospool.virtual_blocks,
                                     6.0, seed=6)
        exact = ExactEngine(controller, trace, dead_fraction=0.3,
                            sample_interval=500)
        exact_summary = exact.run(max_writes=200_000)

        geometry = AddressGeometry(num_blocks=128, block_bytes=64,
                                   page_bytes=512)
        endurance = EnduranceModel(num_blocks=128, mean=150, cov=0.25,
                                   max_order=8, seed=11)
        chip2 = PCMChip(geometry, ECP(endurance, 1))
        fast = FastEngine(chip2, StartGap(128),
                          hotspot_distribution(127, 6.0, seed=6),
                          FastConfig(recovery="reviver", batch_writes=200,
                                     blocks_per_page=8, dead_fraction=0.3,
                                     seed=6))
        rebuild = fast._rebuild_redirect
        collisions = []

        def instrumented():
            rebuild()
            if len(fast.links) < 2:
                return
            links = np.fromiter(fast.links.keys(), dtype=np.int64,
                                count=len(fast.links))
            finals = fast._redirect[links]
            redirected = finals[finals != links]
            if redirected.size > np.unique(redirected).size:
                collisions.append(redirected.size)

        fast._rebuild_redirect = instrumented
        fast_summary = fast.run()
        assert collisions, "run never exercised the shared-shadow path"
        assert len(fast.links) >= 2
        ratio = (fast_summary.lifetime_writes
                 / max(exact_summary.lifetime_writes, 1))
        assert 0.4 < ratio < 2.5, (exact_summary, fast_summary)

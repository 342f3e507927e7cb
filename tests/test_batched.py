"""Equivalence tests: the lockstep SoA kernel vs per-cell engine runs.

Every test here builds the *same* cell twice from the same seeds — once
run per-cell (``FastEngine.run``), once through
:class:`repro.sim.batched.BatchedEngine` — and asserts byte-identity of
everything a cell can emit: the lifetime summary, the sampled series, the
end-of-life report, the final device state, and (where enabled) the
deterministic telemetry snapshot.
"""

import json
import pickle

import numpy as np
import pytest

from repro.config import StartGapConfig
from repro.ecc import ECP, PAYG, FreePRegion
from repro.errors import ConfigurationError
from repro.faultinject import FaultAction, FaultSchedule, ScheduleDriver
from repro.pcm import AddressGeometry, EnduranceModel, PCMChip
from repro.sim.batched import BatchedEngine, is_batchable, run_cell_batch
from repro.sim.fast import FastConfig, FastEngine
from repro.telemetry import TelemetrySession, attach_fast
from repro.traces import hotspot_distribution
from repro.wl import NoWL, StartGap

ECCS = {
    "ecp6": lambda endurance: ECP(endurance, 6),
    "ecp1": lambda endurance: ECP(endurance, 1),
    "payg": lambda endurance: PAYG(endurance),
}


def make_engine(seed, recovery="reviver", ecc="ecp6", wl_kind="startgap",
                num_blocks=256, mean=200.0, psi=8, dead=0.3, batch=1500,
                telemetry=False, schedule=None):
    """One deterministic cell stack; identical for identical arguments."""
    geometry = AddressGeometry(num_blocks=num_blocks)
    endurance = EnduranceModel(num_blocks=num_blocks, mean=mean, cov=0.25,
                               max_order=10, seed=seed)
    chip = PCMChip(geometry, ECCS[ecc](endurance))
    config = FastConfig(recovery=recovery, freep_reserve=0.12,
                        dead_fraction=dead, batch_writes=batch,
                        seed=seed + 1)
    region = None
    if recovery == "freep":
        region = FreePRegion(num_blocks, 0.12)
    logical = region.working_blocks if region is not None else num_blocks
    if wl_kind == "startgap":
        wl = StartGap(logical, config=StartGapConfig(psi=psi, seed=seed + 2))
    else:
        wl = NoWL(logical)
    trace = hotspot_distribution(wl.logical_blocks, 3.0, seed=seed + 3)
    engine = FastEngine(chip, wl, trace, config, region=region)
    if schedule is not None:
        ScheduleDriver(schedule).attach_fast(engine)
    session = None
    if telemetry:
        session = TelemetrySession()
        attach_fast(session, engine)
    return engine, session


def cell_state(engine, summary, session=None):
    """Everything observable about a finished cell, JSON-canonicalized."""
    from repro.array.shard import deterministic_snapshot
    state = {
        "lifetime": summary.lifetime_writes,
        "summary": repr(summary),
        "stop": engine.stopped_reason,
        "total_writes": engine.total_writes,
        "device_writes": engine.chip.total_device_writes,
        "series": engine.series.to_payload(),
        "report": engine.end_of_life_report().as_dict(),
        "wear": engine.chip.wear.tolist(),
        "failed": engine.chip.failed.tolist(),
        "dropped": engine.dropped_writes,
    }
    if session is not None:
        state["snapshot"] = deterministic_snapshot(
            session.registry.snapshot())
    return json.dumps(state, sort_keys=True)


def assert_batched_matches(build, count=3):
    """Run ``count`` cells per-cell and batched; assert byte-identity."""
    solo = []
    for i in range(count):
        engine, session = build(i)
        solo.append(cell_state(engine, engine.run(), session))
    made = [build(i) for i in range(count)]
    summaries = BatchedEngine([engine for engine, _ in made]).run()
    batched = [cell_state(engine, summary, session)
               for (engine, session), summary in zip(made, summaries)]
    assert solo == batched


def commit_loop_rows(wl, moves):
    """Reference rows: one register commit per gap move, as ``tick`` does."""
    rows = np.empty((moves, 2), dtype=np.int64)
    for k in range(moves):
        rows[k] = wl._move_endpoints()
        wl._commit_move()
    return rows


class TestStartGapBulkRows:
    """The kernel's migration rows: closed form vs the per-move commits."""

    @pytest.mark.parametrize("psi", [1, 4, 16])
    @pytest.mark.parametrize("moves", [1, 7, 64, 300])
    def test_matches_bulk_migrations(self, psi, moves):
        a = StartGap(96, config=StartGapConfig(psi=psi, seed=5))
        b = StartGap(96, config=StartGapConfig(psi=psi, seed=5))
        # Skew both registers off their initial state first.
        a.bulk_migrations(13)
        commit_loop_rows(b, 13)
        rows_a = a.bulk_migrations(moves)
        rows_b = commit_loop_rows(b, moves)
        np.testing.assert_array_equal(rows_a, rows_b)
        assert (a.gap, a.start, a.gap_moves) == (b.gap, b.start, b.gap_moves)

    def test_mapping_agrees_after_many_wraps(self):
        a = StartGap(17, config=StartGapConfig(psi=2, seed=9))
        b = StartGap(17, config=StartGapConfig(psi=2, seed=9))
        a.bulk_migrations(123)
        commit_loop_rows(b, 123)
        pas = np.arange(a.logical_blocks, dtype=np.int64)
        np.testing.assert_array_equal(a.map_many(pas), b.map_many(pas))
        assert [a.inverse(da) for da in range(17)] \
            == [b.inverse(da) for da in range(17)]

    def test_frozen_and_empty_batches(self):
        wl = StartGap(32, config=StartGapConfig(psi=3, seed=1))
        assert wl.bulk_migrations(0).shape == (0, 2)
        wl.frozen = True
        assert wl.bulk_migrations(10).shape == (0, 2)
        assert wl.gap_moves == 0


class TestBatchedEquivalence:
    @pytest.mark.parametrize("recovery", ["none", "reviver", "freep"])
    @pytest.mark.parametrize("ecc", ["ecp6", "ecp1", "payg"])
    def test_scheme_matrix(self, recovery, ecc):
        assert_batched_matches(
            lambda i: make_engine(seed=11 + 17 * i, recovery=recovery,
                                  ecc=ecc))

    def test_nowl_cells(self):
        assert_batched_matches(
            lambda i: make_engine(seed=5 + 7 * i, wl_kind="nowl",
                                  recovery="none", mean=400.0))

    def test_telemetry_snapshots_match(self):
        assert_batched_matches(
            lambda i: make_engine(seed=23 + 5 * i, telemetry=True))

    @pytest.mark.parametrize("actions", [
        [FaultAction(kind="fail-block", at_write=900, das=(3, 7, 11))],
        [FaultAction(kind="endurance-burst", at_write=600, das=(1, 2),
                     margin=2)],
        [FaultAction(kind="exhaust-spares", at_write=1200)],
        [FaultAction(kind="fail-block", at_write=400, das=(0,)),
         FaultAction(kind="endurance-burst", at_write=2000, das=(9, 10))],
    ])
    def test_forced_fault_schedules_match(self, actions):
        schedule = FaultSchedule(actions=tuple(actions))
        assert_batched_matches(
            lambda i: make_engine(seed=31 + 3 * i, telemetry=bool(i % 2),
                                  schedule=schedule))

    def test_mixed_lifetimes_mask_dead_cells(self):
        # Wildly different endurance means: early stoppers must be masked
        # out while long-lived cells keep advancing.
        assert_batched_matches(
            lambda i: make_engine(seed=41 + i, mean=120.0 * (i + 1)),
            count=4)


class TestBatchedEngineValidation:
    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            BatchedEngine([])

    def test_rejects_used_engine(self):
        engine, _ = make_engine(seed=3)
        engine.run()
        with pytest.raises(ConfigurationError):
            BatchedEngine([engine])

    def test_rejects_heterogeneous_blocks(self):
        a, _ = make_engine(seed=3, num_blocks=128)
        b, _ = make_engine(seed=3, num_blocks=256)
        with pytest.raises(ConfigurationError):
            BatchedEngine([a, b])

    def test_rejects_engine_subclasses(self):
        class Odd(FastEngine):
            pass

        engine, _ = make_engine(seed=3)
        odd = Odd(engine.chip, engine.wl, engine.trace, engine.config)
        with pytest.raises(ConfigurationError):
            BatchedEngine([odd])

    def test_run_is_single_shot(self):
        engine, _ = make_engine(seed=3)
        batched = BatchedEngine([engine])
        batched.run()
        with pytest.raises(ConfigurationError):
            batched.run()


class TestCellRegistry:
    def test_campaign_cell_is_batchable(self):
        assert is_batchable("repro.sim.campaign:campaign_cell")
        assert not is_batchable("repro.sim.campaign:no_such_function")
        assert not is_batchable("not-a-dotted-ref")

    def test_run_cell_batch_matches_per_cell(self):
        from repro.sim.campaign import DEFAULTS, campaign_cell
        params = dict(DEFAULTS, num_blocks=256, mean_endurance=300.0)
        items = [(f"c/{i}", dict(params, seed=100 + i, telemetry=(i == 0)))
                 for i in range(3)]
        batched = run_cell_batch("repro.sim.campaign:campaign_cell", items)
        assert [key for key, _ in batched] == [key for key, _ in items]
        for (key, value), (_, kwargs) in zip(batched, items):
            assert value == campaign_cell(**kwargs)

    def test_declining_build_falls_back_to_cell_fn(self):
        from repro.experiments import fig8
        items = [("lls", dict(scale="tiny", benchmark="mg",
                              system="LLS", seed=4)),
                 ("wlr", dict(scale="tiny", benchmark="mg",
                              system="WL-Reviver", seed=4))]
        batched = run_cell_batch("repro.experiments.fig8:_cell", items)
        per_cell = {key: fig8._cell(**kwargs) for key, kwargs in items}
        assert dict(batched) == per_cell

    def test_unregistered_fn_raises(self):
        with pytest.raises(ConfigurationError):
            run_cell_batch("repro.experiments.parallel:jsonify",
                           [("x", {"value": 1})])


class TestCampaignEquivalence:
    def test_batch_sizes_and_jobs_agree(self, tmp_path):
        from repro.sim.campaign import run_campaign
        params = dict(num_blocks=256, mean_endurance=300.0)
        reference = run_campaign(6, seed=2, jobs=1, batch=1, **params)
        for jobs, batch in [(1, 3), (1, 6), (2, 3)]:
            got = run_campaign(6, seed=2, jobs=jobs, batch=batch, **params)
            assert json.dumps(got, sort_keys=True) == \
                json.dumps(reference, sort_keys=True), (jobs, batch)

    def test_check_flag_passes(self, capsys):
        from repro.sim.campaign import main
        code = main(["--seeds", "3", "--batch", "3", "--blocks", "256",
                     "--mean", "300", "--check", "--quiet"])
        assert code == 0

    def test_resume_mixes_with_batched_groups(self, tmp_path):
        from repro.sim.campaign import run_campaign
        params = dict(num_blocks=256, mean_endurance=300.0)
        resume = tmp_path / "campaign.json"
        first = run_campaign(4, seed=2, batch=2, resume=resume, **params)
        # A second, larger run must reuse the four cached cells and batch
        # only the new ones — and still match the from-scratch payload.
        second = run_campaign(6, seed=2, batch=4, resume=resume, **params)
        scratch = run_campaign(6, seed=2, batch=1, **params)
        assert json.dumps(second, sort_keys=True) == \
            json.dumps(scratch, sort_keys=True)
        assert first["cells"].keys() <= second["cells"].keys()


class TestFigureBatchedEquivalence:
    def test_fig5_batch_matches(self):
        from repro.experiments import fig5
        solo = fig5.as_dict(fig5.run(scale="tiny", benchmarks=["mg"],
                                     seed=1))
        batched = fig5.as_dict(fig5.run(scale="tiny", benchmarks=["mg"],
                                        seed=1, batch=2))
        assert solo == batched

    def test_fig7_batch_matches(self):
        from repro.experiments import fig7
        solo = fig7.run(scale="tiny", benchmarks=["mg"], reserves=[0.1],
                        seed=1)
        batched = fig7.run(scale="tiny", benchmarks=["mg"], reserves=[0.1],
                           seed=1, batch=4)
        assert solo == batched


class TestBatchedEnginesPickle:
    def test_engine_pickles_after_lockstep_run_and_resumes(self):
        # An engine that ran in the kernel must still be a plain engine:
        # picklable, and resumable to the same record as the original.
        from repro.array import ArrayConfig, shard_seed
        from repro.array.shard import build_shard_cell, finish_shard_cell
        space = ArrayConfig(num_shards=2, shard_blocks=128, page_blocks=16,
                            mean_endurance=150.0).software_blocks
        table = np.random.default_rng(3).random(space) + 0.01
        cells = [build_shard_cell(
            shard=shard, seed=shard_seed(7, shard), device_blocks=128,
            mean_endurance=150.0, endurance_cov=0.2, max_order=16, ecp_k=6,
            psi=8, batch_writes=500, recovery="reviver", dead_fraction=0.3,
            page_blocks=16, segments=[[0, table.tolist()]],
            max_writes=4000, schedule=None, telemetry=True,
            label=f"pickle-{shard}") for shard in range(2)]
        BatchedEngine([engine for engine, _ in cells]).run()
        engine, context = cells[0]
        assert engine.stopped_reason == "max-writes"
        copy, copy_context = pickle.loads(pickle.dumps((engine, context)))
        for resumed in (copy, engine):
            resumed.resume(8000)
        records = [finish_shard_cell(e, c)
                   for e, c in [(copy, copy_context), (engine, context)]]
        assert records[0]["local_writes"] == 8000
        assert records[0] == records[1]

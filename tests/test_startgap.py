"""Unit tests for Start-Gap wear leveling."""

import numpy as np
import pytest

from repro.config import StartGapConfig
from repro.errors import ConfigurationError
from repro.wl import NullPort, StartGap
from repro.wl.randomizer import IdentityRandomizer


def make_sg(device: int = 65, psi: int = 10, identity: bool = False):
    randomizer = IdentityRandomizer(device - 1) if identity else None
    return StartGap(device, config=StartGapConfig(psi=psi),
                    randomizer=randomizer)


class TestMapping:
    def test_initial_identity_with_identity_randomizer(self):
        sg = make_sg(identity=True)
        for pa in range(sg.logical_blocks):
            assert sg.map(pa) == pa

    def test_gap_starts_at_top(self):
        sg = make_sg()
        assert sg.gap == sg.logical_blocks
        assert sg.inverse(sg.gap) is None

    def test_bijection_initial(self):
        make_sg().check_bijection()

    def test_bijection_preserved_across_moves(self):
        sg = make_sg(psi=1)
        port = NullPort()
        for step in range(3 * (sg.logical_blocks + 1)):
            sg.tick(port)
            if step % 17 == 0:
                sg.check_bijection()
        sg.check_bijection()

    def test_map_many_matches_scalar(self):
        sg = make_sg()
        port = NullPort()
        for _ in range(137):
            sg.tick(port)
        pas = np.arange(sg.logical_blocks)
        assert (sg.map_many(pas)
                == np.array([sg.map(int(p)) for p in pas])).all()

    def test_logical_is_device_minus_one(self):
        assert make_sg(65).logical_blocks == 64


class TestGapMovement:
    def test_one_move_per_psi_writes(self):
        sg = make_sg(psi=10)
        port = NullPort()
        for _ in range(100):
            sg.tick(port)
        assert sg.gap_moves == 10

    def test_move_shifts_gap_down(self):
        sg = make_sg(psi=1, identity=True)
        top = sg.gap
        sg.tick(NullPort())
        assert sg.gap == top - 1

    def test_wrap_increments_start(self):
        sg = make_sg(device=9, psi=1, identity=True)
        port = NullPort()
        for _ in range(sg.logical_blocks + 1):
            sg.tick(port)
        assert sg.gap == sg.logical_blocks
        assert sg.start == 1

    def test_full_rotation_returns_identity(self):
        """After L*(L+1) moves the mapping returns to the identity."""
        sg = make_sg(device=9, psi=1, identity=True)
        port = NullPort()
        logical = sg.logical_blocks
        for _ in range(logical * (logical + 1)):
            sg.tick(port)
        assert sg.start == 0
        assert all(sg.map(pa) == pa for pa in range(logical))

    def test_each_move_changes_exactly_one_pa(self):
        sg = make_sg(psi=1)
        port = NullPort()
        before = {pa: sg.map(pa) for pa in range(sg.logical_blocks)}
        changed = sg.tick(port)
        after = {pa: sg.map(pa) for pa in range(sg.logical_blocks)}
        moved = [pa for pa in before if before[pa] != after[pa]]
        assert moved == changed
        assert len(moved) == 1

    def test_migration_reads_source_and_writes_moved_pa(self):
        sg = make_sg(psi=1)
        port = NullPort()
        changed = sg.tick(port)
        assert len(port.reads) == 1
        assert len(port.writes) == 1
        assert port.writes[0][0] == changed[0]


class TestLifecycle:
    def test_freeze_stops_moves_and_mapping(self):
        sg = make_sg(psi=1)
        port = NullPort()
        sg.tick(port)
        sg.freeze()
        gap, start = sg.gap, sg.start
        for _ in range(50):
            assert sg.tick(port) == []
        assert (sg.gap, sg.start) == (gap, start)

    def test_deferred_when_port_busy(self):
        class BusyPort(NullPort):
            def can_start_migration(self):
                return False

        sg = make_sg(psi=1)
        port = BusyPort()
        for _ in range(5):
            sg.tick(port)
        assert sg.gap_moves == 0
        assert sg._pending_moves == 5
        # Once the port frees up, the debt is repaid in one tick.
        sg.tick(NullPort())  # note: fresh port that allows migration
        assert sg.gap_moves >= 5

    def test_schedule_due(self):
        sg = make_sg(psi=10)
        assert sg.schedule_due(100) == 10
        sg.bulk_migrations(4)
        assert sg.schedule_due(100) == 6

    def test_bulk_matches_tick_state(self):
        """The closed-form rows replay exactly what per-write ticks do."""
        for device, psi, skew in [(65, 1, 0), (17, 1, 13), (17, 2, 5),
                                  (17, 16, 13), (96, 1, 13), (96, 2, 40),
                                  (96, 16, 13)]:
            a = make_sg(device, psi=psi)
            b = make_sg(device, psi=psi)
            # Skew both registers off their initial state first.
            a.bulk_migrations(skew)
            for _ in range(skew * psi):
                b.tick(NullPort())
            moves = 3 * device + 7  # wraps the gap several times
            rows = a.bulk_migrations(moves)
            port = NullPort()
            gaps = []
            for _ in range(moves * psi):
                gap, done = b.gap, b.gap_moves
                b.tick(port)
                if b.gap_moves > done:
                    gaps.append(gap)
            assert rows.shape == (moves, 2)
            assert rows[:, 0].tolist() == port.reads
            assert rows[:, 1].tolist() == gaps
            assert (a.gap, a.start, a.gap_moves) \
                == (b.gap, b.start, b.gap_moves)
            pas = np.arange(a.logical_blocks)
            assert (a.map_many(pas) == b.map_many(pas)).all()

    def test_rejects_tiny_device(self):
        with pytest.raises(ConfigurationError):
            StartGap(1)

    def test_rejects_mismatched_randomizer(self):
        with pytest.raises(ConfigurationError):
            StartGap(65, randomizer=IdentityRandomizer(10))

    def test_describe(self):
        assert "StartGap" in make_sg().describe()


def commit_loop_rows(wl, moves):
    """Reference rows: one register commit per gap move, as ``tick`` does."""
    rows = np.empty((moves, 2), dtype=np.int64)
    for k in range(moves):
        rows[k] = wl._move_endpoints()
        wl._commit_move()
    return rows


class TestStartGapBulkRows:
    """Closed-form migration rows vs the per-move register commits."""

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

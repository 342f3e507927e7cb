"""Unit tests for the metric collectors."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.sim import LifetimeSeries, LifetimeSummary


def make_series() -> LifetimeSeries:
    series = LifetimeSeries(label="test")
    series.record(0, 1.0, 1.0)
    series.record(100, 0.95, 0.9, avg_access=1.01)
    series.record(200, 0.80, 0.7, avg_access=1.02)
    series.record(300, 0.65, 0.5, avg_access=1.05)
    return series


class TestLifetimeSeries:
    def test_total_writes(self):
        assert make_series().total_writes == 300
        assert LifetimeSeries().total_writes == 0

    def test_writes_to_usable(self):
        series = make_series()
        assert series.writes_to_usable(0.7) == 200
        assert series.writes_to_usable(0.05) is None

    def test_point_lookup(self):
        series = make_series()
        assert series.sample_at(150).survival == 0.95
        assert series.sample_at(200).survival == 0.80
        assert series.sample_at(250).usable == 0.7
        # Before any sample: pristine chip.
        assert series.sample_at(-1).survival == 1.0

    def test_empty_series_lookup(self):
        series = LifetimeSeries()
        assert series.sample_at(1000).survival == 1.0

    def test_sample_at_carries_forward(self):
        series = make_series()
        assert series.sample_at(150).writes == 100
        assert series.sample_at(100).survival == 0.95
        # Before the first sample: a pristine synthetic point.
        pristine = LifetimeSeries().sample_at(500)
        assert (pristine.writes, pristine.survival, pristine.usable) \
            == (0, 1.0, 1.0)


def two_shards():
    a = LifetimeSeries(label="a")
    a.record(0, 1.0, 1.0)
    a.record(100, 0.9, 0.8, avg_access=2.0)
    b = LifetimeSeries(label="b")
    b.record(0, 1.0, 1.0)
    b.record(200, 0.5, 0.4, avg_access=4.0)
    return a, b


class TestLifetimeSeriesMerge:
    def test_grid_defaults_to_union_of_sample_writes(self):
        merged = LifetimeSeries.merge(two_shards())
        assert [p.writes for p in merged.points] == [0, 100, 200]
        assert merged.label == "merged"

    def test_point_wise_weighted_mean_with_carry_forward(self):
        merged = LifetimeSeries.merge(two_shards())
        # At 100: a has sampled (0.9, 0.8); b carries forward (1.0, 1.0).
        at_100 = merged.sample_at(100)
        assert at_100.survival == pytest.approx(0.95)
        assert at_100.usable == pytest.approx(0.9)
        # At 200: both have sampled.
        at_200 = merged.sample_at(200)
        assert at_200.survival == pytest.approx(0.7)
        assert at_200.usable == pytest.approx(0.6)

    def test_avg_access_is_write_weighted(self):
        merged = LifetimeSeries.merge(two_shards())
        # At 200: a absorbed 100 writes at access 2.0, b 200 at 4.0.
        expected = (100 * 2.0 + 200 * 4.0) / 300
        assert merged.sample_at(200).avg_access == pytest.approx(expected)
        # At 0 nothing has been written: access mean is defined as 0.
        assert merged.sample_at(0).avg_access == 0.0

    def test_single_series_round_trips(self):
        series = make_series()
        merged = LifetimeSeries.merge([series], label="solo")
        assert merged.points == series.points
        assert merged.label == "solo"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_per_point_sample_at(self, seed):
        """The merge equals its definition over sample_at, grid point by point.

        One series starts after the grid does, so the earliest grid points
        see its pristine point.
        """
        rng = random.Random(seed)
        series = []
        for index in range(4):
            one = LifetimeSeries(label=str(index))
            writes = 500 if index == 0 else 0
            for _ in range(rng.randint(1, 30)):
                one.record(writes, rng.random(), rng.random(),
                           avg_access=1.0 + rng.random())
                writes += rng.choice([0, 7, 50, 120])
            series.append(one)
        weights = [rng.uniform(0.5, 2.0) for _ in series]
        merged = LifetimeSeries.merge(series, access_weights=weights)
        grid = sorted({p.writes for one in series for p in one.points})
        assert [p.writes for p in merged.points] == grid
        assert grid[0] < 500
        for point in merged.points:
            samples = [one.sample_at(point.writes) for one in series]
            mass = sum(w * s.writes for w, s in zip(weights, samples))
            access = (sum(w * s.writes * s.avg_access
                          for w, s in zip(weights, samples)) / mass
                      if mass > 0 else 0.0)
            assert point.survival == sum(s.survival for s in samples) / 4
            assert point.usable == sum(s.usable for s in samples) / 4
            assert point.avg_access == access

    def test_validation_errors(self):
        a, b = two_shards()
        with pytest.raises(ConfigurationError, match="at least one"):
            LifetimeSeries.merge([])
        with pytest.raises(ConfigurationError, match="access weights"):
            LifetimeSeries.merge([a, b], access_weights=[1.0])


class TestLifetimeSummary:
    def test_from_series(self):
        summary = LifetimeSummary.from_series(make_series(), os_reports=4)
        assert summary.lifetime_writes == 300
        assert summary.final_survival == 0.65
        assert summary.final_usable == 0.5
        assert summary.avg_access == pytest.approx(1.05)
        assert summary.os_reports == 4

    def test_from_empty_series(self):
        summary = LifetimeSummary.from_series(LifetimeSeries(label="x"))
        assert summary.lifetime_writes == 0
        assert summary.final_survival == 1.0

"""Tests for the wear-distribution statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.wearstats import (
    WearReport,
    endurance_utilization,
    gini,
)
from repro.traces import counts_cov

from .conftest import make_chip


class TestGini:
    def test_perfectly_even_is_zero(self):
        assert gini(np.full(100, 7)) == pytest.approx(0.0, abs=1e-12)

    def test_single_hoarder_approaches_one(self):
        wear = np.zeros(1000)
        wear[0] = 5000
        assert gini(wear) > 0.99

    def test_known_value(self):
        # Two blocks, one with everything: G = 1/2 for n=2.
        assert gini(np.array([0.0, 10.0])) == pytest.approx(0.5)

    def test_empty_and_zero(self):
        assert gini(np.array([])) == 0.0
        assert gini(np.zeros(5)) == 0.0

    @given(values=st.lists(st.integers(min_value=0, max_value=1000),
                           min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_bounds_property(self, values):
        g = gini(np.array(values))
        assert -1e-9 <= g <= 1.0

    @given(values=st.lists(st.integers(min_value=1, max_value=1000),
                           min_size=2, max_size=50),
           scale=st.integers(min_value=2, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, values, scale):
        wear = np.array(values, dtype=np.float64)
        assert gini(wear) == pytest.approx(gini(wear * scale), abs=1e-9)


class TestCovAndHistogram:
    def test_cov_zero_for_even(self):
        assert counts_cov(np.full(10, 3)) == 0.0

    def test_cov_empty(self):
        assert counts_cov(np.array([])) == 0.0


class TestUtilization:
    def test_fresh_chip_is_zero(self, small_chip):
        assert endurance_utilization(small_chip) == 0.0

    def test_grows_with_writes(self, small_chip):
        for da in range(small_chip.num_blocks):
            small_chip.write(da)
        used = endurance_utilization(small_chip)
        assert 0.0 < used < 1.0

    def test_clips_overshoot(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        chip.wear[:] = 10 ** 9  # way beyond any threshold
        assert endurance_utilization(chip) == pytest.approx(1.0)


class TestWearReport:
    def test_snapshot(self, small_chip):
        small_chip.write(0)
        report = WearReport.of(small_chip)
        assert report.max_wear == 1
        assert report.failed_fraction == 0.0
        assert 0.0 <= report.gini <= 1.0

    def test_leveled_system_beats_frozen_on_gini(self):
        """A revived Start-Gap ends its life with more even wear than an
        identity-mapped chip under the same skewed traffic."""
        from repro.config import StartGapConfig
        from repro.ecc import ECP
        from repro.pcm import AddressGeometry, EnduranceModel, PCMChip
        from repro.sim import FastConfig, FastEngine
        from repro.traces import hotspot_distribution
        from repro.wl import NoWL, StartGap

        def run(wl_factory):
            geometry = AddressGeometry(num_blocks=512)
            endurance = EnduranceModel(num_blocks=512, mean=300, cov=0.2,
                                       max_order=10, seed=3)
            chip = PCMChip(geometry, ECP(endurance, 1))
            engine = FastEngine(chip, wl_factory(),
                                hotspot_distribution(512, 6.0, seed=9),
                                FastConfig(recovery="reviver",
                                           batch_writes=2000, seed=1))
            engine.run()
            return WearReport.of(chip)

        leveled = run(lambda: StartGap(512, config=StartGapConfig(psi=4)))
        identity = run(lambda: NoWL(512))
        assert leveled.gini < identity.gini

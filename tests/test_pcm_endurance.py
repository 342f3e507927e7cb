"""Tests for the order-statistics endurance model, incl. statistical checks.

scipy is a test-only dependency: the tests that use it as an oracle (for the
:mod:`repro.numeric` ports, and the KS check) skip when it is missing.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import numeric
from repro.ecc import ECP, PAYG
from repro.errors import ConfigurationError
from repro.pcm import EnduranceModel, sample_failure_times
from repro.pcm import endurance as endurance_module
from repro.pcm.endurance import order_uniforms
from repro.traces import synthetic

#: Cephes' ``exp(-2)`` branch point, as the literal the reference uses.
EXP_M2 = 0.13533528323661269189


class TestSampleFailureTimes:
    def test_shape_and_dtype(self):
        times = sample_failure_times(100, 512, 1e4, 0.2, 5, rng=1)
        assert times.shape == (100, 5)
        assert times.dtype == np.int64

    def test_rows_are_nondecreasing(self):
        times = sample_failure_times(500, 512, 1e4, 0.2, 8, rng=2)
        assert (np.diff(times, axis=1) >= 0).all()

    def test_values_positive(self):
        times = sample_failure_times(500, 512, 1e3, 0.3, 8, rng=3)
        assert (times >= 1).all()

    def test_deterministic_per_seed(self):
        a = sample_failure_times(50, 512, 1e4, 0.2, 4, rng=7)
        b = sample_failure_times(50, 512, 1e4, 0.2, 4, rng=7)
        assert (a == b).all()

    def test_seed_changes_sample(self):
        a = sample_failure_times(50, 512, 1e4, 0.2, 4, rng=7)
        b = sample_failure_times(50, 512, 1e4, 0.2, 4, rng=8)
        assert not (a == b).all()

    def test_first_order_statistic_distribution(self):
        """The sampled minimum matches the analytic min-of-n distribution.

        For n i.i.d. normals, P(min <= t) = 1 - (1 - Phi(z))^n.  A KS test
        against that CDF on the first order statistic validates the
        sequential-beta construction end to end.
        """
        stats = pytest.importorskip("scipy.stats")
        mean, cov, n = 1e4, 0.2, 512
        sd = mean * cov
        times = sample_failure_times(4000, n, mean, cov, 1, rng=5)[:, 0]

        def cdf(t):
            return 1.0 - (1.0 - stats.norm.cdf((t - mean) / sd)) ** n

        result = stats.kstest(times, cdf)
        assert result.pvalue > 0.01, result

    def test_higher_orders_have_higher_means(self):
        times = sample_failure_times(2000, 512, 1e4, 0.2, 8, rng=6)
        means = times.mean(axis=0)
        assert (np.diff(means) > 0).all()

    @pytest.mark.parametrize("k", [0, -1, 600])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ConfigurationError):
            sample_failure_times(10, 512, 1e4, 0.2, k)


class TestEnduranceModel:
    def test_materializes_max_order(self):
        model = EnduranceModel(num_blocks=64, mean=1e3, max_order=10, seed=1)
        assert model.failure_times.shape == (64, 10)

    def test_nth_failure_bounds(self):
        model = EnduranceModel(num_blocks=64, mean=1e3, max_order=10, seed=1)
        with pytest.raises(ConfigurationError):
            model.nth_failure(0)
        with pytest.raises(ConfigurationError):
            model.nth_failure(11)

    def test_uncorrectable_threshold_is_shifted_order(self):
        model = EnduranceModel(num_blocks=64, mean=1e3, max_order=10, seed=1)
        assert (model.uncorrectable_threshold(0)
                == model.nth_failure(1)).all()
        assert (model.uncorrectable_threshold(6)
                == model.nth_failure(7)).all()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            EnduranceModel(num_blocks=8, mean=0)
        with pytest.raises(ConfigurationError):
            EnduranceModel(num_blocks=8, cov=1.0)
        with pytest.raises(ConfigurationError):
            EnduranceModel(num_blocks=8, max_order=0)
        with pytest.raises(ConfigurationError):
            EnduranceModel(num_blocks=8, max_order=513)

    @given(capacity=st.integers(min_value=0, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_more_correction_never_hurts(self, capacity):
        """Property: a stronger code's threshold dominates a weaker one's."""
        model = EnduranceModel(num_blocks=32, mean=1e3, max_order=10, seed=4)
        weaker = model.uncorrectable_threshold(capacity)
        stronger = model.uncorrectable_threshold(capacity + 1)
        assert (stronger >= weaker).all()


def _ulp_walk(centre: float, steps: int = 1000) -> np.ndarray:
    """``2 * steps + 1`` consecutive doubles around *centre*."""
    return centre + np.arange(-steps, steps + 1) * np.spacing(centre)


def _ndtri_oracle_inputs() -> np.ndarray:
    rng = np.random.default_rng(2024)
    exp_m32 = math.exp(-32.0)
    return np.concatenate([
        rng.random(1_000_000),
        10.0 ** -rng.uniform(0.0, 300.0, 100_000),
        1.0 - 10.0 ** -rng.uniform(0.5, 16.0, 100_000),
        np.array([0.0, 1.0, 0.5, 1e-300, 5e-324, EXP_M2, 1.0 - EXP_M2,
                  math.exp(-2.0), exp_m32, 1.0 - 1e-16]),
        _ulp_walk(EXP_M2), _ulp_walk(1.0 - EXP_M2), _ulp_walk(exp_m32),
        order_uniforms(4096, 512, 24, rng=3).ravel(),
    ])


class TestNdtri:
    def test_matches_scipy_bit_for_bit(self):
        special = pytest.importorskip("scipy.special")
        p = _ndtri_oracle_inputs()
        assert p.size > 1_000_000
        ours = numeric.ndtri(p)
        theirs = special.ndtri(p)
        mismatched = np.flatnonzero(ours.view(np.int64)
                                    != theirs.view(np.int64))
        assert mismatched.size == 0, p[mismatched[:10]]

    def test_keeps_shape_and_maps_the_endpoints(self):
        p = np.array([[0.0, 1.0, 0.5], [-0.1, 1.1, np.nan]])
        out = numeric.ndtri(p)
        assert out.shape == (2, 3)
        assert out[0, 0] == -np.inf and out[0, 1] == np.inf
        assert out[0, 2] == 0.0
        assert np.isnan(out[1]).all()

    def test_is_increasing(self):
        assert (np.diff(numeric.ndtri(np.linspace(1e-300, 1.0, 100_001)))
                > 0).all()

    def test_is_odd_about_one_half(self):
        # Dyadic p keeps 1 - p exact, so both branches see the same y.
        p = np.arange(1, 513) / 1024.0
        assert np.array_equal(numeric.ndtri(1.0 - p), -numeric.ndtri(p))


class TestBrentq:
    def test_finds_a_root_within_tolerance(self):
        root = numeric.brentq(lambda x: x * x - 2.0, 0.0, 2.0)
        assert abs(root - math.sqrt(2.0)) <= 2e-12 + 4 * 2.0 * 2.3e-16

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            numeric.brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_bracket_end_on_a_root_returns_it(self):
        assert numeric.brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert numeric.brentq(lambda x: x - 3.0, 1.0, 3.0) == 3.0

    def test_gives_up_at_the_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(numeric, "_MAXITER", 2)
        with pytest.raises(RuntimeError, match="failed to converge"):
            numeric.brentq(lambda x: x * x - 2.0, 0.0, 2.0)

    def test_rejects_nonpositive_xtol(self):
        with pytest.raises(ValueError, match="xtol"):
            numeric.brentq(lambda x: x - 1.0, 0.0, 2.0, xtol=0.0)

    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            numeric.brentq(lambda x: math.nan if x > 0 else -1.0, -1.0, 2.0)

    def test_call_sites_match_scipy(self, monkeypatch):
        """Every root the synthetic-trace calibrations solve equals scipy's."""
        optimize = pytest.importorskip("scipy.optimize")
        solved = []

        def checked(f, a, b, **kwargs):
            ours = numeric.brentq(f, a, b, **kwargs)
            theirs = float(optimize.brentq(f, a, b, **kwargs))
            assert ours.hex() == theirs.hex()
            solved.append(ours)
            return ours

        monkeypatch.setattr(synthetic, "brentq", checked)
        for cov in (0.1, 0.5, 1.0, 2.0, 3.5, 5.0):
            for hot_share in (0.5, 0.8, 0.9, 0.99):
                synthetic.solve_hot_fraction(cov, hot_share)
        for blocks in (64, 1000, 4096):
            for cov in (0.3, 1.0, 3.0):
                for seed in (1, 2):
                    synthetic.lognormal_distribution(blocks, cov, seed=seed)
                    synthetic.zipf_distribution(blocks, target_cov=cov,
                                                seed=seed)
        assert len(solved) == 24 + 18 + 18

    def test_random_monotone_functions_match_scipy(self):
        optimize = pytest.importorskip("scipy.optimize")

        @given(root=st.floats(-100.0, 100.0),
               cubic=st.floats(0.0, 10.0),
               linear=st.floats(1e-3, 10.0),
               wiggle=st.floats(0.0, 5.0),
               left=st.floats(1e-6, 50.0),
               right=st.floats(1e-6, 50.0),
               decreasing=st.booleans(),
               swap=st.booleans(),
               xtol=st.sampled_from([2e-12, 1e-9, 1e-3]))
        @settings(max_examples=200, deadline=None)
        def check(root, cubic, linear, wiggle, left, right, decreasing,
                  swap, xtol):
            sign = -1.0 if decreasing else 1.0

            def f(x):
                d = x - root
                return sign * (cubic * d ** 3 + linear * d
                               + wiggle * math.atan(d))

            a, b = root - left, root + right
            if swap:
                a, b = b, a
            ours = numeric.brentq(f, a, b, xtol=xtol)
            theirs = float(optimize.brentq(f, a, b, xtol=xtol))
            assert ours.hex() == theirs.hex()

        check()


class TestLazyColumns:
    @pytest.mark.parametrize("num_blocks, max_order, seed",
                             [(1, 1, 0), (64, 10, 1), (257, 24, 5),
                              (1000, 3, 9)])
    def test_columns_match_the_eager_sample(self, num_blocks, max_order,
                                            seed):
        expected = sample_failure_times(num_blocks, 512, 1e3, 0.25,
                                        max_order, rng=seed)
        model = EnduranceModel(num_blocks=num_blocks, mean=1e3, cov=0.25,
                               max_order=max_order, seed=seed)
        for order in reversed(range(1, max_order + 1)):
            assert np.array_equal(model.nth_failure(order),
                                  expected[:, order - 1])
        assert np.array_equal(model.failure_times, expected)
        fresh = EnduranceModel(num_blocks=num_blocks, mean=1e3, cov=0.25,
                               max_order=max_order, seed=seed)
        assert np.array_equal(fresh.failure_times, expected)

    def test_ecp_converts_exactly_one_column(self, monkeypatch):
        converted = []

        def counting(p):
            converted.append(p.shape)
            return numeric.ndtri(p)

        monkeypatch.setattr(endurance_module, "ndtri", counting)
        model = EnduranceModel(num_blocks=128, mean=1e3, max_order=16, seed=2)
        assert converted == []
        ECP(model, 6)
        assert converted == [(128,)]
        model.uncorrectable_threshold(6)
        assert converted == [(128,)]

    def test_payg_extensions_match_the_full_matrix(self):
        model = EnduranceModel(num_blocks=64, mean=1e3, max_order=12, seed=9)
        payg = PAYG(model, avg_bits_per_group=200.0)
        rng = np.random.default_rng(0)
        for da in rng.integers(0, 64, 300):
            payg.try_extend(int(da))
        capacities = np.array([payg.capacity_of(da) for da in range(64)])
        assert capacities.max() >= 5
        full = sample_failure_times(64, 512, 1e3, 0.2, 12, rng=9)
        assert np.array_equal(payg.thresholds,
                              full[np.arange(64), capacities])

"""Tests for the trace substrate: generators, calibration, attacks, I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.traces import (
    BENCHMARKS,
    DistributionTrace,
    RequestStream,
    benchmark_names,
    benchmark_trace,
    birthday_paradox_attack,
    counts_cov,
    distribution_cov,
    hammer_attack,
    hotspot_distribution,
    lognormal_distribution,
    sequential_sweep,
    write_cov,
    zipf_distribution,
)
from repro.traces.synthetic import mixture_cov, solve_hot_fraction
from repro.workloads import TraceMeta, TraceReplay, write_records


class TestCovMath:
    def test_mixture_cov_closed_form(self):
        # cov = (q - h) / sqrt(h (1 - h))
        assert mixture_cov(0.1, 0.9) == pytest.approx(0.8 / np.sqrt(0.09))

    @given(cov=st.floats(min_value=0.5, max_value=20.0),
           q=st.floats(min_value=0.5, max_value=0.99))
    @settings(max_examples=50, deadline=None)
    def test_solver_inverts_formula(self, cov, q):
        try:
            h = solve_hot_fraction(cov, hot_share=q)
        except ConfigurationError:
            return  # unreachable target for this q: legitimate
        assert mixture_cov(h, q) == pytest.approx(cov, rel=1e-6)

    def test_counts_cov(self):
        assert counts_cov(np.array([1, 1, 1, 1])) == 0.0
        assert counts_cov(np.array([0, 0, 0, 4])) == pytest.approx(np.sqrt(3))

    def test_write_cov_from_stream(self):
        addresses = np.array([0, 0, 0, 1])
        assert write_cov(addresses, 4) > 1.0


class TestGenerators:
    @pytest.mark.parametrize("target", [2.0, 5.0, 12.0])
    def test_hotspot_hits_target_cov(self, target):
        trace = hotspot_distribution(4096, target, seed=1)
        assert distribution_cov(trace.probabilities) == \
            pytest.approx(target, rel=0.02)

    @pytest.mark.parametrize("target", [2.0, 5.0, 12.0, 30.0])
    def test_lognormal_hits_target_cov(self, target):
        trace = lognormal_distribution(4096, target, seed=1)
        assert distribution_cov(trace.probabilities) == \
            pytest.approx(target, rel=1e-3)

    def test_lognormal_impossible_cov_rejected(self):
        with pytest.raises(ConfigurationError):
            lognormal_distribution(16, 10.0, seed=1)

    def test_clustered_hot_set_is_contiguous(self):
        trace = hotspot_distribution(1024, 8.0, clustered=True, seed=2)
        hot = np.nonzero(trace.probabilities
                         > 1.5 / 1024)[0]
        # Contiguous modulo wraparound: the sorted gaps have at most one
        # jump greater than 1.
        gaps = np.diff(np.sort(hot))
        assert (gaps > 1).sum() <= 1

    def test_zipf_cov_calibration(self):
        trace = zipf_distribution(2048, target_cov=6.0, seed=3)
        assert distribution_cov(trace.probabilities) == \
            pytest.approx(6.0, rel=1e-3)

    def test_probabilities_normalized(self):
        for trace in (hotspot_distribution(512, 4.0, seed=1),
                      lognormal_distribution(512, 4.0, seed=1),
                      zipf_distribution(512, 1.0, seed=1)):
            assert trace.probabilities.sum() == pytest.approx(1.0)


class TestDistributionTrace:
    def test_next_write_in_range(self):
        trace = hotspot_distribution(256, 4.0, seed=1)
        for _ in range(100):
            assert 0 <= trace.next_write() < 256

    def test_batch_counts_sum(self):
        trace = hotspot_distribution(256, 4.0, seed=1)
        counts = trace.batch_counts(10_000)
        assert counts.sum() == 10_000

    def test_reset_reproduces_stream(self):
        trace = hotspot_distribution(256, 4.0, seed=1)
        first = [trace.next_write() for _ in range(50)]
        trace.reset()
        second = [trace.next_write() for _ in range(50)]
        assert first == second

    def test_restricted_to_folds_mass(self):
        trace = hotspot_distribution(256, 4.0, seed=1)
        folded = trace.restricted_to(100)
        assert folded.virtual_blocks == 100
        assert folded.probabilities.sum() == pytest.approx(1.0)

    def test_restricted_to_noop_when_fits(self):
        trace = hotspot_distribution(256, 4.0, seed=1)
        assert trace.restricted_to(256) is trace

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ConfigurationError):
            DistributionTrace(np.array([0.5, -0.5]))
        with pytest.raises(ConfigurationError):
            DistributionTrace(np.zeros(4))


class TestRequestStream:
    def test_addresses_and_flags_in_range(self):
        stream = zipf_distribution(256, seed=5).request_stream(0.3)
        for _ in range(200):
            address, is_write = stream.next_request()
            assert 0 <= address < 256
            assert isinstance(is_write, bool)

    def test_reset_reproduces_the_stream(self):
        stream = zipf_distribution(256, seed=5).request_stream(0.5)
        first = [stream.next_request() for _ in range(100)]
        stream.reset()
        second = [stream.next_request() for _ in range(100)]
        assert first == second

    def test_same_seed_same_stream(self):
        draws = []
        for _ in range(2):
            stream = zipf_distribution(128, seed=9).request_stream(0.5)
            draws.append([stream.next_request() for _ in range(64)])
        assert draws[0] == draws[1]

    def test_write_ratio_extremes(self):
        all_writes = zipf_distribution(64, seed=1).request_stream(1.0)
        assert all(all_writes.next_request()[1] for _ in range(50))
        no_writes = zipf_distribution(64, seed=1).request_stream(0.0)
        assert not any(no_writes.next_request()[1] for _ in range(50))

    def test_write_ratio_validation(self):
        with pytest.raises(ConfigurationError):
            zipf_distribution(64, seed=1).request_stream(-0.1)
        with pytest.raises(ConfigurationError):
            zipf_distribution(64, seed=1).request_stream(1.5)

    def test_from_any_distribution_trace(self):
        stream = hotspot_distribution(256, 4.0, seed=2).request_stream()
        assert isinstance(stream, RequestStream)
        address, _ = stream.next_request()
        assert 0 <= address < 256

    def test_skew_shows_in_address_concentration(self):
        # Zipf ranks are spread over a seeded permutation, so skew shows
        # up as concentration on few addresses, not as low-address mass.
        from collections import Counter
        stream = zipf_distribution(1024, exponent=1.2,
                                   seed=4).request_stream()
        addresses = [stream.next_request()[0] for _ in range(2000)]
        top = Counter(addresses).most_common(1)[0][1]
        assert top > (2000 / 1024) * 10  # far above the uniform share


class TestBenchmarks:
    def test_table1_rows_present(self):
        assert benchmark_names() == [
            "blackscholes", "streamcluster", "swaptions", "mg",
            "fft", "ocean", "radix", "water-spatial"]
        assert BENCHMARKS["mg"].write_cov == 40.87
        assert BENCHMARKS["ocean"].suite == "SPLASH-2"

    @pytest.mark.parametrize("name", ["ocean", "fft", "blackscholes"])
    def test_benchmark_trace_calibrated(self, name):
        trace = benchmark_trace(name, 4096, seed=1)
        assert distribution_cov(trace.probabilities) == \
            pytest.approx(BENCHMARKS[name].write_cov, rel=0.02)

    def test_mg_clamped_at_small_spaces(self):
        trace = benchmark_trace("mg", 256, seed=1)
        cov = distribution_cov(trace.probabilities)
        assert cov <= 0.8 * np.sqrt(255) + 1e-6

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigurationError):
            benchmark_trace("doom", 256)

    def test_lognormal_family_available(self):
        trace = benchmark_trace("ocean", 4096, seed=1, family="lognormal")
        assert distribution_cov(trace.probabilities) == \
            pytest.approx(4.15, rel=1e-3)


class TestAttacks:
    def test_hammer_concentrates_all_mass(self):
        trace = hammer_attack(1024, targets=4, seed=1)
        assert (trace.probabilities > 0).sum() == 4

    def test_birthday_has_background(self):
        trace = birthday_paradox_attack(1024, set_size=16, seed=1)
        assert (trace.probabilities > 0).all()
        assert distribution_cov(trace.probabilities) > 5.0

    def test_sequential_sweep_deterministic(self):
        trace = sequential_sweep(8, stride=3)
        assert [trace.next_write() for _ in range(5)] == [0, 3, 6, 1, 4]

    def test_sequential_batch_counts_uniform(self):
        trace = sequential_sweep(8)
        counts = trace.batch_counts(16)
        assert (counts == 2).all()


class TestFileIO:
    """Recorded traces replay through the canonical workload format; as a
    write trace, :class:`TraceReplay` walks the write records."""

    @staticmethod
    def store(path, addresses, virtual_blocks, flags=None):
        addresses = np.asarray(addresses)
        if flags is None:
            flags = np.ones_like(addresses)
        meta = TraceMeta(name="t", virtual_blocks=virtual_blocks,
                         requests=len(addresses), epoch_requests=4,
                         write_ratio=float(np.mean(flags)))
        write_records(path, np.column_stack([addresses, flags]), meta)
        return TraceReplay.load(path)

    def test_round_trip(self, tmp_path):
        addresses = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        trace = self.store(tmp_path / "t.trace", addresses, 16)
        assert trace.virtual_blocks == 16
        assert [trace.next_write() for _ in range(8)] == addresses.tolist()

    def test_wraps_around(self, tmp_path):
        trace = self.store(tmp_path / "t.trace", [1, 2], 4)
        assert [trace.next_write() for _ in range(5)] == [1, 2, 1, 2, 1]

    def test_batch_counts_match_stream(self, tmp_path):
        trace = self.store(tmp_path / "t.trace", [0, 0, 1, 3], 4)
        counts = trace.batch_counts(8)
        assert counts.tolist() == [4, 2, 0, 2]

    def test_write_walk_skips_reads(self, tmp_path):
        trace = self.store(tmp_path / "t.trace", [0, 1, 2, 3], 4,
                           flags=[1, 0, 1, 0])
        assert [trace.next_write() for _ in range(3)] == [0, 2, 0]
        assert trace.batch_counts(3).tolist() == [1, 0, 2, 0]
        # The request cursor is independent of the write cursor.
        assert trace.next_request() == (0, True)

    def test_read_only_trace_has_no_write_walk(self, tmp_path):
        trace = self.store(tmp_path / "t.trace", [0, 1], 4, flags=[0, 0])
        with pytest.raises(ConfigurationError):
            trace.batch_counts(4)
        with pytest.raises(ConfigurationError):
            trace.next_write()

    def test_restricted_to_folds_addresses(self, tmp_path):
        trace = self.store(tmp_path / "t.trace", [0, 5, 7, 2], 8)
        assert trace.restricted_to(8) is trace
        folded = trace.restricted_to(3)
        assert folded.virtual_blocks == 3
        assert [folded.next_write() for _ in range(4)] == [0, 2, 1, 2]

    def test_rejects_out_of_range_addresses(self, tmp_path):
        with pytest.raises(ConfigurationError):
            self.store(tmp_path / "t", [99], 4)

    def test_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ConfigurationError):
            TraceReplay.load(path)

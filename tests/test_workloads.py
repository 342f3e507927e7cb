"""Unit tests for the workload package: generators, trace files, shards,
FTL write-amplification accounting, the CLI, and the cross-stack
equivalence pin (one recorded trace drives serve and array with
byte-identical per-shard address sequences)."""

import gc
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.array.decoder import InterleavedDecoder
from repro.array.__main__ import main as array_main
from repro.array.__main__ import trace_digest_lines
from repro.array.engine import ArrayConfig
from repro.balance import BalancedDecoder
from repro.errors import ConfigurationError
from repro.experiments.common import build_chip, scaled_parameters
from repro.serve import ServeConfig, ServiceEngine
from repro.sim import FastConfig, FastEngine
from repro.wl import StartGap
from repro.workloads import (CHUNK, FTLConfig, PageMappingFTL, Phase,
                             PhasedWorkload, SequentialWorkload, TraceMeta,
                             TraceReplay, canonical_bytes,
                             check_canonical, convert_msr, fold_addresses,
                             per_shard_streams, phase_shifting_hotspot,
                             read_meta, read_msr_csv, record_workload,
                             shard_digests, stream_digest, uniform_workload,
                             write_records, zipf_workload)
from repro.workloads.__main__ import main as workloads_main
from repro.workloads.convert import parse_msr_row

GOLDEN = Path(__file__).parent / "data" / "golden_workload.trace"
MSR_SAMPLE = Path(__file__).parent / "data" / "msr_sample.csv"


# ------------------------------------------------------------- generators


class TestGenerators:
    def test_take_shape_and_dtype(self):
        records = uniform_workload(32, seed=1).take(100)
        assert records.shape == (100, 2)
        assert records.dtype == np.int64
        assert records[:, 0].min() >= 0 and records[:, 0].max() < 32
        assert set(np.unique(records[:, 1])) <= {0, 1}

    def test_phase_validation(self):
        with pytest.raises(ConfigurationError):
            Phase(0, np.ones(4))
        with pytest.raises(ConfigurationError):
            Phase(10, np.ones(4), write_ratio=1.5)
        with pytest.raises(ConfigurationError):
            Phase(10, np.zeros(4))

    def test_phased_workload_needs_phases(self):
        with pytest.raises(ConfigurationError):
            PhasedWorkload([])

    def test_phases_must_share_the_space(self):
        with pytest.raises(ConfigurationError):
            PhasedWorkload([Phase(10, np.ones(4)), Phase(10, np.ones(8))])

    def test_reset_replays_identically(self):
        workload = zipf_workload(64, seed=5)
        first = workload.take(300)
        workload.reset()
        assert np.array_equal(first, workload.take(300))

    def test_then_preserves_the_prefix(self):
        base = phase_shifting_hotspot(64, phases=2, phase_requests=200,
                                      seed=9)
        extra = phase_shifting_hotspot(64, phases=1, phase_requests=100,
                                       seed=9)
        prefix = base.take(400)
        combined = PhasedWorkload(base.phases + extra.phases,
                                  name=base.name, seed=9)
        assert np.array_equal(prefix, combined.take(400))

    def test_cycle_wraps_with_fresh_streams(self):
        workload = uniform_workload(16, requests=50, seed=2)
        two_cycles = workload.take(100)
        # The second cycle draws from a different derived stream.
        assert not np.array_equal(two_cycles[:50], two_cycles[50:])

    def test_sequential_addresses_are_arithmetic(self):
        workload = SequentialWorkload(10, start=3, stride=4, seed=1)
        addresses = workload.take(25)[:, 0]
        expected = (3 + 4 * np.arange(25)) % 10
        assert np.array_equal(addresses, expected)

    def test_sequential_rejects_zero_stride(self):
        with pytest.raises(ConfigurationError):
            SequentialWorkload(10, stride=0)

    def test_hotspot_rotates_per_phase(self):
        workload = phase_shifting_hotspot(100, phases=4,
                                          phase_requests=2000,
                                          hot_share=1.0, seed=3)
        assert [phase.requests for phase in workload.phases] == [2000] * 4
        hot_sets = [set(np.flatnonzero(phase.probabilities))
                    for phase in workload.phases]
        assert all(a != b for a, b in zip(hot_sets, hot_sets[1:]))

    def test_hotspot_validation(self):
        with pytest.raises(ConfigurationError):
            phase_shifting_hotspot(100, phases=0)
        with pytest.raises(ConfigurationError):
            phase_shifting_hotspot(100, hot_fraction=1.0)

    def test_negative_take_rejected(self):
        with pytest.raises(ConfigurationError):
            uniform_workload(8).take(-1)


# ------------------------------------------------------------- trace files


class TestTraceMeta:
    def test_encode_decode_roundtrip(self):
        meta = TraceMeta(name="t", virtual_blocks=8, requests=10,
                         epoch_requests=4, write_ratio=0.5,
                         extra={"seed": 7})
        assert TraceMeta.decode(meta.encode()) == meta

    def test_epochs_is_a_ceiling(self):
        meta = TraceMeta(name="t", virtual_blocks=8, requests=10,
                         epoch_requests=4, write_ratio=0.5)
        assert meta.epochs == 3

    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError):
            TraceMeta(name="t", virtual_blocks=0, requests=1,
                      epoch_requests=1, write_ratio=0.5)
        with pytest.raises(ConfigurationError):
            TraceMeta(name="t", virtual_blocks=1, requests=1,
                      epoch_requests=1, write_ratio=2.0)
        with pytest.raises(ConfigurationError):
            TraceMeta(name="t", virtual_blocks=1, requests=1,
                      epoch_requests=1, write_ratio=0.5,
                      extra={"requests": 9})

    def test_rejects_bad_headers(self):
        with pytest.raises(ConfigurationError):
            TraceMeta.decode("not a header")
        with pytest.raises(ConfigurationError):
            TraceMeta.decode("#REPRO-WORKLOAD v9 {}")
        with pytest.raises(ConfigurationError):
            TraceMeta.decode('#REPRO-WORKLOAD v1 {"name":"x"}')
        with pytest.raises(ConfigurationError):
            TraceMeta.decode("#REPRO-WORKLOAD v1 {broken")


class TestTraceFile:
    def _record(self, tmp_path, **kwargs):
        path = tmp_path / "w.trace"
        workload = zipf_workload(64, requests=200, seed=13)
        meta = record_workload(path, workload, 200, epoch_requests=50,
                               **kwargs)
        return path, meta

    def test_record_then_load_roundtrip(self, tmp_path):
        path, meta = self._record(tmp_path)
        replay = TraceReplay.load(path)
        assert replay.meta == meta
        fresh = zipf_workload(64, requests=200, seed=13)
        assert np.array_equal(replay.records, fresh.take(200))

    def test_recorded_file_is_canonical(self, tmp_path):
        path, _ = self._record(tmp_path)
        assert check_canonical(path)

    def test_mutated_file_is_not_canonical(self, tmp_path):
        path, _ = self._record(tmp_path)
        # Same logical content, different bytes (CRLF line ending).
        data = path.read_bytes().replace(b"\n", b"\r\n", 1)
        path.write_bytes(data)
        assert not check_canonical(path)

    def test_read_all_detects_truncation(self, tmp_path):
        path, _ = self._record(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-5]))
        with pytest.raises(ConfigurationError):
            TraceReplay.load(path)

    def test_write_records_validates(self, tmp_path):
        meta = TraceMeta(name="t", virtual_blocks=4, requests=2,
                         epoch_requests=2, write_ratio=0.5)
        with pytest.raises(ConfigurationError):
            write_records(tmp_path / "bad.trace",
                          np.array([[9, 1], [0, 0]]), meta)
        with pytest.raises(ConfigurationError):
            write_records(tmp_path / "bad.trace",
                          np.array([[1, 2], [0, 0]]), meta)
        with pytest.raises(ConfigurationError):
            canonical_bytes(meta, np.array([[1, 1]]))

    def test_read_meta(self, tmp_path):
        path, meta = self._record(tmp_path, extra={"kind": "zipf"})
        parsed = read_meta(path)
        assert parsed == meta
        assert parsed.extra["kind"] == "zipf"

    @pytest.mark.parametrize("body", [
        "not a trace\n",
        TraceMeta(name="t", virtual_blocks=4, requests=1, epoch_requests=1,
                  write_ratio=1.0).encode() + "\n0,W\n",
        TraceMeta(name="t", virtual_blocks=4, requests=1, epoch_requests=1,
                  write_ratio=1.0).encode() + "\n0,W\n#EPOCH 0\n0,W\n",
    ], ids=["bad-header", "no-epoch-0", "record-before-epoch-0"])
    def test_failed_open_closes_the_file(self, tmp_path, body):
        path = tmp_path / "bad.trace"
        path.write_text(body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigurationError):
                TraceReplay.load(path)
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]


class TestTraceReplay:
    def test_wrap_around(self, tmp_path):
        path = tmp_path / "w.trace"
        record_workload(path, uniform_workload(8, seed=1), 10,
                        epoch_requests=10)
        replay = TraceReplay.load(path)
        doubled = replay.take(20)
        assert np.array_equal(doubled[:10], doubled[10:])

    def test_write_distribution_counts_only_writes(self, tmp_path):
        path = tmp_path / "w.trace"
        record_workload(path, uniform_workload(8, write_ratio=1.0, seed=1),
                        30, epoch_requests=30)
        replay = TraceReplay.load(path)
        counts = replay.write_distribution()
        assert counts.sum() == 30
        assert len(replay.write_addresses()) == 30

    def test_all_read_trace_has_no_write_distribution(self, tmp_path):
        path = tmp_path / "r.trace"
        record_workload(path, uniform_workload(8, write_ratio=0.0, seed=1),
                        10, epoch_requests=10)
        with pytest.raises(ConfigurationError):
            TraceReplay.load(path).write_distribution()

    def test_fast_engine_folds_an_oversized_write_replay(self):
        # fig_wa's path: the FTL's program stream covers the whole chip,
        # the engine's page pool is smaller, so the replay folds.
        params = scaled_parameters("tiny")
        addresses = np.arange(params.num_blocks, dtype=np.int64)[::-1]
        meta = TraceMeta(name="programs", virtual_blocks=params.num_blocks,
                         requests=len(addresses),
                         epoch_requests=len(addresses), write_ratio=1.0)
        replay = TraceReplay(
            np.column_stack([addresses, np.ones_like(addresses)]), meta)
        engine = FastEngine(build_chip(params), StartGap(params.num_blocks),
                            replay, FastConfig(seed=1))
        pool = engine.ospool.virtual_blocks
        assert pool < params.num_blocks
        assert engine.trace.virtual_blocks == pool
        walked = [engine.trace.next_write() for _ in range(len(addresses))]
        assert walked == (addresses % pool).tolist()


# -------------------------------------------------------------------- FTL


class TestFTL:
    def make(self, policy="greedy"):
        return PageMappingFTL(FTLConfig(logical_pages=96, physical_blocks=8,
                                        pages_per_block=32,
                                        gc_policy=policy))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FTLConfig(logical_pages=256, physical_blocks=5,
                      pages_per_block=64)  # below the OP floor
        with pytest.raises(ConfigurationError):
            FTLConfig(logical_pages=16, physical_blocks=4,
                      pages_per_block=16, gc_policy="lru")
        with pytest.raises(ConfigurationError):
            FTLConfig(logical_pages=16, physical_blocks=4,
                      pages_per_block=16, gc_free_blocks=1)

    def test_over_provisioning(self):
        config = FTLConfig(logical_pages=96, physical_blocks=8,
                           pages_per_block=32)
        assert config.physical_pages == 256
        assert config.over_provisioning == pytest.approx(256 / 96 - 1)

    def test_program_count_identity(self):
        ftl = self.make()
        rng = np.random.default_rng(1)
        ftl.replay(rng.integers(0, 96, size=5000))
        assert len(ftl.programmed) == ftl.host_writes + ftl.gc_writes
        assert ftl.host_writes == 5000
        assert ftl.wa_ratio() == pytest.approx(
            len(ftl.programmed) / 5000)
        assert ftl.wa_ratio() > 1.0

    def test_mapping_stays_consistent(self):
        ftl = self.make("cost-benefit")
        rng = np.random.default_rng(2)
        ftl.replay(rng.integers(0, 96, size=3000))
        mapped = ftl.l2p[ftl.l2p >= 0]
        # L2P and P2L are inverse on the live pages.
        assert np.array_equal(
            ftl.p2l[mapped], np.flatnonzero(ftl.l2p >= 0))
        # Valid counters match the live pages per block.
        per_block = np.bincount(mapped // 32, minlength=8)
        assert np.array_equal(per_block, ftl.valid)

    def test_policies_select_different_victims(self):
        streams = {}
        addresses = np.concatenate([
            np.zeros(2000, dtype=np.int64),  # one scorching page
            np.arange(96).repeat(30)])
        for policy in ("greedy", "cost-benefit"):
            ftl = self.make(policy)
            ftl.replay(addresses)
            streams[policy] = (ftl.gc_writes, tuple(ftl.programmed))
        assert streams["greedy"] != streams["cost-benefit"]

    def test_host_write_range_check(self):
        with pytest.raises(ConfigurationError):
            self.make().host_write(96)

    def test_replay_is_deterministic(self):
        addresses = np.random.default_rng(3).integers(0, 96, size=4000)
        a = self.make().replay(addresses)
        b = self.make().replay(addresses)
        assert np.array_equal(a, b)

    def test_note_epoch_series_sums_to_totals(self):
        ftl = self.make()
        addresses = np.random.default_rng(4).integers(0, 96, size=2048)
        ftl.replay(addresses, epoch_writes=512)
        assert len(ftl.epoch_series) == 4
        assert sum(r["host_writes"] for r in ftl.epoch_series) == 2048
        assert sum(r["gc_writes"] for r in ftl.epoch_series) \
            == ftl.gc_writes
        assert ftl.replay(np.empty(0, dtype=np.int64)).size == 0

    def test_replay_rejects_bad_epoch(self):
        with pytest.raises(ConfigurationError):
            self.make().replay(np.zeros(4, dtype=np.int64), epoch_writes=0)


# ------------------------------------------------------------------ shards


class TestShards:
    def test_partition_preserves_order_and_mass(self):
        decoder = InterleavedDecoder(4, 16)
        addresses = np.arange(64, dtype=np.int64)[::-1]
        streams = per_shard_streams(addresses, decoder)
        assert sum(len(s) for s in streams) == 64
        for stream in streams:
            assert len(stream) == 16

    def test_rejects_out_of_range(self):
        decoder = InterleavedDecoder(2, 8)
        with pytest.raises(ConfigurationError):
            per_shard_streams(np.array([99]), decoder)
        with pytest.raises(ConfigurationError):
            per_shard_streams(np.zeros((2, 2), dtype=np.int64), decoder)

    def test_digest_is_content_addressed(self):
        a = stream_digest(np.array([1, 2, 3]))
        assert a == stream_digest(np.array([1, 2, 3]))
        assert a != stream_digest(np.array([3, 2, 1]))

    def test_shard_digests_table(self):
        decoder = InterleavedDecoder(2, 8)
        digests = shard_digests(np.arange(16, dtype=np.int64), decoder)
        assert set(digests) == {0, 1}
        streams = per_shard_streams(np.arange(16, dtype=np.int64), decoder)
        assert digests[0] == stream_digest(streams[0])


# ----------------------------------------------------------------- golden


class TestGoldenFixture:
    """The stored fixture pins the format and the generator bytes.

    Regenerate deliberately with::

        PYTHONPATH=src python -m repro.workloads record --kind zipf \\
            --blocks 256 --requests 1024 --seed 2014 --name golden \\
            --epoch 256 --out tests/data/golden_workload.trace
    """

    def test_fixture_is_canonical(self):
        assert check_canonical(GOLDEN)

    def test_generator_reproduces_the_fixture_byte_identically(
            self, tmp_path):
        out = tmp_path / "regen.trace"
        code = workloads_main([
            "record", "--kind", "zipf", "--blocks", "256",
            "--requests", "1024", "--seed", "2014", "--name", "golden",
            "--epoch", "256", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_fixture_meta(self):
        meta = read_meta(GOLDEN)
        assert meta.name == "golden"
        assert meta.virtual_blocks == 256
        assert meta.requests == 1024
        assert meta.extra == {"kind": "zipf", "seed": 2014}


# -------------------------------------------------------------------- CLI


class TestCli:
    def test_generate_text_and_json(self, capsys):
        assert workloads_main(["generate", "--kind", "uniform", "--blocks",
                               "16", "--requests", "64", "--head", "3"]) == 0
        out = capsys.readouterr().out
        assert "64 requests over 16 blocks" in out
        assert workloads_main(["generate", "--kind", "sequential",
                               "--blocks", "16", "--requests", "64",
                               "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["requests"] == 64

    def test_record_replay_describe(self, tmp_path, capsys):
        out = tmp_path / "cli.trace"
        assert workloads_main(["record", "--kind", "hotshift", "--blocks",
                               "64", "--requests", "256", "--epoch", "64",
                               "--out", str(out)]) == 0
        capsys.readouterr()
        assert workloads_main(["replay", str(out), "--check",
                               "--digests", "--shards", "2"]) == 0
        text = capsys.readouterr().out
        assert "canonical: ok" in text and "s0:" in text
        assert workloads_main(["describe", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["requests"] == 256

    def test_replay_epoch_window(self, tmp_path, capsys):
        out = tmp_path / "cli.trace"
        workloads_main(["record", "--blocks", "64", "--requests", "256",
                        "--epoch", "64", "--out", str(out)])
        capsys.readouterr()
        assert workloads_main(["replay", str(out), "--epoch", "3",
                               "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["requests"] == 64

    def test_non_canonical_file_fails_check(self, tmp_path, capsys):
        out = tmp_path / "cli.trace"
        workloads_main(["record", "--blocks", "16", "--requests", "32",
                        "--out", str(out)])
        data = out.read_text()
        out.write_text(data + "\n")  # trailing blank line
        capsys.readouterr()
        assert workloads_main(["replay", str(out), "--check"]) == 2

    def test_epoch_out_of_range_is_exit_2(self, tmp_path, capsys):
        out = tmp_path / "cli.trace"
        workloads_main(["record", "--blocks", "16", "--requests", "32",
                        "--out", str(out)])
        capsys.readouterr()
        assert workloads_main(["replay", str(out), "--epoch", "99"]) == 2

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.trace"
        assert workloads_main(["describe", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------- MSR conversion


class TestConvert:
    def test_row_spans_every_touched_block(self):
        # 8 KiB starting mid-block at 4 KiB granularity: 3 blocks.
        requests = parse_msr_row("1,host,0,6144,8192,Write", 1, 4096)
        assert requests == [(1, True), (2, True), (3, True)]
        requests = parse_msr_row("1,host,0,4096,4096,Read", 1, 4096)
        assert requests == [(1, False)]

    def test_size_zero_touches_the_offset_block(self):
        assert parse_msr_row("1,h,0,8192,0,Read", 1, 4096) == [(2, False)]

    def test_tag_spellings(self):
        for tag in ("W", "write", "WS"):
            assert parse_msr_row(f"1,h,0,0,1,{tag}", 1, 4096)[0][1] is True
        for tag in ("R", "Read", "rs"):
            assert parse_msr_row(f"1,h,0,0,1,{tag}", 1, 4096)[0][1] is False

    def test_malformed_rows_are_rejected(self):
        with pytest.raises(ConfigurationError, match="6 CSV fields"):
            parse_msr_row("1,2,3", 7, 4096)
        with pytest.raises(ConfigurationError, match="must be integers"):
            parse_msr_row("1,h,0,abc,1,R", 7, 4096)
        with pytest.raises(ConfigurationError, match="negative"):
            parse_msr_row("1,h,0,-1,1,R", 7, 4096)
        with pytest.raises(ConfigurationError, match="unknown request"):
            parse_msr_row("1,h,0,0,1,flush", 7, 4096)

    def test_read_skips_header_comments_and_blanks(self, tmp_path):
        src = tmp_path / "t.csv"
        src.write_text("timestamp,host,disk,offset,size,type\n"
                       "# a comment\n\n"
                       "100,h,0,0,4096,Write\n"
                       "101,h,0,4096,4096,Read\n")
        records = read_msr_csv(src)
        assert records.tolist() == [[0, 1], [1, 0]]

    def test_empty_file_is_an_error(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("# nothing here\n")
        with pytest.raises(ConfigurationError, match="no requests"):
            read_msr_csv(src)

    def test_fold_wraps_or_sizes_to_max(self):
        records = np.array([[5, 1], [1029, 0]], dtype=np.int64)
        folded, blocks = fold_addresses(records, 1024)
        assert blocks == 1024
        assert folded[:, 0].tolist() == [5, 5]
        sized, blocks = fold_addresses(records, None)
        assert blocks == 1030
        assert sized[:, 0].tolist() == [5, 1029]
        with pytest.raises(ConfigurationError, match="positive"):
            fold_addresses(records, 0)

    def test_fixture_converts_to_the_pinned_shape(self, tmp_path):
        out = tmp_path / "msr.trace"
        meta = convert_msr(MSR_SAMPLE, out, block_bytes=4096, blocks=1024)
        assert meta.requests == 93
        assert meta.virtual_blocks == 1024
        assert meta.write_ratio == pytest.approx(0.710, abs=5e-4)
        assert meta.extra == {"source": "msr-csv", "block_bytes": 4096,
                              "folded": True}
        assert check_canonical(out)
        replay = TraceReplay.load(out)
        assert len(replay.records) == 93

    def test_conversion_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        convert_msr(MSR_SAMPLE, a, blocks=1024)
        convert_msr(MSR_SAMPLE, b, blocks=1024)
        assert a.read_bytes() == b.read_bytes()

    def test_converted_trace_replays_through_the_array(self, tmp_path):
        out = tmp_path / "msr.trace"
        # The array exposes whole pages below the gap block, so fold
        # the trace into exactly its software-visible global space.
        config = ArrayConfig(num_shards=4, shard_blocks=256,
                             page_blocks=64)
        convert_msr(MSR_SAMPLE, out, blocks=config.global_blocks)
        result = tmp_path / "array.json"
        code = array_main(["--shards", "4", "--shard-blocks", "256",
                           "--page-blocks", "64", "--mean", "50",
                           "--batch-writes", "93", "--seed", "3",
                           "--workload", "trace", "--trace", str(out),
                           "--quiet", "--json", str(result)])
        assert code == 0
        report = json.loads(result.read_text())["report"]
        assert report["total_writes"] > 0

    def test_convert_cli(self, tmp_path, capsys):
        out = tmp_path / "msr.trace"
        code = workloads_main(["convert", str(MSR_SAMPLE), "--out",
                               str(out), "--blocks", "1024", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["requests"] == 93
        assert payload["meta"]["extra"]["folded"] is True
        assert workloads_main(["replay", str(out), "--check"]) == 0
        assert "canonical: ok" in capsys.readouterr().out

    def test_convert_cli_missing_file_is_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = workloads_main(["convert", str(missing), "--out",
                               str(tmp_path / "o.trace")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


# ------------------------------------------- serve / array equivalence


class TestServeArrayEquivalence:
    """One recorded trace drives both stacks with byte-identical
    per-shard address sequences — the PR's acceptance pin."""

    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("equiv") / "shared.trace"
        config = self.serve_config(path)
        workload = zipf_workload(config.global_blocks, requests=400,
                                 write_ratio=0.6, name="equiv", seed=21)
        record_workload(path, workload, 400, epoch_requests=100)
        return path

    @staticmethod
    def serve_config(trace_path):
        return ServeConfig(num_shards=4, shard_blocks=64, page_blocks=8,
                           clients=4, total_requests=400,
                           workload="trace", trace_path=str(trace_path),
                           mean_endurance=120.0, seed=7)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_serve_issues_the_file_order_per_shard(self, trace_path, jobs):
        engine = ServiceEngine(self.serve_config(trace_path))
        engine.run(jobs=jobs)
        issued = np.array([a for a, _w in engine.issue_log],
                          dtype=np.int64)
        replay = TraceReplay.load(trace_path)
        assert len(issued) == 400
        assert shard_digests(issued, engine.decoder) == \
            shard_digests(replay.records[:, 0], engine.decoder)

    def test_array_replays_the_same_file(self, trace_path, tmp_path):
        config = ArrayConfig(num_shards=4, shard_blocks=72, page_blocks=8,
                             mean_endurance=120.0, seed=7)
        assert config.software_blocks == 64  # same space as serve
        decoder = InterleavedDecoder(4, config.software_blocks,
                                     page_blocks=8)
        out = tmp_path / "array.json"
        code = array_main(["--shards", "4", "--shard-blocks", "72",
                           "--page-blocks", "8", "--mean", "120",
                           "--max-writes", "2000", "--workload", "trace",
                           "--trace", str(trace_path), "--quiet",
                           "--json", str(out)])
        assert code == 0
        replay = TraceReplay.load(trace_path)
        expected = replay.write_distribution()
        census = json.loads(out.read_text())["report"]["shards"]
        assert [shard["share"] for shard in census] == pytest.approx(
            BalancedDecoder(decoder).shard_masses(
                expected / expected.sum()).tolist())
        lines = trace_digest_lines(str(trace_path), config)
        digests = shard_digests(replay.records[:, 0], decoder)
        assert lines == [f"  trace s{sid}: {digest}"
                         for sid, digest in digests.items()]

    def test_geometry_mismatch_is_rejected_everywhere(self, trace_path,
                                                       capsys):
        code = array_main(["--shards", "2", "--shard-blocks", "72",
                           "--page-blocks", "8", "--workload", "trace",
                           "--trace", str(trace_path)])
        assert code == 2
        assert "trace covers 256 blocks, the decoder decodes 128" in \
            capsys.readouterr().err
        config = ServeConfig(num_shards=2, shard_blocks=8, page_blocks=4,
                             clients=2, total_requests=10,
                             workload="trace", trace_path=str(trace_path),
                             mean_endurance=120.0, seed=7)
        with pytest.raises(ConfigurationError):
            ServiceEngine(config)

    def test_trace_config_requires_a_path(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(num_shards=2, shard_blocks=8, workload="trace")

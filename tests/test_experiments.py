"""Tests for the experiment harness: every table/figure runner at tiny scale,
with shape assertions matching the paper's qualitative claims."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    EXPERIMENTS,
    attacks,
    fig5,
    fig6,
    fig7,
    fig8,
    fig_array,
    fig_wa,
    table1,
    table2,
)
from repro.experiments.__main__ import build_parser, main
from repro.experiments.common import (
    SYSTEM_CONFIGS,
    build_engine,
    build_lls_engine,
    scaled_parameters,
)
from repro.experiments.report import (
    format_number,
    format_percent,
    format_series,
    format_table,
    sparkline,
)


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]],
                            title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_sparkline_range(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] == " " and line[-1] == "@"

    def test_sparkline_clamps(self):
        assert sparkline([-1.0, 2.0]) == " @"

    def test_format_series_empty(self):
        assert "(empty)" in format_series("x", [], [])

    def test_number_and_percent(self):
        assert format_number(1234567) == "1,234,567"
        assert format_percent(0.125) == "12.5%"


class TestCommon:
    def test_scaled_parameters(self):
        params = scaled_parameters("tiny")
        assert params.num_blocks == 1024
        with pytest.raises(Exception):
            scaled_parameters("huge")

    def test_all_system_configs_buildable(self):
        params = scaled_parameters("tiny")
        for name, kwargs in SYSTEM_CONFIGS.items():
            engine = build_engine(params, "ocean", max_writes=1_000,
                                  **kwargs)
            summary = engine.run()
            assert summary.lifetime_writes >= 0, name

    def test_lls_engine_buildable(self):
        params = scaled_parameters("tiny")
        engine = build_lls_engine(params, "ocean", max_writes=1_000)
        engine.run()


class TestTable1:
    def test_covs_match_paper_where_realizable(self):
        result = table1.run(scale="small", sample_writes=300_000)
        data = table1.as_dict(result)
        for name, row in data.items():
            if row["paper"] < 20:  # mg may be clamped at small scales
                assert row["calibrated"] == pytest.approx(row["paper"],
                                                          rel=0.03), name

    def test_render_contains_all_benchmarks(self):
        result = table1.run(scale="tiny", sample_writes=100_000)
        text = table1.render(result)
        for name in ("ocean", "mg", "blackscholes"):
            assert name in text


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5.run(scale="tiny",
                        benchmarks=["ocean", "fft", "mg"])

    def test_wlr_always_wins(self, result):
        for row in result.rows:
            assert row.wlr_lifetime > row.sg_lifetime, row.benchmark

    def test_baseline_anticorrelated_with_cov(self, result):
        lifetimes = [r.sg_lifetime for r in result.rows]  # CoV-sorted
        assert lifetimes[0] >= lifetimes[-1]

    def test_wlr_flattens_variation(self, result):
        sg = [r.sg_lifetime for r in result.rows]
        wlr = [r.wlr_lifetime for r in result.rows]
        assert (max(sg) / max(min(sg), 1)) > (max(wlr) / max(min(wlr), 1))

    def test_render(self, result):
        assert "Figure 5" in fig5.render(result)


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6.run(scale="tiny", benchmarks=["ocean"],
                        systems=["ECP6", "ECP6-SG", "ECP6-SG-WLR",
                                 "PAYG-SG-WLR"])

    def test_wlr_curve_dominates(self, result):
        milestones = fig6.as_dict(result)["ocean"]
        assert milestones["ECP6-SG-WLR"] > milestones["ECP6-SG"]
        assert milestones["ECP6-SG-WLR"] > milestones["ECP6"]

    def test_render(self, result):
        text = fig6.render(result)
        assert "Figure 6" in text
        assert "ECP6-SG-WLR" in text


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7.run(scale="tiny", benchmarks=["mg"],
                        reserves=[0.05, 0.15])

    def test_wlr_dominates_freep(self, result):
        milestones = fig7.as_dict(result)["mg"]
        wlr = milestones["WL-Reviver"]
        assert all(wlr >= value for key, value in milestones.items()
                   if key != "WL-Reviver" and value is not None)

    def test_bigger_reserve_postpones_cliff_for_mg(self, result):
        milestones = fig7.as_dict(result)["mg"]
        assert milestones["FREE-p 15%"] > milestones["FREE-p 5%"]

    def test_wlr_starts_at_full_capacity(self, result):
        for curve in result.curves:
            if curve.reserve is None:
                assert curve.series.points[0].usable == pytest.approx(1.0)
            else:
                assert curve.series.points[0].usable == pytest.approx(
                    1.0 - curve.reserve, abs=0.02)

    def test_render(self, result):
        assert "Figure 7" in fig7.render(result)


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return fig8.run(scale="tiny", benchmarks=["ocean"])

    def test_ordering_wlr_lls_baseline(self, result):
        milestones = fig8.as_dict(result)["ocean"]
        assert milestones["WL-Reviver"] > milestones["LLS"]
        assert milestones["LLS"] > milestones["ECP6-SG"]

    def test_render(self, result):
        assert "Figure 8" in fig8.render(result)


class TestFigurePins:
    """Digests of the tiny-scale fig5-fig8 rows at seed 1.

    Every lifetime figure runs its cells through ``FastEngine.run``; any
    drift in the engine, the chip or the grid plumbing changes a digest.
    """

    PINS = {
        "fig5": "23603702334de3c60dbada72584b7815"
                "1915278f609a901388f71f5ec2aacbea",
        "fig6": "0efd895c129b33771e5e42d99cf0209b"
                "f1c1513d1df701290779d2ed1c57485c",
        "fig7": "38bda4bfedff2284d73ff7f4af77f47f"
                "e909ccbc2dce43bec16bb4aabe3ae6e9",
        "fig8": "9b65e0492d4e6395588272c9f7cc14a8"
                "82c5d86fec3d3d05dbcdbb189cc03c79",
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_rows_are_pinned(self, name):
        import hashlib
        import json
        module = EXPERIMENTS[name]
        data = module.as_dict(module.run(scale="tiny", seed=1))
        blob = json.dumps(data, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == self.PINS[name]


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2.run(scale="tiny", benchmarks=["ocean"],
                          ratios=[0.10, 0.30], samples=20_000)

    def test_access_times_near_one_with_cache(self, result):
        for row in result.rows:
            assert 1.0 <= row.avg_access_time < 1.2, row

    def test_wlr_more_usable_than_lls(self, result):
        data = table2.as_dict(result)
        for ratio, systems in data.items():
            wlr = systems["WL-Reviver"]["ocean"]["usable"]
            lls = systems["LLS"]["ocean"]["usable"]
            assert wlr >= lls, ratio

    def test_usable_declines_with_failures(self, result):
        data = table2.as_dict(result)
        assert data["10%"]["WL-Reviver"]["ocean"]["usable"] > \
            data["30%"]["WL-Reviver"]["ocean"]["usable"]

    def test_render(self, result):
        assert "Table II" in table2.render(result)


class TestAttacks:
    @pytest.fixture(scope="class")
    def result(self):
        return attacks.run(scale="tiny")

    def test_revival_beats_frozen_under_every_attack(self, result):
        for row in result.rows:
            assert row.revived_lifetime > row.frozen_lifetime, row.attack
            assert row.gain >= 0.5, row.attack

    def test_render_and_dict(self, result):
        text = attacks.render(result)
        assert "Attack resilience" in text
        data = attacks.as_dict(result)
        assert "hammer-8" in data


class TestFigArray:
    @pytest.fixture(scope="class")
    def result(self):
        return fig_array.run(scale="tiny", benchmarks=["attack"],
                             shard_counts=[1, 2], seed=3)

    def test_degraded_arrays_run_to_exhaustion(self, result):
        table = fig_array.as_dict(result)["attack"]
        for shards in (1, 2):
            row = table[f"{shards}x"]
            assert row["dead_shards"] == shards
            assert row["stop"].startswith("exhausted")
            assert row["total_writes"] > 0
            assert row["writes_to_50pct_usable"] is not None

    def test_render(self, result):
        text = fig_array.render(result)
        assert "Array scaling" in text
        assert "2x shards" in text

    def test_workload_filter_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError):
            fig_array.run(scale="tiny", benchmarks=["no-such-workload"])


class TestFigWA:
    @pytest.fixture(scope="class")
    def result(self):
        return fig_wa.run(scale="tiny", benchmarks=["uniform", "zipf"],
                          policies=["greedy"], seed=3)

    def test_amplification_is_accounted(self, result):
        table = fig_wa.as_dict(result)
        for workload in ("uniform", "zipf"):
            row = table[workload]["greedy"]
            assert row["wa_ratio"] > 1.0
            assert row["wa_ratio"] == pytest.approx(
                (row["host_writes"] + row["gc_writes"])
                / row["host_writes"])
            assert row["erases"] > 0

    def test_uniform_amplifies_more_than_zipf(self, result):
        # Skewed overwrites self-invalidate hot blocks; uniform traffic
        # leaves victims half-valid and pays more relocation.
        table = fig_wa.as_dict(result)
        assert table["uniform"]["greedy"]["wa_ratio"] > \
            table["zipf"]["greedy"]["wa_ratio"]

    def test_reviver_still_wins_under_amplification(self, result):
        for row in result.rows:
            assert row.lifetime_reviver >= row.lifetime_none
            assert row.gain >= 1.0

    def test_render_and_dict(self, result):
        text = fig_wa.render(result)
        assert "write amplification" in text
        assert "greedy" in text
        assert set(fig_wa.as_dict(result)) == {"uniform", "zipf"}

    def test_rows_are_pinned(self, result):
        # Any drift in how the program stream replays into the fast
        # engine changes this digest.
        import hashlib
        import json
        blob = json.dumps(fig_wa.as_dict(result), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "675b69c58dd0f4cd112110f49b4a3aa8"
            "43d774169100c15344d6c6b971322d8b")

    def test_bad_policy_is_rejected(self):
        with pytest.raises(ConfigurationError):
            fig_wa.run(scale="tiny", benchmarks=["uniform"],
                       policies=["lru"], seed=3)


class TestCLI:
    def test_parser_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--scale", "tiny"])
        assert args.experiment == "table1"

    def test_main_runs_table1(self, capsys):
        assert main(["table1", "--scale", "tiny"]) == 0
        captured = capsys.readouterr()
        assert "Table I" in captured.out

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {"table1", "fig5", "fig6", "fig7",
                                    "fig8", "table2", "attacks",
                                    "fig_array", "fig_wa", "fig_elastic"}

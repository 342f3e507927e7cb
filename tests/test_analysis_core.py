"""Framework behaviour: suppressions, PARSE/ALLOW-REASON, CLI contract.

Also pins the tree-wide guarantee CI enforces: linting the real ``src``,
``tools``, ``benchmarks`` and ``examples`` trees yields zero findings.
"""

import ast
import json
from io import StringIO
from pathlib import Path

from repro.analysis import (AnalysisCache, all_rules, lint_paths,
                            lint_source, to_sarif, validate_sarif)
from repro.analysis.cli import main
from repro.analysis.runner import iter_python_files

FAKE = Path("src/repro/mc/controller.py")

BAD_LINE = "page = pa // blocks_per_page\n"


class TestSuppressions:
    def test_same_line_allow_suppresses(self):
        text = ("page = pa // blocks_per_page  "
                "# repro: allow(RAW-GEOM): fixture justification\n")
        assert lint_source(text, FAKE) == []

    def test_allow_only_covers_named_rule(self):
        text = ("page = pa // blocks_per_page  "
                "# repro: allow(FLOAT-EQ): wrong rule named\n")
        assert [f.rule for f in lint_source(text, FAKE)] == ["RAW-GEOM"]

    def test_file_wide_allow_suppresses_everywhere(self):
        text = ("# repro: allow-file(RAW-GEOM): fixture justification\n"
                "a = pa // blocks_per_page\n"
                "b = pa % blocks_per_page\n")
        assert lint_source(text, FAKE) == []

    def test_allow_without_reason_is_itself_a_finding(self):
        text = "page = pa // blocks_per_page  # repro: allow(RAW-GEOM)\n"
        rules = sorted(f.rule for f in lint_source(text, FAKE))
        assert rules == ["ALLOW-REASON"]

    def test_multi_rule_allow(self):
        text = ("x = bpp * n if y == 0.5 else 0  "
                "# repro: allow(RAW-GEOM, FLOAT-EQ): fixture justification\n")
        assert lint_source(text, FAKE) == []


class TestFrameworkFindings:
    def test_unparseable_file_reports_parse(self):
        found = lint_source("def broken(:\n", FAKE)
        assert [f.rule for f in found] == ["PARSE"]

    def test_findings_sorted_by_position(self):
        text = ("import random\n"
                "page = pa // blocks_per_page\n"
                "if x == 0.5:\n"
                "    pass\n")
        found = lint_source(text, FAKE)
        assert [f.rule for f in found] == ["RNG-DET", "RAW-GEOM", "FLOAT-EQ"]
        assert [f.line for f in found] == [1, 2, 3]

    def test_render_format_is_clickable(self):
        finding = lint_source(BAD_LINE, FAKE)[0]
        assert finding.render().startswith(
            "src/repro/mc/controller.py:1:")
        assert "RAW-GEOM" in finding.render()


class TestCli:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_clean_file_exits_zero(self, tmp_path):
        path = self._write(tmp_path, "clean.py", "x = 1\n")
        out = StringIO()
        assert main([str(path)], stream=out) == 0
        assert "0 findings" in out.getvalue()

    def test_findings_exit_one_text(self, tmp_path):
        path = self._write(tmp_path, "bad.py", BAD_LINE)
        out = StringIO()
        assert main([str(path)], stream=out) == 1
        assert "RAW-GEOM" in out.getvalue()
        assert "1 finding" in out.getvalue()

    def test_json_output_parses(self, tmp_path):
        path = self._write(tmp_path, "bad.py", BAD_LINE + "import random\n")
        out = StringIO()
        assert main([str(path), "--format", "json"], stream=out) == 1
        payload = json.loads(out.getvalue())
        assert payload["count"] == 2
        assert {f["rule"] for f in payload["findings"]} \
            == {"RAW-GEOM", "RNG-DET"}

    def test_select_restricts_rules(self, tmp_path):
        path = self._write(tmp_path, "bad.py", BAD_LINE + "import random\n")
        out = StringIO()
        assert main([str(path), "--select", "RNG-DET"], stream=out) == 1
        assert "RAW-GEOM" not in out.getvalue()

    def test_unknown_rule_exits_two(self, tmp_path):
        out = StringIO()
        assert main([str(tmp_path), "--select", "NOPE"], stream=out) == 2

    def test_missing_path_exits_two(self, tmp_path):
        out = StringIO()
        assert main([str(tmp_path / "absent")], stream=out) == 2

    def test_list_rules_describes_all_nine(self):
        out = StringIO()
        assert main(["--list-rules"], stream=out) == 0
        text = out.getvalue()
        for rule_id in ("RAW-GEOM", "RNG-DET", "LINK-MUT", "EXC-SWALLOW",
                        "FLOAT-EQ", "FAULT-HOOK", "TELEM-API",
                        "DET-WALLCLOCK", "HOOK-NONE"):
            assert rule_id in text


class TestFileDiscovery:
    def test_directory_plus_member_file_lints_once(self, tmp_path):
        # Regression: passing a directory and a file inside it used to
        # lint (and report) the file twice.
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_LINE, encoding="utf-8")
        files = iter_python_files([tmp_path, bad])
        assert files == [bad]
        findings = lint_paths([tmp_path, bad])
        assert [f.rule for f in findings] == ["RAW-GEOM"]

    def test_same_path_twice_lints_once(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_LINE, encoding="utf-8")
        assert iter_python_files([bad, bad]) == [bad]
        assert len(lint_paths([bad, bad])) == 1

    def test_discovery_order_is_sorted(self, tmp_path):
        for name in ("b.py", "a.py", "c.py"):
            (tmp_path / name).write_text("x = 1\n", encoding="utf-8")
        files = iter_python_files([tmp_path])
        assert [f.name for f in files] == ["a.py", "b.py", "c.py"]


class TestParseColumnClamp:
    def test_offset_zero_never_renders_column_zero(self, tmp_path,
                                                   monkeypatch):
        # CPython >= 3.11 reports 1-based offsets, but tokenizer-layer
        # errors historically surfaced offset 0; the rendered 1-based
        # column must clamp to 1 rather than underflow to `:0`.
        def raise_offset_zero(*args, **kwargs):
            exc = SyntaxError("forced tokenizer error")
            exc.lineno = 2
            exc.offset = 0
            raise exc

        monkeypatch.setattr(ast, "parse", raise_offset_zero)
        found = lint_source("x = (\n!\n", FAKE)
        assert [f.rule for f in found] == ["PARSE"]
        assert found[0].line == 2
        assert found[0].col == 0
        assert ":2:1:" in found[0].render()

    def test_offset_none_clamps_too(self, monkeypatch):
        def raise_offset_none(*args, **kwargs):
            exc = SyntaxError("no position at all")
            exc.lineno = None
            exc.offset = None
            raise exc

        monkeypatch.setattr(ast, "parse", raise_offset_none)
        found = lint_source("x = 1\n", FAKE)
        assert [(f.line, f.col) for f in found] == [(1, 0)]


class TestSuppressionEdgeCases:
    def test_allow_file_with_multiple_rule_ids(self):
        text = ("# repro: allow-file(RAW-GEOM, RNG-DET): fixture covers "
                "both rules\n"
                "import random\n"
                "page = pa // blocks_per_page\n"
                "if x == 0.5:\n"
                "    pass\n")
        assert [f.rule for f in lint_source(text, FAKE)] == ["FLOAT-EQ"]

    def test_allow_inside_multiline_expression_anchors_to_its_line(self):
        # The comment sits on the physical line of the flagged operation
        # inside a parenthesized expression; tokenize-based matching must
        # attach it there, not to the statement's first line.
        text = ("total = (\n"
                "    pa // blocks_per_page  "
                "# repro: allow(RAW-GEOM): fixture justification\n"
                ")\n")
        assert lint_source(text, FAKE) == []

    def test_allow_on_wrong_line_of_multiline_does_not_suppress(self):
        text = ("total = (  # repro: allow(RAW-GEOM): wrong physical line\n"
                "    pa // blocks_per_page\n"
                ")\n")
        assert [f.rule for f in lint_source(text, FAKE)] == ["RAW-GEOM"]

    def test_allow_reason_column_points_at_comment(self):
        text = "page = pa // blocks_per_page  # repro: allow(RAW-GEOM)\n"
        found = lint_source(text, FAKE)
        assert [f.rule for f in found] == ["ALLOW-REASON"]
        # 0-based column of the `#` (rendered 1-based by render()).
        assert found[0].col == text.index("#")
        assert f":1:{text.index('#') + 1}:" in found[0].render()


class TestIncrementalCache:
    def test_unchanged_tree_replays_with_zero_parses(self, tmp_path):
        for name, text in (("bad.py", BAD_LINE), ("ok.py", "x = 1\n")):
            (tmp_path / name).write_text(text, encoding="utf-8")
        cache_file = tmp_path / "cache.json"
        first = AnalysisCache(cache_file)
        cold = lint_paths([tmp_path], cache=first)
        assert first.stats.misses == 1 and first.stats.hits == 0
        assert first.stats.parses == 2
        # Fresh cache object (new process): warm run does zero re-parses.
        second = AnalysisCache(cache_file)
        warm = lint_paths([tmp_path], cache=second)
        assert second.stats.hits == 1 and second.stats.misses == 0
        assert second.stats.parses == 0
        assert [f.as_dict() for f in warm] == [f.as_dict() for f in cold]

    def test_content_change_invalidates(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("x = 1\n", encoding="utf-8")
        cache_file = tmp_path / "cache.json"
        lint_paths([tmp_path], cache=AnalysisCache(cache_file))
        path.write_text(BAD_LINE, encoding="utf-8")
        stale = AnalysisCache(cache_file)
        findings = lint_paths([tmp_path], cache=stale)
        assert stale.stats.misses == 1 and stale.stats.parses == 1
        assert [f.rule for f in findings] == ["RAW-GEOM"]

    def test_rule_selection_changes_the_key(self, tmp_path):
        (tmp_path / "bad.py").write_text(BAD_LINE + "import random\n",
                                         encoding="utf-8")
        cache_file = tmp_path / "cache.json"
        lint_paths([tmp_path], cache=AnalysisCache(cache_file))
        narrowed = AnalysisCache(cache_file)
        findings = lint_paths(
            [tmp_path], rules=[r for r in all_rules() if r.id == "RNG-DET"],
            cache=narrowed)
        assert narrowed.stats.misses == 1
        assert [f.rule for f in findings] == ["RNG-DET"]

    def test_torn_cache_file_is_a_miss(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        cache_file = tmp_path / "cache.json"
        cache_file.write_text("{not json", encoding="utf-8")
        cache = AnalysisCache(cache_file)
        assert lint_paths([tmp_path], cache=cache) == []
        assert cache.stats.misses == 1

    def test_cli_stats_flag_reports_counters(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        cache_file = tmp_path / "cache.json"
        argv = [str(tmp_path), "--cache", str(cache_file), "--stats"]
        out = StringIO()
        assert main(argv, stream=out) == 0
        assert "1 miss(es)" in out.getvalue()
        out = StringIO()
        assert main(argv, stream=out) == 0
        assert "1 hit(s)" in out.getvalue()
        assert "0 parse(s)" in out.getvalue()


class TestSarif:
    def test_emitted_document_validates(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_LINE + "import random\n", encoding="utf-8")
        findings = lint_paths([bad])
        document = to_sarif(findings, all_rules())
        assert validate_sarif(document) == []
        results = document["runs"][0]["results"]
        assert {r["ruleId"] for r in results} == {"RAW-GEOM", "RNG-DET"}
        # Columns are 1-based in SARIF (internal cols are 0-based).
        assert all(r["locations"][0]["physicalLocation"]["region"]
                   ["startColumn"] >= 1 for r in results)

    def test_cli_sarif_round_trips(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_LINE, encoding="utf-8")
        out = StringIO()
        assert main([str(bad), "--format", "sarif"], stream=out) == 1
        document = json.loads(out.getvalue())
        assert validate_sarif(document) == []
        assert document["version"] == "2.1.0"

    def test_validator_rejects_broken_documents(self):
        assert validate_sarif([]) != []
        assert validate_sarif({"version": "2.1.0", "runs": []}) != []
        bad_result = {
            "version": "2.1.0",
            "runs": [{"tool": {"driver": {"name": "x", "rules": []}},
                      "results": [{"ruleId": "R", "message": {},
                                   "locations": []}]}],
        }
        problems = validate_sarif(bad_result)
        assert any("message" in p for p in problems)
        assert any("locations" in p for p in problems)


class TestTreeIsClean:
    def test_all_linted_trees_have_zero_findings(self):
        root = Path(__file__).resolve().parent.parent
        trees = [root / name
                 for name in ("src", "tools", "benchmarks", "examples")
                 if (root / name).is_dir()]
        assert (root / "src") in trees
        findings = lint_paths(trees)
        assert findings == [], "\n".join(f.render() for f in findings)

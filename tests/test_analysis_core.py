"""Framework behaviour: suppressions, PARSE/ALLOW-REASON, CLI contract.

Also pins the tree-wide guarantee CI enforces: linting the real ``src``,
``tools``, ``benchmarks`` and ``examples`` trees yields zero findings.
"""

import ast
from io import StringIO
from pathlib import Path

from repro.analysis import lint_paths, lint_source
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

    def test_file_wide_form_is_not_a_suppression(self):
        # Suppressions are same-line only: the old file-wide spelling
        # silences nothing, so both lines below still report.  (Spelled
        # in two pieces so the tree holds no live-looking instance.)
        text = ("# repro: allow" "-file(RAW-GEOM): fixture justification\n"
                "a = pa // blocks_per_page\n"
                "b = pa % blocks_per_page\n")
        found = lint_source(text, FAKE)
        assert [(f.rule, f.line) for f in found] == [
            ("RAW-GEOM", 2), ("RAW-GEOM", 3)]

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


class TestTreeIsClean:
    def test_all_linted_trees_have_zero_findings(self):
        root = Path(__file__).resolve().parent.parent
        trees = [root / name
                 for name in ("src", "tools", "benchmarks", "examples")
                 if (root / name).is_dir()]
        assert (root / "src") in trees
        findings = lint_paths(trees)
        assert findings == [], "\n".join(f.render() for f in findings)

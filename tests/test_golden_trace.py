"""Golden-trace regression: the instrumented run is byte-stable.

The fixture under ``tests/data/`` pins the exact JSONL bytes an
instrumented seeded lifetime emits.  Any drift — event reordering, a
field rename, a nondeterminism leak (wall-clock data, dict-order
dependence, RNG misuse) — fails these tests before it can silently
invalidate published traces.  Regenerate deliberately with::

    PYTHONPATH=src python -c "from repro.telemetry.golden import \\
        golden_trace; print(golden_trace(), end='')" \\
        > tests/data/golden_trace.jsonl

and note the regeneration in the commit message.
"""

from pathlib import Path

from repro.experiments.parallel import Cell, GridRunner
from repro.telemetry.golden import golden_trace
from repro.telemetry.trace import census, read_trace, run_meta

FIXTURE = Path(__file__).parent / "data" / "golden_trace.jsonl"


def test_fixture_is_a_valid_trace_with_meta():
    records = read_trace(FIXTURE)
    meta = run_meta(records)
    assert meta["seed"] == 2014
    assert meta["engine"] == "exact"
    counts = census(records)
    # The fixture must exercise the interesting protocol paths; a
    # regeneration that loses any of these events needs a new seed.
    for kind in ("link-install", "link-restore", "pointer-switch",
                 "inverse-rewrite", "page-retire", "crash", "recover"):
        assert counts.get(kind, 0) > 0, f"fixture lost all {kind} events"


def test_golden_run_reproduces_the_fixture_byte_identically():
    assert golden_trace() == FIXTURE.read_text()


def test_two_runs_are_byte_identical():
    assert golden_trace() == golden_trace()


def test_golden_run_is_identical_under_a_process_pool():
    """The trace must not depend on which process produced it: two pool
    workers (jobs=2) must both reproduce the fixture exactly."""
    runner = GridRunner(jobs=2)
    results = runner.run([
        Cell(key="golden/a", fn="repro.telemetry.golden:golden_trace",
             kwargs={}),
        Cell(key="golden/b", fn="repro.telemetry.golden:golden_trace",
             kwargs={}),
    ])
    fixture = FIXTURE.read_text()
    assert results["golden/a"] == fixture
    assert results["golden/b"] == fixture

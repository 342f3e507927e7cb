"""Process-pool execution of experiment grids.

Every figure/table runner evaluates a (benchmark x system-config x seed)
grid of independent chip lifetimes.  This module fans such grids out
across worker processes:

* each grid cell is a :class:`Cell` — a unique key, a picklable dotted
  reference to a module-level cell function, and plain-data kwargs;
* per-cell seeds are derived deterministically from the experiment seed
  and the cell key via :func:`repro.rng.derive_rng` (:func:`cell_seed`),
  so results do not depend on worker scheduling and the serial and
  parallel paths are bit-for-bit identical;
* cell outputs are JSON-serializable records; with ``resume`` pointing at
  a JSON file, completed cells are persisted as they finish and skipped
  on reruns (an interrupted sweep continues where it stopped).  Each
  record carries a digest of its cell's function and kwargs, so a record
  computed from other parameters under the same key is recomputed, never
  replayed;
* pooled results return over the pool's own pickle pipe (cell payloads
  are a few KiB);
* :meth:`GridRunner.report` summarizes per-cell wall/CPU time, queue
  wait, and worker utilization.

Timing is measured *inside* the cell by one shared helper
(:func:`repro.telemetry.timing.timed_call`), so the serial and pool paths
report identical semantics; the pool path additionally derives each
cell's queue wait as time-to-completion minus in-cell wall time.

``jobs <= 1`` executes in-process with no pool (and no fork overhead) —
the default, and the reference the parallel path must reproduce exactly.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, derive_rng, spawn_seed
from ..telemetry.timing import timed_call

#: Signature of the progress callback: (finished cell, done count, total).
ProgressFn = Callable[["CellOutcome", int, int], None]


def cell_seed(seed: SeedLike, key: str) -> int:
    """Deterministic per-cell seed derived from the experiment seed.

    Stable across processes, runs, and submission order: only the
    experiment seed and the cell key matter.
    """
    return spawn_seed(derive_rng(seed, f"cell:{key}"))


def jsonify(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays so ``json`` accepts them."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Mapping):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


@dataclass(frozen=True)
class Cell:
    """One independent unit of an experiment grid."""

    #: Unique id, e.g. ``"fig5/tiny/ocean/ECP6-SG"`` — the resume key and
    #: the seed-derivation label.
    key: str
    #: Dotted reference ``"package.module:function"`` to a module-level
    #: function (workers re-import it, so it must not be a closure).
    fn: str
    #: Keyword arguments; they must pickle.  Grids pass plain data that
    #: round-trips JSON, so a resume file can record them.
    kwargs: Dict[str, Any]

    def digest(self) -> str:
        """Hash of the function and canonical kwargs (resume validity)."""
        blob = json.dumps({"fn": self.fn, "kwargs": jsonify(self.kwargs)},
                          sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CellOutcome:
    """A finished (or resumed) cell."""

    key: str
    value: Any
    #: In-cell wall-clock seconds (identical semantics serial or pooled).
    seconds: float
    #: True when the value came from the resume file, not a fresh run.
    cached: bool = False
    #: In-cell process CPU seconds (user + system, in the worker).
    cpu_seconds: float = 0.0
    #: Pool only: time the finished result spent waiting on a worker slot
    #: or on the parent draining other completions (0.0 when serial).
    queue_seconds: float = 0.0


def _execute(fn: str, kwargs: Dict[str, Any]) -> Any:
    """Resolve a dotted cell reference and call it (worker entry point)."""
    module_name, _, func_name = fn.partition(":")
    module = importlib.import_module(module_name)
    return jsonify(getattr(module, func_name)(**kwargs))


def _execute_timed(fn: str,
                   kwargs: Dict[str, Any]) -> Tuple[Any, float, float]:
    """Run a cell under the shared timer; returns (value, wall, cpu).

    Both execution paths go through here, so "seconds" always means the
    same thing: wall time inside the cell, in whichever process ran it.
    """
    value, timing = timed_call(_execute, fn, kwargs)
    return value, timing.wall, timing.cpu


class GridRunner:
    """Runs a grid of cells serially or across a process pool."""

    #: Resume saves are throttled to once per this many fresh cells (the
    #: final cell always flushes): each save rewrites the whole file, so
    #: per-cell saves cost O(n^2) bytes over a large campaign.
    _SAVE_EVERY = 8

    def __init__(self, jobs: int = 1,
                 resume: Union[None, str, Path] = None,
                 progress: Optional[ProgressFn] = None) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        self.jobs = jobs
        self.resume = Path(resume) if resume is not None else None
        self.progress = progress
        self.outcomes: List[CellOutcome] = []
        self._unsaved = 0
        self._dirty = False

    # ------------------------------------------------------------------ run

    def run(self, cells: Sequence[Cell]) -> Dict[str, Any]:
        """Execute every cell; return ``{key: value}`` for the whole grid."""
        keys = [cell.key for cell in cells]
        if len(set(keys)) != len(keys):
            raise ConfigurationError("duplicate cell keys in grid")
        completed = self._load_resume()
        results: Dict[str, Any] = {}
        pending: List[Cell] = []
        for cell in cells:
            record = completed.get(cell.key)
            if record is not None and record.get("digest") == cell.digest():
                results[cell.key] = record["value"]
                self._finish(CellOutcome(
                    key=cell.key, value=results[cell.key],
                    seconds=float(record.get("seconds", 0.0)),
                    cpu_seconds=float(record.get("cpu_seconds", 0.0)),
                    queue_seconds=float(record.get("queue_seconds", 0.0)),
                    cached=True), len(results), len(cells))
            else:
                pending.append(cell)
        if pending:
            try:
                if self.jobs > 1 and len(pending) > 1:
                    self._run_pool(pending, results, completed, len(cells))
                else:
                    for cell in pending:
                        value, wall, cpu = _execute_timed(cell.fn,
                                                          cell.kwargs)
                        self._record(cell, value, wall, cpu, 0.0,
                                     results, completed, len(cells))
            finally:
                # Throttled saves leave a tail of unsaved cells when a run
                # dies mid-campaign; persist whatever completed.
                self._flush_resume(completed)
        return results

    def _run_pool(self, cells: List[Cell], results: Dict[str, Any],
                  completed: Dict[str, dict], total: int) -> None:
        workers = min(self.jobs, len(cells))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures: Dict[Any, Tuple[Cell, float]] = {}
            cursor = 0

            def submit_next() -> None:
                nonlocal cursor
                if cursor >= len(cells):
                    return
                cell = cells[cursor]
                cursor += 1
                future = pool.submit(_execute_timed, cell.fn, cell.kwargs)
                # Per-future submit time: queue wait must measure *this*
                # future's time-to-completion, not the whole grid's.
                futures[future] = (cell, time.perf_counter())  # repro: allow(DET-WALLCLOCK): queue-wait profile, never part of a cell record

            for _ in range(workers):
                submit_next()
            while futures:
                done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
                for future in done:
                    cell, submitted = futures.pop(future)
                    value, wall, cpu = future.result()
                    # The worker measured the in-cell wall time; whatever
                    # is left since *this submission* was spent queued
                    # (waiting for a worker slot, pickling, or parent-side
                    # draining).
                    queue = max(0.0,
                                time.perf_counter() - submitted - wall)  # repro: allow(DET-WALLCLOCK): queue-wait profile, never part of a cell record
                    self._record(cell, value, wall, cpu, queue,
                                 results, completed, total)
                    submit_next()

    def _record(self, cell: Cell, value: Any, seconds: float, cpu: float,
                queue: float, results: Dict[str, Any],
                completed: Dict[str, dict], total: int) -> None:
        key = cell.key
        results[key] = value
        completed[key] = {"value": value, "digest": cell.digest(),
                          "seconds": seconds, "cpu_seconds": cpu,
                          "queue_seconds": queue}
        self._unsaved += 1
        self._dirty = True
        if self._unsaved >= self._SAVE_EVERY or len(results) >= total:
            self._save_resume(completed)
        self._finish(CellOutcome(key=key, value=value, seconds=seconds,
                                 cpu_seconds=cpu, queue_seconds=queue),
                     len(results), total)

    def _finish(self, outcome: CellOutcome, done: int, total: int) -> None:
        self.outcomes.append(outcome)
        if self.progress is not None:
            self.progress(outcome, done, total)

    # ---------------------------------------------------------------- resume

    def _load_resume(self) -> Dict[str, dict]:
        if self.resume is None or not self.resume.exists():
            return {}
        try:
            payload = json.loads(self.resume.read_text())
        except json.JSONDecodeError as exc:
            # Saves go through a tmp file + atomic replace, so a mangled
            # file means outside editing; refuse rather than silently
            # recompute over cached results the user may still want.
            raise ConfigurationError(
                f"resume file {self.resume} is not valid JSON: {exc}; "
                "delete it to start over") from exc
        return payload.get("cells", {})

    def _save_resume(self, completed: Dict[str, dict]) -> None:
        self._unsaved = 0
        self._dirty = False
        if self.resume is None:
            return
        self.resume.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.resume.with_suffix(self.resume.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"cells": completed}, handle, sort_keys=True)
            handle.flush()
            # Durable before rename: a crash between the rename and a
            # lazy writeback must not leave a torn file behind the
            # atomic-replace promise _load_resume relies on.
            os.fsync(handle.fileno())
        os.replace(tmp, self.resume)

    def _flush_resume(self, completed: Dict[str, dict]) -> None:
        """Persist any cells recorded since the last throttled save."""
        if self._dirty:
            self._save_resume(completed)

    # ---------------------------------------------------------------- report

    def report(self) -> str:
        """Per-cell timing summary of the last :meth:`run`."""
        if not self.outcomes:
            return "no cells executed"
        fresh = [o for o in self.outcomes if not o.cached]
        cached = len(self.outcomes) - len(fresh)
        lines = [f"{len(self.outcomes)} cells "
                 f"({cached} resumed, jobs={self.jobs})"]
        for outcome in sorted(self.outcomes, key=lambda o: o.key):
            marker = ("cached" if outcome.cached
                      else f"{outcome.seconds:.2f}s "
                           f"(cpu {outcome.cpu_seconds:.2f}s)")
            lines.append(f"  {outcome.key:<44s} {marker}")
        if fresh:
            slowest = max(fresh, key=lambda o: o.seconds)
            lines.append(f"  slowest: {slowest.key} "
                         f"({slowest.seconds:.2f}s)")
            wall = sum(o.seconds for o in fresh)
            cpu = sum(o.cpu_seconds for o in fresh)
            queue = sum(o.queue_seconds for o in fresh)
            lines.append(f"  total: wall {wall:.2f}s, cpu {cpu:.2f}s, "
                         f"queue {queue:.2f}s")
            # CPU seconds actually burned per second the cells were open:
            # near 1.0 means compute-bound workers, well below 1.0 means
            # the cells idled (I/O, GIL handoffs, oversubscription).
            if wall > 0:
                lines.append(f"  worker utilization: {cpu / wall:.0%}")
        return "\n".join(lines)


def make_runner(jobs: int = 1, resume: Union[None, str, Path] = None,
                progress: Optional[ProgressFn] = None,
                runner: Optional[GridRunner] = None) -> GridRunner:
    """The runner the experiment modules share: reuse *runner* or build one."""
    return runner if runner is not None else GridRunner(
        jobs=jobs, resume=resume, progress=progress)

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
  record holds the cell's value and a digest of its function and kwargs,
  nothing else, so the file's bytes do not depend on ``jobs``, and a
  record computed from other parameters under the same key is
  recomputed, never replayed;
* pooled results return over the pool's own pickle pipe (cell payloads
  are a few KiB).

``jobs <= 1`` executes in-process with no pool (and no fork overhead) —
the default, and the reference the parallel path must reproduce exactly.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from time import perf_counter  # repro: allow(DET-WALLCLOCK): in-cell seconds feed only the CLIs' progress lines, never a cell record
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, derive_rng, spawn_seed

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
    #: In-cell wall-clock seconds (0.0 for a resumed cell).
    seconds: float
    #: True when the value came from the resume file, not a fresh run.
    cached: bool = False


def _execute(fn: str, kwargs: Dict[str, Any]) -> Tuple[Any, float]:
    """Worker entry point: resolve a dotted cell reference, call it, and
    return its JSON-safe value with the wall seconds spent inside it."""
    module_name, _, func_name = fn.partition(":")
    func = getattr(importlib.import_module(module_name), func_name)
    started = perf_counter()
    value = jsonify(func(**kwargs))
    return value, perf_counter() - started


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
                self._finish(CellOutcome(key=cell.key, value=record["value"],
                                         seconds=0.0, cached=True),
                             len(results), len(cells))
            else:
                pending.append(cell)
        if pending:
            try:
                if self.jobs > 1 and len(pending) > 1:
                    self._run_pool(pending, results, completed, len(cells))
                else:
                    for cell in pending:
                        value, seconds = _execute(cell.fn, cell.kwargs)
                        self._record(cell, value, seconds, results,
                                     completed, len(cells))
            finally:
                # Throttled saves leave a tail of unsaved cells when a run
                # dies mid-campaign; persist whatever completed.
                self._flush_resume(completed)
        return results

    def _run_pool(self, cells: List[Cell], results: Dict[str, Any],
                  completed: Dict[str, dict], total: int) -> None:
        # At most ``jobs`` cells are in flight: when a cell raises, the
        # executor's exit waits only for those, not for a queued grid.
        queued = iter(cells)
        with ProcessPoolExecutor(max_workers=min(self.jobs,
                                                 len(cells))) as pool:
            futures = {pool.submit(_execute, cell.fn, cell.kwargs): cell
                       for cell in islice(queued, self.jobs)}
            while futures:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    cell = futures.pop(future)
                    value, seconds = future.result()
                    self._record(cell, value, seconds, results, completed,
                                 total)
                    following = next(queued, None)
                    if following is not None:
                        futures[pool.submit(_execute, following.fn,
                                            following.kwargs)] = following

    def _record(self, cell: Cell, value: Any, seconds: float,
                results: Dict[str, Any], completed: Dict[str, dict],
                total: int) -> None:
        results[cell.key] = value
        completed[cell.key] = {"digest": cell.digest(), "value": value}
        self._unsaved += 1
        if self._unsaved >= self._SAVE_EVERY or len(results) >= total:
            self._save_resume(completed)
        self._finish(CellOutcome(key=cell.key, value=value, seconds=seconds),
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
        if self._unsaved:
            self._save_resume(completed)

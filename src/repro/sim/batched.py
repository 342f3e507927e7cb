"""Struct-of-arrays lockstep kernel over many independent fast engines.

Campaign seeds and array shards are embarrassingly parallel, but on one
interpreter each :class:`~repro.sim.fast.FastEngine` pays the full Python
epoch overhead — redirect rebuilds, threshold scans, migration loops — per
cell.  :class:`BatchedEngine` advances N fresh engines in lockstep inside
one process with their hot state re-homed into ``(N, num_blocks)``
struct-of-arrays:

* ``wear``, ``failed`` and the ECC threshold vectors become rows of shared
  2-D arrays; each engine's own attributes are replaced by row *views*, so
  every existing code path (ECC extension, fault-injection clamps, failure
  bookkeeping) reads and writes the same memory the kernel scans;
* the common epoch case — no block crossed its threshold, no block is dead
  — is applied as one ``np.add.at`` per cell plus a single vectorized
  threshold scan across the cell axis, skipping the per-cell
  ``np.unique``/resolve machinery entirely;
* anything rare (threshold crossings, exposed failures, recovery
  bookkeeping) drops back to the engine's own round machinery
  (:meth:`~repro.sim.fast.FastEngine._software_rounds` and friends), so
  those paths stay byte-identical by construction.

Cells that stop early are *masked out of the active set*, never removed:
their engines keep their row views, stop reasons and series, so the
returned summaries and telemetry snapshots match the per-cell path
bit-for-bit.  Injection (``engine.inject``) and telemetry
(``engine.telem``) hooks keep their None defaults and are honored per
cell.

The module also hosts the *batchable-cell registry* the grid runner uses:
experiment modules register a ``build``/``finish`` pair for their cell
function, and :func:`run_cell_batch` folds a homogeneous group of grid
cells into one lockstep kernel, falling back to the original cell callable
for anything that does not conform (e.g. LLS cells, whose engine subclass
rebuilds its wear-leveler mid-run).
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import CapacityExhaustedError, ConfigurationError
from .fast import FastEngine
from .metrics import LifetimeSummary
from .stop import StopCause, StopReason

__all__ = [
    "BatchedEngine",
    "BatchableSpec",
    "register_batchable",
    "is_batchable",
    "run_cell_batch",
]


def _has_links(engine: FastEngine) -> bool:
    """Whether the engine's redirect table can differ from identity."""
    mode = engine.config.recovery
    if mode == "reviver":
        return bool(engine.links)
    if mode == "freep":
        return engine.region is not None and bool(engine.region.links)
    return False


def _round_limit(engine: FastEngine) -> int:
    """The engine's per-epoch re-issue round budget."""
    return engine.chip.num_blocks + engine.ospool.num_pages + 4


class BatchedEngine:
    """Advance N fresh :class:`FastEngine` cells in lockstep.

    ``run()`` may be called once; it returns one
    :class:`~repro.sim.metrics.LifetimeSummary` per engine, in input
    order, with every engine left in exactly the state a standalone
    ``engine.run()`` would have produced.
    """

    def __init__(self, engines: Sequence[FastEngine]) -> None:
        if not engines:
            raise ConfigurationError("BatchedEngine needs at least one engine")
        for engine in engines:
            if type(engine) is not FastEngine:
                raise ConfigurationError(
                    f"BatchedEngine requires plain FastEngine cells, got "
                    f"{type(engine).__name__}")
            if engine.total_writes != 0 or engine.stop is not None:
                raise ConfigurationError(
                    "BatchedEngine requires fresh engines (no writes, "
                    "no stop reason)")
        blocks = {engine.chip.num_blocks for engine in engines}
        if len(blocks) != 1:
            raise ConfigurationError(
                f"BatchedEngine cells must share num_blocks, got {sorted(blocks)}")
        self.engines: List[FastEngine] = list(engines)
        self.num_blocks = blocks.pop()
        n = len(self.engines)
        #: (N, B) struct-of-arrays views over every cell's hot state.
        self.wear = np.zeros((n, self.num_blocks), dtype=np.int64)
        self.failed = np.zeros((n, self.num_blocks), dtype=bool)
        self.thresholds = np.zeros((n, self.num_blocks), dtype=np.int64)
        #: Cells whose ECC does not expose an int64 threshold vector we can
        #: re-home; they run the per-cell resolve every epoch (matching the
        #: per-cell path exactly) instead of the vectorized crossing scan.
        self._always_resolve = np.zeros(n, dtype=bool)
        self._ran = False

    # ------------------------------------------------------------- re-homing

    def _rehome(self) -> None:
        """Move per-cell hot state into SoA rows, leaving row views behind.

        ``chip.wear``/``chip.failed``/``ecc._thresholds`` are assigned only
        in their constructors and mutated element-wise everywhere else
        (ECC extension, fault-injection clamps), so replacing each with a
        row view aliases every later mutation into the batched arrays.
        """
        for i, engine in enumerate(self.engines):
            chip = engine.chip
            self.wear[i] = chip.wear
            self.failed[i] = chip.failed
            chip.wear = self.wear[i]
            chip.failed = self.failed[i]
            backing = getattr(chip.ecc, "_thresholds", None)
            if (isinstance(backing, np.ndarray)
                    and backing is chip.ecc.thresholds
                    and backing.shape == (self.num_blocks,)
                    and backing.dtype == np.int64):
                self.thresholds[i] = backing
                setattr(chip.ecc, "_thresholds", self.thresholds[i])
            else:
                self.thresholds[i] = np.iinfo(np.int64).max
                self._always_resolve[i] = True

    # ------------------------------------------------------------------- run

    def run(self) -> List[LifetimeSummary]:
        """Run every cell to its stop condition; return per-cell summaries."""
        if self._ran:
            raise ConfigurationError("BatchedEngine.run may only be called once")
        self._ran = True
        self._rehome()
        for engine in self.engines:
            engine._begin_run()
        active = list(range(len(self.engines)))
        while active:
            running = []
            for i in active:
                stop = self.engines[i]._next_stop()
                if stop is not None:
                    self.engines[i].stop = stop
                else:
                    running.append(i)
            if not running:
                break
            active = self._lockstep_epoch(running)
        return [engine._finish_summary() for engine in self.engines]

    # ----------------------------------------------------------------- epoch

    def _lockstep_epoch(self, active: List[int]) -> List[int]:
        """One epoch for every active cell; returns the survivors.

        Per-cell operation order matches ``FastEngine._epoch`` exactly —
        only cross-cell orchestration is batched, and cells never share
        state, so interleaving cells is unobservable.
        """
        engines = self.engines
        batches = {i: engines[i]._epoch_batch() for i in active}
        has_failed = self.failed.any(axis=1)
        aborted: Set[int] = set()
        pending: Dict[int, tuple] = {}
        check: List[int] = []

        # --- software phase -------------------------------------------------
        software_start = time.perf_counter()  # repro: allow(DET-WALLCLOCK): phase profile only, stripped from compared payloads
        for i in active:
            engine = engines[i]
            counts = engine.trace.batch_counts(batches[i])
            engine._epoch_counts = counts
            redirected = _has_links(engine)
            if redirected:
                engine._rebuild_redirect()
            virtual = np.nonzero(counts)[0]
            remaining = counts[virtual].astype(np.int64)
            try:
                prepared = engine._prepare_round(virtual, remaining, True)
                if prepared is None:
                    continue
                virtual, remaining, pas, das, finals = prepared
                if has_failed[i] and engine.chip.failed[finals].any():
                    # Dead blocks in the epoch's write set: the engine's
                    # own rounds handle exposure/retry byte-identically.
                    engine._software_rounds(
                        virtual, remaining, first_round=False,
                        rounds=_round_limit(engine), prepared=prepared)
                    has_failed[i] = self.failed[i].any()
                    continue
            except CapacityExhaustedError as exc:
                self._abort(i, exc, aborted, stage="software")
                continue
            np.add.at(self.wear[i], finals, remaining)
            engine.chip.total_device_writes += int(remaining.sum())
            if redirected:
                engine._redirected_traffic += int(
                    remaining[finals != das].sum())
            pending[i] = (virtual, remaining, pas, das, finals)
            check.append(i)

        # One vectorized scan across the cell axis replaces N per-cell
        # unique+resolve passes; only cells with an actual crossing (or an
        # un-rehomed ECC) run the exact resolve/settle machinery.
        for i in self._crossed(check):
            engine = engines[i]
            virtual, remaining, pas, das, finals = pending[i]
            try:
                newly = engine.chip._resolve_threshold_crossings(
                    np.unique(finals))
                if newly.size:
                    has_failed[i] = True
                exposed = np.zeros(finals.shape[0], dtype=bool)
                virtual, remaining = engine._settle_round(
                    virtual, remaining, pas, das, finals, exposed, newly)
                if virtual.size:
                    engine._rebuild_redirect()
                    engine._software_rounds(
                        virtual, remaining, first_round=False,
                        rounds=_round_limit(engine) - 1)
                    has_failed[i] = self.failed[i].any()
            except CapacityExhaustedError as exc:
                self._abort(i, exc, aborted, stage="software")
        software_seconds = time.perf_counter() - software_start  # repro: allow(DET-WALLCLOCK): phase profile only, stripped from compared payloads

        # --- migration phase ------------------------------------------------
        migration_start = time.perf_counter()  # repro: allow(DET-WALLCLOCK): phase profile only, stripped from compared payloads
        mig_pending: Dict[int, np.ndarray] = {}
        mig_check: List[int] = []
        for i in active:
            if i in aborted:
                continue
            engine = engines[i]
            engine.total_writes += batches[i]
            if _has_links(engine):
                engine._rebuild_redirect()
            wl = engine.wl
            if wl.frozen:
                continue
            due = wl.schedule_due(engine.total_writes)
            if due <= 0:
                continue
            rows = wl.bulk_migrations(due)
            if rows.size == 0:
                continue
            dsts = engine._redirect[rows[:, 1]]
            if has_failed[i]:
                dsts = dsts[~self.failed[i][dsts]]
                if dsts.size == 0:
                    continue
            np.add.at(self.wear[i], dsts, 1)
            engine.chip.total_device_writes += int(dsts.size)
            mig_pending[i] = dsts
            mig_check.append(i)

        for i in self._crossed(mig_check):
            engine = engines[i]
            try:
                newly = engine.chip._resolve_threshold_crossings(
                    np.unique(mig_pending[i]))
                engine._process_failures(newly, migration=True)
            except CapacityExhaustedError as exc:
                self._abort(i, exc, aborted, stage="migration")
        migration_seconds = time.perf_counter() - migration_start  # repro: allow(DET-WALLCLOCK): phase profile only, stripped from compared payloads

        # --- bookkeeping ----------------------------------------------------
        survivors = [i for i in active if i not in aborted]
        share = 1.0 / max(1, len(survivors))
        for i in survivors:
            engine = engines[i]
            engine._note_phase("redirect-rebuild", 0.0)
            engine._note_phase("redirect-rebuild", 0.0)
            engine._note_phase("software-apply", software_seconds * share)
            engine._note_phase("wear-leveling", migration_seconds * share)
            engine._note_epoch(batches[i])
            engine._sample()
        return survivors

    def _crossed(self, cells: List[int]) -> List[int]:
        """Cells with any live block at/over threshold (input order kept).

        ``_always_resolve`` cells are included unconditionally — the
        per-cell path resolves them every epoch, so they must here too.
        """
        if not cells:
            return []
        rows = np.asarray(cells, dtype=np.int64)
        hot = ((self.wear[rows] >= self.thresholds[rows])
               & ~self.failed[rows]).any(axis=1)
        hot |= self._always_resolve[rows]
        return [i for i, flag in zip(cells, hot.tolist()) if flag]

    def _abort(self, i: int, exc: CapacityExhaustedError, aborted: Set[int],
               stage: str) -> None:
        """End cell *i* mid-epoch exactly like the per-cell exception path.

        The per-cell telemetry context managers credit every phase entered
        before the exception, so the credits here depend on the stage that
        raised; the epoch counters are never credited for a partial epoch.
        """
        engine = self.engines[i]
        engine.stop = StopReason(StopCause.EXHAUSTED, str(exc))
        engine._note_phase("redirect-rebuild", 0.0)
        engine._note_phase("software-apply", 0.0)
        if stage == "migration":
            engine._note_phase("redirect-rebuild", 0.0)
            engine._note_phase("wear-leveling", 0.0)
        engine._sample()
        aborted.add(i)


# ----------------------------------------------------------- cell registry

#: ``build(**kwargs)`` returns the cell's engine (optionally paired with an
#: opaque context the finisher needs), or ``None`` to decline batching;
#: ``finish(engine, summary, context)`` turns a completed run into the cell
#: payload the grid expects.
@dataclass
class BatchableSpec:
    build: Callable[..., Any]
    finish: Callable[[FastEngine, LifetimeSummary, Any], Any]


_REGISTRY: Dict[str, BatchableSpec] = {}


def register_batchable(fn_ref: str,
                       build: Callable[..., Any],
                       finish: Callable[[FastEngine, LifetimeSummary, Any],
                                        Any]) -> None:
    """Declare ``module:function`` grid cells batchable via build/finish."""
    _REGISTRY[fn_ref] = BatchableSpec(build=build, finish=finish)


def _resolve_fn(fn_ref: str) -> Callable[..., Any]:
    module_name, _, attr = fn_ref.partition(":")
    module = importlib.import_module(module_name)
    fn = getattr(module, attr, None)
    if not callable(fn):
        raise ConfigurationError(f"cell function {fn_ref!r} is not callable")
    return fn


def is_batchable(fn_ref: str) -> bool:
    """Whether a grid cell function has a registered batchable spec.

    Importing the module is enough: registration happens at import time.
    """
    if fn_ref in _REGISTRY:
        return True
    module_name, sep, _ = fn_ref.partition(":")
    if not sep:
        return False
    try:
        importlib.import_module(module_name)
    except ImportError:
        return False
    return fn_ref in _REGISTRY


def run_cell_batch(fn_ref: str,
                   items: Sequence[Tuple[str, Dict[str, Any]]]
                   ) -> List[Tuple[str, Any]]:
    """Run a group of same-function grid cells through one lockstep kernel.

    ``items`` is ``[(key, kwargs), ...]``; the return preserves input
    order.  Cells whose build declines (returns ``None``) or yields a
    non-conforming engine run through the original cell callable instead,
    so mixed groups still complete.
    """
    spec = _REGISTRY.get(fn_ref)
    if spec is None and is_batchable(fn_ref):
        spec = _REGISTRY[fn_ref]
    if spec is None:
        raise ConfigurationError(f"cell function {fn_ref!r} is not batchable")
    results: Dict[str, Any] = {}
    fallback: Optional[Callable[..., Any]] = None
    built: List[Tuple[str, FastEngine, Any]] = []
    for key, kwargs in items:
        made = spec.build(**kwargs)
        engine, context = (made if isinstance(made, tuple)
                           else (made, None))
        if type(engine) is not FastEngine:
            if fallback is None:
                fallback = _resolve_fn(fn_ref)
            results[key] = fallback(**kwargs)
            continue
        built.append((key, engine, context))
    groups: Dict[int, List[Tuple[str, FastEngine, Any]]] = {}
    for entry in built:
        groups.setdefault(entry[1].chip.num_blocks, []).append(entry)
    for group in groups.values():
        if len(group) == 1:
            key, engine, context = group[0]
            results[key] = spec.finish(engine, engine.run(), context)
            continue
        summaries = BatchedEngine([e for _, e, _ in group]).run()
        for (key, engine, context), summary in zip(group, summaries):
            results[key] = spec.finish(engine, summary, context)
    return [(key, results[key]) for key, _ in items]

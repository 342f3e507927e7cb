"""Simulation engines and metrics.

Two engines drive the same component stack at different fidelities:

* :class:`~repro.sim.engine.ExactEngine` — one software write at a time
  through a full :class:`~repro.mc.controller.BaseController`, with
  per-request access accounting, optional data-consistency verification,
  and invariant checking.  Used by tests, Table II, and small studies.
* :class:`~repro.sim.fast.FastEngine` — vectorized epoch simulation for
  lifetime-scale runs (Figures 5-8): writes are applied as batched
  per-block counts, wear-leveling advances in bulk, and failures are
  processed per batch.  Wear outcomes match the exact engine's shape; an
  agreement test pins the two together on small configurations.

:class:`~repro.sim.batched.BatchedEngine` advances N fresh fast engines
in lockstep with struct-of-arrays state (campaigns, batched grids); its
results are byte-identical to N separate ``FastEngine.run()`` calls.

:mod:`~repro.sim.metrics` defines the collectors both engines feed
(survival-rate and usable-space series, lifetime summaries).
"""

from .metrics import LifetimeSeries, LifetimeSummary, SamplePoint
from .batched import BatchedEngine, register_batchable
from .engine import ExactEngine
from .fast import FastEngine, FastConfig
from .stop import EndOfLifeReport, StopCause, StopReason
from .wearstats import WearReport, endurance_utilization, gini, wear_cov

__all__ = [
    "LifetimeSeries", "LifetimeSummary", "SamplePoint",
    "BatchedEngine", "register_batchable",
    "ExactEngine", "FastEngine", "FastConfig",
    "EndOfLifeReport", "StopCause", "StopReason",
    "WearReport", "endurance_utilization", "gini", "wear_cov",
]

"""Codebase-specific static analysis for the WL-Reviver reproduction.

Every rule in :mod:`repro.analysis.rules` bans a bug class that actually
shipped (and was fixed in a past PR) or that silently breaks a guarantee the
package documents:

* **RAW-GEOM** — raw ``blocks_per_page`` address arithmetic outside the
  two page-geometry owners (:class:`~repro.osmodel.allocator.PagePool` and
  :mod:`repro.units`).
* **RNG-DET** — module-level ``np.random.*`` / stdlib ``random`` instead of
  seeded :class:`numpy.random.Generator` streams from :mod:`repro.rng`.
* **LINK-MUT** — mutation of :class:`~repro.reviver.links.LinkTable` /
  :class:`~repro.reviver.registers.SparePool` internals from outside
  :mod:`repro.reviver`.
* **EXC-SWALLOW** — bare or over-broad ``except`` clauses that can eat
  :class:`~repro.errors.ProtocolError`.
* **FLOAT-EQ** — float equality comparisons in metrics and experiment code.
* **FAULT-HOOK** — fault-injection hook plumbing that bypasses
  :mod:`repro.faultinject`'s registration contract.
* **TELEM-API** — telemetry counter/span misuse outside the
  :mod:`repro.telemetry` facade.
* **DET-WALLCLOCK** — wall-clock and unseeded-random reads
  (``time.time``, ``datetime.now``, ``random.*``) outside the
  telemetry-exempt modules.
* **HOOK-NONE** — ``inject``/``telem`` hook parameters that do not default
  to ``None`` or are called without an ``is not None`` guard.

Run it with ``python -m repro.analysis src tools benchmarks examples``
(exit code 0 = clean, 1 = findings, 2 = usage error).  A finding is
silenced by a same-line ``# repro: allow(RULE-ID): justification``
comment.
"""

from __future__ import annotations

from .core import Finding, Rule, SourceFile
from .rules import RULES
from .runner import lint_paths, lint_source

__all__ = ["Finding", "RULES", "Rule", "SourceFile", "lint_paths",
           "lint_source"]

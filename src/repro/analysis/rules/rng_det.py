"""RNG-DET: global random state instead of threaded Generator streams.

The parallel experiment harness guarantees bit-for-bit identical grids at
any ``--jobs`` value because every stochastic component draws from an
explicit :class:`numpy.random.Generator` derived via
:func:`repro.rng.derive_rng`.  One call into the *module-level* legacy API
(``np.random.rand``, ``np.random.shuffle``, ``np.random.seed``, stdlib
``random``) reads hidden process-global state and silently breaks that
guarantee — results then depend on worker scheduling.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from ..core import Finding, Rule, SourceFile

#: ``np.random.<name>`` attributes that are *not* global-state samplers:
#: constructors and seed plumbing the rng module itself builds on.
ALLOWED_NP_RANDOM = frozenset({
    "Generator", "BitGenerator", "SeedSequence",
    "default_rng", "PCG64", "PCG64DXSM", "Philox", "SFC64",
})

_NUMPY_ALIASES = frozenset({"np", "numpy"})


def _np_random_member(node: ast.Attribute) -> bool:
    """Whether *node* is an ``np.random.<x>`` / ``numpy.random.<x>`` access."""
    value = node.value
    return (isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in _NUMPY_ALIASES)


class DeterministicRngRule(Rule):
    """Ban module-level RNG state outside :mod:`repro.rng`."""

    id = "RNG-DET"
    summary = ("module-level np.random.* / stdlib random instead of a "
               "threaded repro.rng.derive_rng Generator")
    rationale = ("global RNG state breaks the bit-for-bit parallel-grid "
                 "guarantee of repro.experiments.parallel: results would "
                 "depend on process scheduling, not the seed")
    exempt_patterns: Tuple[str, ...] = ("*/repro/rng.py",)

    def check(self, src: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Attribute) and _np_random_member(node):
                if node.attr not in ALLOWED_NP_RANDOM:
                    findings.append(self.finding(
                        src, node,
                        f"np.random.{node.attr} uses hidden global state; "
                        f"thread a Generator from repro.rng.derive_rng"))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        findings.append(self.finding(
                            src, node,
                            "stdlib random is process-global; thread a "
                            "numpy Generator from repro.rng.derive_rng"))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    findings.append(self.finding(
                        src, node,
                        "stdlib random is process-global; thread a "
                        "numpy Generator from repro.rng.derive_rng"))
        return findings

"""The nine lint rules, one module each.

Each rule's fixtures live in ``tests/test_analysis_rules.py``: a rule only
exists here because the bug class it bans either shipped in a past PR or
breaks a documented guarantee.
"""

from __future__ import annotations

from typing import Tuple

from ..core import Rule
from .det_wallclock import WallClockRule
from .exc_swallow import ExceptionSwallowRule
from .fault_hook import FaultHookRule
from .float_eq import FloatEqualityRule
from .hook_none import HookNoneRule
from .link_mut import LinkMutationRule
from .raw_geom import RawGeometryRule
from .rng_det import DeterministicRngRule
from .telem_api import TelemApiRule

#: One instance of every rule, sorted by id.
RULES: Tuple[Rule, ...] = (
    WallClockRule(), ExceptionSwallowRule(), FaultHookRule(),
    FloatEqualityRule(), HookNoneRule(), LinkMutationRule(),
    RawGeometryRule(), DeterministicRngRule(), TelemApiRule())

__all__ = ["RULES"]

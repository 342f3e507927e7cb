"""Rule modules; importing this package registers every rule.

Each module owns one rule and its fixtures live in
``tests/test_analysis_rules.py``: a rule only exists here because the bug
class it bans either shipped in a past PR or breaks a documented guarantee.
"""

from __future__ import annotations

from . import (det_wallclock, exc_swallow, fault_hook, float_eq, hook_none,
               link_mut, raw_geom, rng_det, telem_api)

__all__ = ["det_wallclock", "exc_swallow", "fault_hook", "float_eq",
           "hook_none", "link_mut", "raw_geom", "rng_det", "telem_api"]

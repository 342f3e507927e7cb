"""Memory-controller layer.

The controller is where the paper's actors meet: it translates software
requests (virtual block -> PA via the OS pool -> DA via the wear-leveler),
routes accesses through failure redirections, accounts PCM accesses per
request (the unit of Table II), drives the wear-leveler's migration schedule
through a :class:`~repro.wl.base.MigrationPort`, and runs the recovery
protocol on write faults.

Two controllers implement the paper's configurations:

* :class:`~repro.mc.controller.ReviverController` — WL scheme + WL-Reviver;
* :class:`~repro.mc.controller.FreePController` — WL scheme + adapted
  FREE-p pre-reserved remap region (Figure 7).  With a zero-slot region it
  is the WL scheme alone, which *freezes* at the first block failure (the
  "-SG" curves).
"""

from .access import AccessResult, AccessStats
from .cache import RemapCache
from .controller import (
    BaseController,
    FreePController,
    ReviverController,
)

__all__ = [
    "AccessResult", "AccessStats", "RemapCache",
    "BaseController", "FreePController",
    "ReviverController",
]

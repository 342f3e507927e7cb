"""WL-Reviver: the paper's primary contribution (Section III).

The framework hides failed PCM blocks from the wear-leveling scheme by
linking each failed block to a *virtual shadow block* — a PA inside an OS
page retired after an access exception.  The WL scheme's own (changing)
PA-to-DA mapping supplies the second hop to the actual *shadow block*, so
shadow data participates in wear leveling and links never need rewriting.

Modules:

* :mod:`~repro.reviver.registers` — the spare-PA pool (the paper's pair of
  current/last registers, generalized to out-of-order consumption);
* :mod:`~repro.reviver.pages` — layout of acquired pages into the
  virtual-shadow section and the inverse-pointer section (Figure 4);
* :mod:`~repro.reviver.links` — the failed-block -> VPA link table and its
  inverse-pointer mirror, with metadata-write accounting;
* :mod:`~repro.reviver.chains` — the one chain walk and the reduction that
  keeps every chain at one step (the switches of Figures 2 and 3);
* :mod:`~repro.reviver.bitmap` — the replicated retired-page bitmap read at
  reboot;
* :mod:`~repro.reviver.invariants` — runtime checkers for Theorems 1-3;
* :mod:`~repro.reviver.reviver` — the :class:`WLReviver` orchestrator the
  memory controller drives.
"""

from .registers import SparePool
from .pages import PageLedger, AcquiredPage
from .links import LinkTable, MetadataWrite
from .chains import ChainResolver
from .bitmap import RetiredPageBitmap
from .invariants import InvariantChecker
from .reviver import WLReviver, FaultContext

__all__ = [
    "SparePool", "PageLedger", "AcquiredPage", "LinkTable", "MetadataWrite",
    "ChainResolver", "RetiredPageBitmap", "InvariantChecker",
    "WLReviver", "FaultContext",
]

"""Chain resolution and reduction.

A failed block's *chain* is the path to its data: failed DA -> (stored
pointer) -> virtual shadow PA -> (current mapping) -> shadow DA.  One
DA-to-PA link followed by one PA-to-DA mapping is a *step*.  Chains of more
than one step arise transiently in exactly two situations (Section III-B):

1. a software write finds the shadow block itself worn out and a new
   virtual shadow is allocated behind it (Figure 2(c));
2. a wear-leveling migration moves data into a failed block, i.e. a
   mapping change makes some linked virtual shadow PA point at a failed
   block (Figure 3(a)).

Both are repaired the same way: *switch* the virtual shadows of the two
failed blocks on the chain.  The first block ends one step from the healthy
shadow; the second ends *mutually linked* with its own virtual shadow — a
**PA-DA loop** — which is harmless because the looping PA is invisible to
software and Theorem 3 keeps migrations away.  The switch needs the inverse
mapping function (to find who points at a DA) and the inverse pointers (to
find the failed block owning a virtual shadow PA); both are available.

:meth:`ChainResolver.walk` is the one way anything follows a chain and
:meth:`ChainResolver.reduce` the repair, both over a
:class:`~repro.reviver.links.LinkTable` and the live mapping.
"""

from __future__ import annotations

from typing import Callable, Container, Optional, Tuple

from ..errors import ProtocolError
from .links import LinkTable


class ChainResolver:
    """Walks and repairs failure chains against the live mapping."""

    def __init__(self, links: LinkTable,
                 map_fn: Callable[[int], int],
                 is_failed: Callable[[int], bool]) -> None:
        self.links = links
        self.map_fn = map_fn
        self.is_failed = is_failed
        #: Chain switches performed (reporting; each is 2 pointer rewrites).
        self.switches = 0

    # ---------------------------------------------------------------- walking

    def walk(self, da: int, parked: Container[int] = ()
             ) -> Tuple[int, int, str, Optional[int]]:
        """Follow *da*'s chain without modifying it.

        Returns ``(stop_da, hops, outcome, shadow_pa)``.  The walk stops on
        a working block (``"healthy"``), a PA-DA loop whose content is
        garbage (``"loop"``), a failed block not linked yet
        (``"unlinked"``), or a failed block whose shadow PA is a key of
        *parked*, the store buffer (``"parked"``).  ``shadow_pa`` is set
        for ``loop`` and ``parked`` only.  An acyclic walk leaves each
        linked block once, so more hops than links is a longer cycle.
        """
        hops = 0
        limit = len(self.links)
        while self.is_failed(da):
            vpa = self.links.vpa_of(da)
            if vpa is None:
                return da, hops, "unlinked", None
            if vpa in parked:
                return da, hops, "parked", vpa
            nxt = self.map_fn(vpa)
            if nxt == da:
                return da, hops, "loop", vpa
            hops += 1
            if hops > limit:
                raise ProtocolError(f"chain cycle through failed block {da}")
            da = nxt
        return da, hops, "healthy", None

    # --------------------------------------------------------------- reducing

    def reduce(self, da: int) -> None:
        """Flatten *da*'s chain to at most one step.

        Every iteration that finds the next hop failed performs one switch,
        which pins that hop onto a PA-DA loop; progress is therefore strictly
        monotone and the walk terminates.  A next hop that failed moments
        ago and is not linked yet is left alone: once it is linked, its own
        failure handler re-flattens this chain (upstream reduction in
        WLReviver._link).
        """
        if not self.is_failed(da):
            return
        while True:
            vpa = self.links.vpa_of(da)
            if vpa is None:
                raise ProtocolError(f"failed block {da} has no link")
            target = self.map_fn(vpa)
            if (target == da or not self.is_failed(target)
                    or self.links.vpa_of(target) is None):
                return
            # Two-step chain da -> vpa -> target -> ...: switch the two
            # failed blocks' virtual shadows (Figures 2(d) / 3(b)).
            self.links.switch(da, target)
            self.switches += 1

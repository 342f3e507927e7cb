"""Unit tests for the chain walk and reduction (Figures 2-3)."""

import pytest

from repro.config import ReviverConfig
from repro.errors import ProtocolError
from repro.reviver import ChainResolver, LinkTable, PageLedger


class World:
    """A toy mapping + failure state the resolver operates against."""

    def __init__(self, blocks: int = 16) -> None:
        self.mapping = {pa: pa for pa in range(blocks)}  # PA -> DA
        self.failed = set()
        ledger = PageLedger(ReviverConfig(), blocks_per_page=8,
                            block_bytes=64)
        ledger.claim(0, list(range(8)))
        ledger.claim(1, list(range(8, 16)))
        self.links = LinkTable(ledger)
        self.resolver = ChainResolver(self.links, self.map_fn,
                                      lambda da: da in self.failed)

    def map_fn(self, pa: int) -> int:
        return self.mapping[pa]


class TestResolve:
    """ChainResolver.walk: one case per outcome, plus the cycles it
    refuses."""

    def test_healthy_block_is_itself(self):
        world = World()
        assert world.resolver.walk(5) == (5, 0, "healthy", None)

    def test_one_step_chain(self):
        world = World()
        world.failed.add(10)
        world.mapping[2] = 12           # vpa 2 -> shadow 12
        world.links.link(10, 2)
        assert world.resolver.walk(10) == (12, 1, "healthy", None)

    def test_loop_detected(self):
        world = World()
        world.failed.add(10)
        world.mapping[2] = 10           # vpa maps back to the failed block
        world.links.link(10, 2)
        assert world.resolver.walk(10) == (10, 0, "loop", 2)

    def test_unlinked_failed_block_stops_the_walk(self):
        world = World()
        world.failed.update({10, 11})
        world.mapping[2] = 11           # d10 -> vpa2 -> d11 (not linked)
        world.links.link(10, 2)
        assert world.resolver.walk(11) == (11, 0, "unlinked", None)
        assert world.resolver.walk(10) == (11, 1, "unlinked", None)

    def test_parked_shadow_stops_the_walk(self):
        """A shadow PA whose datum is in the store buffer ends the walk
        before the (possibly unlinked) block it maps onto is reached."""
        world = World()
        world.failed.update({10, 11})
        world.mapping[2] = 11
        world.links.link(10, 2)
        assert world.resolver.walk(10, parked={2: 77}) == (10, 0, "parked", 2)
        assert world.resolver.walk(10, parked={3: 77})[2] == "unlinked"

    def test_two_step_chain_walks(self):
        world = World()
        world.failed.update({10, 11})
        world.mapping[2] = 11           # d10 -> vpa2 -> d11
        world.mapping[3] = 13           # d11 -> vpa3 -> d13 (healthy)
        world.links.link(10, 2)
        world.links.link(11, 3)
        assert world.resolver.walk(10) == (13, 2, "healthy", None)

    def test_two_cycle_raises(self):
        """Two swapped loops: d10 -> vpa2 -> d11 -> vpa3 -> d10."""
        world = World()
        world.failed.update({10, 11})
        world.mapping[2] = 11
        world.mapping[3] = 10
        world.links.link(10, 2)
        world.links.link(11, 3)
        with pytest.raises(ProtocolError, match="cycle"):
            world.resolver.walk(10)

    def test_cycle_behind_the_start_raises(self):
        """d8 -> d10 -> d11 -> d10: the cycle need not include the start."""
        world = World()
        world.failed.update({8, 10, 11})
        world.mapping[4] = 10
        world.mapping[2] = 11
        world.mapping[3] = 10
        world.links.link(8, 4)
        world.links.link(10, 2)
        world.links.link(11, 3)
        with pytest.raises(ProtocolError, match="cycle"):
            world.resolver.walk(8)


class TestReduce:
    def test_reduce_flattens_two_step_chain(self):
        """The Figure 3 switch: after reduce, d10 is one step from the
        healthy shadow and d11 sits on a PA-DA loop."""
        world = World()
        world.failed.update({10, 11})
        world.mapping[2] = 11
        world.mapping[3] = 13
        world.links.link(10, 2)
        world.links.link(11, 3)
        world.resolver.reduce(10)
        assert world.resolver.walk(10) == (13, 1, "healthy", None)
        # Pointers switched: d10 -> vpa3, d11 -> vpa2 (a loop: map(2)=11).
        assert world.links.vpa_of(10) == 3
        assert world.links.vpa_of(11) == 2
        assert world.resolver.walk(11)[2] == "loop"
        assert world.resolver.switches == 1

    def test_reduce_healthy_is_noop(self):
        world = World()
        world.resolver.reduce(5)
        assert world.resolver.switches == 0

    def test_reduce_one_step_is_stable(self):
        world = World()
        world.failed.add(10)
        world.mapping[2] = 12
        world.links.link(10, 2)
        world.resolver.reduce(10)
        assert world.links.vpa_of(10) == 2
        assert world.resolver.switches == 0

    def test_reduce_three_step_chain(self):
        world = World()
        world.failed.update({8, 9, 10})
        world.mapping[2] = 9    # d8 -> vpa2 -> d9
        world.mapping[3] = 10   # d9 -> vpa3 -> d10
        world.mapping[4] = 14   # d10 -> vpa4 -> d14 (healthy)
        world.links.link(8, 2)
        world.links.link(9, 3)
        world.links.link(10, 4)
        world.resolver.reduce(8)
        assert world.resolver.walk(8) == (14, 1, "healthy", None)
        # Both intermediate blocks ended on loops.
        assert world.resolver.walk(9)[2] == "loop"
        assert world.resolver.walk(10)[2] == "loop"
        assert world.resolver.switches == 2

    def test_reduce_stops_at_unlinked_fresh_failure(self):
        """A chain ending at a not-yet-linked block is left for the
        in-flight failure handler (transient state)."""
        world = World()
        world.failed.update({10, 11})
        world.mapping[2] = 11
        world.links.link(10, 2)          # d11 is failed but unlinked
        world.resolver.reduce(10)
        assert world.links.vpa_of(10) == 2
        assert world.resolver.switches == 0

    def test_reduce_leaves_a_loop(self):
        world = World()
        world.failed.add(10)
        world.mapping[2] = 10
        world.links.link(10, 2)
        world.resolver.reduce(10)
        assert world.resolver.walk(10) == (10, 0, "loop", 2)
        assert world.resolver.switches == 0

    def test_reduce_unlinked_raises(self):
        world = World()
        world.failed.add(10)
        with pytest.raises(ProtocolError, match="no link"):
            world.resolver.reduce(10)

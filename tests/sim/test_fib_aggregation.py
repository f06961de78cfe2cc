"""Longest-prefix aggregation on the router FIB.

``Router.lookup_cached`` returns ``(entry, covering prefix)``; the
covering prefix delimits a forwarding-equivalence region, every address
of which must resolve to the same entry as the linear-scan
:meth:`Router.lookup` — the property the cohort walker's
cross-destination batching rests on.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.inet import IPv4Address, Prefix
from repro.sim import Network, Router
from repro.sim.fastwalk import walk_cohorts
from repro.sim.router import TimedOverride
from repro.tracer.probes import ParisUdpBuilder

from tests.sim.helpers import chain_network


def routed_pair():
    """An R -- sink pair so R can own egress interfaces."""
    net = Network()
    r = Router("R")
    up = r.add_interface("10.0.0.1")
    sink = Router("SINK")
    sink_if = sink.add_interface("10.0.0.2")
    net.add_node(r)
    net.add_node(sink)
    net.link(up, sink_if)
    return net, r, up


def random_table(r, iface, rng, n_routes):
    """Install ``n_routes`` random prefixes (plus a default) on ``r``."""
    r.add_default_route(iface)
    for __ in range(n_routes):
        length = rng.randint(1, 32)
        network = rng.getrandbits(32) & (
            ((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF) if length else 0)
        prefix = Prefix((IPv4Address(network), length))
        if any(e.prefix == prefix for e in r.table):
            continue
        if rng.random() < 0.2:
            r.add_unreachable_route(prefix)
        else:
            r.add_route(prefix, iface)


class TestAggregatedLookup:
    def test_pair_shape_and_containment(self):
        net, r, up = routed_pair()
        r.add_route("10.9.0.0/16", up)
        r.add_default_route(up)
        entry, prefix = r.lookup_cached(IPv4Address("10.9.1.2"), 0.0)
        assert entry.prefix == Prefix("10.9.0.0/16")
        assert prefix is not None
        assert prefix.contains(IPv4Address("10.9.1.2"))

    def test_region_shares_one_resolution(self):
        net, r, up = routed_pair()
        r.add_route("10.9.0.0/16", up)
        r.add_default_route(up)
        first = r.lookup_cached(IPv4Address("10.9.1.2"), 0.0)
        count = r.lookup_count
        second = r.lookup_cached(IPv4Address("10.9.1.3"), 0.0)
        # Same region, same entry object, and no further LPM resolution.
        assert second[0] is first[0]
        assert r.lookup_count == count

    def test_more_specific_route_splits_the_region(self):
        net, r, up = routed_pair()
        r.add_route("10.9.0.0/16", up)
        r.add_route("10.9.1.0/24", up)
        r.add_default_route(up)
        outer, outer_prefix = r.lookup_cached(IPv4Address("10.9.2.1"), 0.0)
        inner, inner_prefix = r.lookup_cached(IPv4Address("10.9.1.1"), 0.0)
        assert outer.prefix == Prefix("10.9.0.0/16")
        assert inner.prefix == Prefix("10.9.1.0/24")
        # The /16's covering region must not swallow the /24.
        assert not outer_prefix.contains(IPv4Address("10.9.1.1"))

    def test_overrides_bypass_every_memo(self):
        net, r, up = routed_pair()
        r.add_route("10.9.0.0/16", up)
        r.add_default_route(up)
        shadow = Router("S2")
        override_entry = r.table[0]
        r.add_override(TimedOverride(prefix=Prefix("10.9.0.0/16"),
                                     entry=override_entry, start=5.0))
        entry, prefix = r.lookup_cached(IPv4Address("10.9.1.2"), 0.0)
        assert prefix is None
        count = r.lookup_count
        r.lookup_cached(IPv4Address("10.9.1.2"), 0.0)
        assert r.lookup_count == count + 1  # uncached while overrides exist
        assert shadow.lookup_count == 0

    def test_table_change_invalidates_regions(self):
        net, r, up = routed_pair()
        r.add_default_route(up)
        before, __ = r.lookup_cached(IPv4Address("10.9.1.2"), 0.0)
        assert before.prefix == Prefix("0.0.0.0/0")
        r.add_route("10.9.0.0/16", up)
        after, __ = r.lookup_cached(IPv4Address("10.9.1.2"), 0.0)
        assert after.prefix == Prefix("10.9.0.0/16")

    def test_network_sums_route_lookups(self):
        net, r, up = routed_pair()
        r.add_default_route(up)
        base = net.route_lookups()
        r.lookup_cached(IPv4Address("10.9.1.2"), 0.0)
        assert net.route_lookups() == base + 1


class TestWalkEconomy:
    """The cohort walk must resolve through the covering-prefix index."""

    def test_region_costs_one_destination_in_a_cohort(self):
        """Eight destinations inside R1's and R2's covering region
        (10.9.0.0/17 under a /16 route) cost the LPM resolutions of one:
        a walk resolving through ``Router.lookup`` would pay per
        destination."""

        def lookups_after(dests):
            net, s, *_ = chain_network()
            probes = [ParisUdpBuilder(s.address, dst).build(ttl)
                      for dst in dests for ttl in range(1, 5)]
            net.apply_dynamics()
            walk_cohorts(net, [(s, probes)])
            return net.route_lookups()

        dests = [IPv4Address(f"10.9.0.{i}") for i in range(1, 9)]
        one = lookups_after(dests[:1])
        assert one > 0
        assert lookups_after(dests) == one


class TestTrieEquivalence:
    """The FIB walk must match the linear scan everywhere, and covering
    regions must be internally uniform and mutually disjoint."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_fib_matches_linear_scan(self, seed):
        rng = random.Random(seed)
        net, r, up = routed_pair()
        random_table(r, up, rng, n_routes=rng.randint(1, 12))
        reference = Router("REF")
        for dst in (IPv4Address(rng.getrandbits(32)) for __ in range(64)):
            entry, prefix = r.lookup_cached(dst, 0.0)
            assert entry is r.lookup(dst, 0.0)
            assert prefix.contains(dst)
        assert reference.lookup_count == 0

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_regions_are_uniform_and_disjoint(self, seed):
        rng = random.Random(seed)
        net, r, up = routed_pair()
        random_table(r, up, rng, n_routes=rng.randint(1, 10))
        regions: dict[Prefix, object] = {}
        for dst in (IPv4Address(rng.getrandbits(32)) for __ in range(48)):
            entry, prefix = r.lookup_cached(dst, 0.0)
            known = regions.setdefault(prefix, entry)
            assert known is entry
            # Probe the region's own corners: same entry throughout.
            low = prefix.network
            high = IPv4Address(int(prefix.network) + prefix.size - 1)
            assert r.lookup(low, 0.0) is entry
            assert r.lookup(high, 0.0) is entry
        prefixes = list(regions)
        for i, a in enumerate(prefixes):
            for b in prefixes[i + 1:]:
                assert not (a.contains(b.network) or b.contains(a.network))

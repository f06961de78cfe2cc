"""Prefix-aggregated transit plane: exactness and composition invariance.

Two properties anchor the batched walker:

1. **Inject equivalence** (seeded property test): a whole-cohort walk
   over a mixed-prefix destination set — NAT chains, faulted routers,
   and load balancers included — delivers exactly what sequential
   :meth:`Network.inject` calls deliver, modulo the documented
   order-only fields (IP Identification is masked; snapshots are
   sorted).  Per-packet balancers consume a shared draw stream in walk
   order, so they are exercised in the order-aligned single-probe
   regime, exactly like the fastwalk exactness suite.

2. **Composition invariance**: one vantage's deliveries — timestamps,
   forensics, every byte — are identical whether its probes walk alone
   or merged into a cross-vantage cohort.  This is the structural
   property behind the sharded-fleet byte-identity guarantee.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.inet import IPv4Address
from repro.sim import (
    Host,
    MeasurementHost,
    NatBox,
    Network,
    PerDestinationPolicy,
    PerFlowPolicy,
    PerPacketPolicy,
    Router,
)
from repro.sim.fastwalk import walk_cohorts
from repro.sim.faults import FaultProfile
from repro.tracer.probes import (
    ClassicUdpBuilder,
    ParisIcmpBuilder,
    ParisUdpBuilder,
)

from tests.sim.test_fastwalk import exact_snapshot, masked_snapshot


def scenario(seed, per_packet=False):
    """A seeded random internet-let with mixed-prefix destinations.

    S -- R0 -- R1 ... with, drawn from ``seed``: a per-flow (or
    per-packet) diamond, per-destination balancing, a NAT chain with a
    private inner router (the Fig. 5 shape), faulted routers (silent /
    zero-TTL / deferring and dropping ICMP rate limiters / burst loss),
    an unreachable route, and destination hosts spread over distinct
    /16 prefixes.  Quirky routers sit on single-ingress chain segments
    and never directly downstream of a zero-TTL forwarder, so cohort
    and inject orders agree per (node, client) — the regime the
    byte-identity claims cover.
    """
    rng = random.Random(seed)
    net = Network()
    s = MeasurementHost("S")
    s.add_interface("10.0.0.1")
    net.add_node(s)
    previous = s.interfaces[0]
    dests = []
    routers = []
    n_spine = rng.randint(3, 6)
    for i in range(n_spine):
        r = Router(f"R{i}", respond_from=rng.choice(["ingress", "first"]))
        up = r.add_interface(f"10.1.{i}.2")
        down = r.add_interface(f"10.1.{i + 1}.1")
        net.add_node(r)
        net.link(previous, up)
        r.add_default_route(up)
        routers.append((r, down))
        previous = down
    # Quirks on the spine: at most one per router, never on R0 (it
    # answers every TTL-1 probe and seeds the return path).
    quirky = rng.sample(range(1, n_spine), k=min(2, n_spine - 1))
    kinds = ["silent", "zero_ttl", "limit_defer", "limit_drop", "bursts"]
    for index in quirky:
        r, __ = routers[index]
        kind = rng.choice(kinds)
        if kind == "silent":
            r.faults = FaultProfile(silent=True)
        elif kind == "zero_ttl" and index + 1 in quirky:
            continue  # keep limiters out of a forwarder's shadow
        elif kind == "zero_ttl":
            r.faults = FaultProfile(zero_ttl_forwarding=True)
        elif kind == "limit_defer":
            r.faults = FaultProfile(icmp_rate_limit=25.0, icmp_burst=2,
                                    icmp_exhausted="defer")
        elif kind == "limit_drop":
            r.faults = FaultProfile(icmp_rate_limit=0.01, icmp_burst=2)
        else:
            r.faults = FaultProfile(loss_burst_start=0.3,
                                    loss_burst_length=2.0,
                                    burst_seed=seed)
    # Destination stubs hang off the spine under distinct prefixes.
    spine_hosts = rng.randint(2, 4)
    for j in range(spine_hosts):
        r, down = routers[rng.randrange(len(routers))]
        host = Host(f"D{j}", udp_responds=rng.random() < 0.8)
        prefix = f"10.{20 + j}.0.0/16"
        h_if = host.add_interface(f"10.{20 + j}.0.1")
        edge = Router(f"E{j}")
        e_up = edge.add_interface(f"10.{20 + j}.1.1")
        e_down = edge.add_interface(f"10.{20 + j}.1.2")
        net.add_node(edge)
        net.add_node(host)
        stub_if = r.add_interface(f"10.{20 + j}.2.1")
        net.link(stub_if, e_up)
        net.link(e_down, h_if)
        edge.add_default_route(e_up)
        edge.add_route(prefix, e_down)
        for rr, __ in routers:
            rr.add_route(prefix, rr.interfaces[1])
        r.replace_route(prefix, stub_if)
        dests.append(host.address)
    # One diamond with a balancer policy off the last spine router.
    tail_r, tail_down = routers[-1]
    if per_packet:
        policy = PerPacketPolicy(seed=seed,
                                 mode=rng.choice(["random", "round-robin"]))
    elif rng.random() < 0.5:
        policy = PerFlowPolicy(salt=b"x")
    else:
        policy = PerDestinationPolicy(salt=b"y")
    l = Router("L")
    l_up = l.add_interface("10.40.0.2")
    l_a = l.add_interface("10.40.1.1")
    l_b = l.add_interface("10.40.2.1")
    a = Router("A")
    a_up = a.add_interface("10.40.1.2")
    a_down = a.add_interface("10.40.3.1")
    b = Router("B")
    b_up = b.add_interface("10.40.2.2")
    b_down = b.add_interface("10.40.4.1")
    m = Router("M", respond_from="first")
    m_a = m.add_interface("10.40.3.2")
    m_b = m.add_interface("10.40.4.2")
    m_down = m.add_interface("10.41.0.1")
    dhost = Host("DM")
    dm_if = dhost.add_interface("10.41.0.2")
    for node in (l, a, b, m, dhost):
        net.add_node(node)
    net.link(tail_down, l_up)
    net.link(l_a, a_up)
    net.link(l_b, b_up)
    net.link(a_down, m_a)
    net.link(b_down, m_b)
    net.link(m_down, dm_if)
    l.add_default_route(l_up)
    l.add_route("10.41.0.0/16", [l_a, l_b], policy)
    a.add_default_route(a_up)
    a.add_route("10.41.0.0/16", a_down)
    b.add_default_route(b_up)
    b.add_route("10.41.0.0/16", b_down)
    m.add_default_route(m_a)
    m.add_route("10.41.0.0/16", m_down)
    for rr, __ in routers:
        rr.add_route("10.41.0.0/16", rr.interfaces[1])
    dests.append(dhost.address)
    # A NAT chain (Fig. 5) behind the diamond join.
    nat = NatBox("N")
    n_ext = nat.add_interface("10.41.1.2")
    n_int = nat.add_interface("192.168.5.1")
    inner = Router("NR")
    nr_up = inner.add_interface("192.168.5.2")
    nr_down = inner.add_interface("10.42.0.1")
    nhost = Host("DN")
    nh_if = nhost.add_interface("10.42.0.2")
    for node in (nat, inner, nhost):
        net.add_node(node)
    m_nat = m.add_interface("10.41.1.1")
    net.link(m_nat, n_ext)
    net.link(n_int, nr_up)
    net.link(nr_down, nh_if)
    nat.add_default_route(n_ext)
    nat.add_route("10.42.0.0/16", n_int)
    inner.add_default_route(nr_up)
    inner.add_route("10.42.0.0/16", nr_down)
    m.add_route("10.42.0.0/16", m_nat)
    for rr, __ in routers:
        rr.add_route("10.42.0.0/16", rr.interfaces[1])
    l.add_route("10.42.0.0/16", [l_a, l_b], policy)
    a.add_route("10.42.0.0/16", a_down)
    b.add_route("10.42.0.0/16", b_down)
    dests.append(nhost.address)
    # An unreachable region the spine null-routes.
    routers[0][0].add_unreachable_route("10.66.0.0/16")
    dests.append(IPv4Address("10.66.0.9"))
    return net, s, dests


def cohort_for(source, dests, seed, max_ttl=12):
    """A shuffled mixed-builder TTL sweep toward every destination."""
    rng = random.Random(seed * 7 + 1)
    probes = []
    for k, dst in enumerate(dests):
        for builder in (ParisUdpBuilder(source, dst),
                        ClassicUdpBuilder(source, dst, pid=4000 + k),
                        ParisIcmpBuilder(source, dst)):
            probes.extend(builder.build(ttl)
                          for ttl in range(1, max_ttl + 1))
    rng.shuffle(probes)
    return probes


class TestInjectEquivalence:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_cohort_matches_sequential_injects(self, seed):
        net_a, s_a, dests_a = scenario(seed)
        net_b, s_b, dests_b = scenario(seed)
        assert [str(d) for d in dests_a] == [str(d) for d in dests_b]
        merged_deliveries, merged_drops = [], []
        for probe in cohort_for(s_a.address, dests_a, seed):
            one = net_a.inject(probe, s_a)
            merged_deliveries.extend(one.deliveries)
            merged_drops.extend(one.drops)
        net_b.apply_dynamics()
        cohort = walk_cohorts(
            net_b, [(s_b, cohort_for(s_b.address, dests_b, seed))])

        class _Merged:
            deliveries = merged_deliveries
            drops = merged_drops

        assert masked_snapshot(_Merged) == masked_snapshot(cohort)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_per_packet_single_probe_cohorts_are_byte_exact(self, seed):
        """Per-packet balancers share one draw stream: replayed one
        probe per cohort in inject order, everything matches to the
        byte — IP-ID allocation and balancer draws included."""
        net_a, s_a, dests_a = scenario(seed, per_packet=True)
        net_b, s_b, dests_b = scenario(seed, per_packet=True)
        probes_a = cohort_for(s_a.address, dests_a, seed, max_ttl=8)
        probes_b = cohort_for(s_b.address, dests_b, seed, max_ttl=8)
        for pa, pb in zip(probes_a, probes_b):
            legacy = net_a.inject(pa, s_a)
            net_b.apply_dynamics()
            fast = walk_cohorts(net_b, [(s_b, [pb])])
            assert exact_snapshot(legacy) == exact_snapshot(fast)


class _SourceOnlyFlow(PerFlowPolicy):
    """A policy subclass overriding ``flow_of`` (not the extractor)."""

    def flow_of(self, packet):
        from repro.net.flow import FlowId

        return FlowId(key=packet.ip.src.packed, describe="src-only")


class TestFlowOfOverride:
    def test_cohort_honours_flow_of_subclass(self):
        """The walker must classify through an overridden ``flow_of``
        exactly like the per-probe receive path: with a source-only
        flow, every probe of one vantage sticks to one branch."""
        from tests.sim.helpers import diamond_network, udp_probe

        net_a, s_a, *_ = diamond_network(policy=_SourceOnlyFlow())
        net_b, s_b, *_ = diamond_network(policy=_SourceOnlyFlow())
        probes = [udp_probe("10.0.0.1", "10.9.0.1", ttl=2,
                            dport=33400 + i, sport=40000 + i)
                  for i in range(6)]
        merged_deliveries, merged_drops = [], []
        for probe in probes:
            one = net_a.inject(probe, s_a)
            merged_deliveries.extend(one.deliveries)
            merged_drops.extend(one.drops)
        net_b.apply_dynamics()
        cohort = walk_cohorts(net_b, [(s_b, list(probes))])

        class _Merged:
            deliveries = merged_deliveries
            drops = merged_drops

        assert masked_snapshot(_Merged) == masked_snapshot(cohort)
        # And the source-only hash really pinned one branch: exactly
        # one responding interface across all six flows.
        assert len({dv.packet.src for dv in cohort.deliveries}) == 1


def two_vantage_world():
    """S1 and S2 behind one shared chain to a destination stub."""
    net = Network()
    s1 = MeasurementHost("S1")
    s1.add_interface("10.0.1.1")
    s2 = MeasurementHost("S2")
    s2.add_interface("10.0.2.1")
    core = Router("C", faults=FaultProfile(icmp_rate_limit=25.0,
                                           icmp_burst=1,
                                           icmp_exhausted="defer"))
    c_s1 = core.add_interface("10.0.1.2")
    c_s2 = core.add_interface("10.0.2.2")
    c_down = core.add_interface("10.0.3.1")
    r = Router("R")
    r_up = r.add_interface("10.0.3.2")
    r_down = r.add_interface("10.9.0.254")
    d = Host("D")
    d_if = d.add_interface("10.9.0.1")
    for node in (s1, s2, core, r, d):
        net.add_node(node)
    net.link(s1.interfaces[0], c_s1)
    net.link(s2.interfaces[0], c_s2)
    net.link(c_down, r_up)
    net.link(r_down, d_if)
    core.add_route("10.9.0.0/16", c_down)
    core.add_route("10.0.1.0/24", c_s1)
    core.add_route("10.0.2.0/24", c_s2)
    r.add_route("10.9.0.0/16", r_down)
    r.add_default_route(r_up)
    return net, s1, s2, d


def vantage_probes(source, dst, ttls=(1, 2, 3)):
    builder = ParisUdpBuilder(source, dst)
    return [builder.build(ttl) for ttl in ttls]


class TestCompositionInvariance:
    """A vantage's deliveries are a pure function of its own traffic."""

    def test_merged_cohort_reproduces_solo_walk_exactly(self):
        net_solo, s1_solo, __, d_solo = two_vantage_world()
        net_both, s1_both, s2_both, d_both = two_vantage_world()
        net_solo.apply_dynamics()
        net_both.apply_dynamics()
        solo = walk_cohorts(net_solo, [
            (s1_solo, vantage_probes(s1_solo.address, d_solo.address)),
        ])
        merged = walk_cohorts(net_both, [
            (s1_both, vantage_probes(s1_both.address, d_both.address)),
            (s2_both, vantage_probes(s2_both.address, d_both.address)),
        ])
        solo_s1 = [(dv.elapsed, dv.packet.build())
                   for dv in solo.deliveries if dv.node.name == "S1"]
        merged_s1 = [(dv.elapsed, dv.packet.build())
                     for dv in merged.deliveries if dv.node.name == "S1"]
        # Exact: same responses, same IP-IDs, same (deferred) timings,
        # in the same per-vantage order — composition cannot leak.
        assert solo_s1 == merged_s1
        # And vantage 2 did real work in the merged cohort (its own
        # responses exist and drew their own deferrals).
        assert any(dv.node.name == "S2" for dv in merged.deliveries)

    def test_submit_cohorts_buffers_like_per_socket_submits(self):
        net_a, s1_a, s2_a, d_a = two_vantage_world()
        net_b, s1_b, s2_b, d_b = two_vantage_world()
        net_a.submit_cohorts([
            (s1_a, vantage_probes(s1_a.address, d_a.address)),
            (s2_a, vantage_probes(s2_a.address, d_a.address)),
        ])
        net_b.submit_cohort(vantage_probes(s1_b.address, d_b.address), s1_b)
        net_b.submit_cohort(vantage_probes(s2_b.address, d_b.address), s2_b)
        net_a.clock.advance(5.0)
        net_b.clock.advance(5.0)
        got_a = [(t, dv.node.name, dv.packet.build())
                 for t, dv in net_a.deliveries()]
        got_b = [(t, dv.node.name, dv.packet.build())
                 for t, dv in net_b.deliveries()]
        # Same arrivals per vantage (global tie order may differ).
        for name in ("S1", "S2"):
            assert [e for e in got_a if e[1] == name] \
                == [e for e in got_b if e[1] == name]

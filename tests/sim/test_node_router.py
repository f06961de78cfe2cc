"""Tests for node primitives and router forwarding behaviour."""

import pytest

from repro.errors import TopologyError
from repro.net import Packet, UDPHeader
from repro.net.icmp import (
    ICMPDestinationUnreachable,
    ICMPEchoReply,
    ICMPEchoRequest,
    ICMPTimeExceeded,
    UnreachableCode,
)
from repro.net.inet import IPv4Address
from repro.sim import FaultProfile, Network, PerFlowPolicy, Router
from repro.sim.node import Deliver, Drop, Node, Respond, Transmit
from repro.sim.router import RouteEntry, TimedOverride

from tests.sim.helpers import chain_network, diamond_network, udp_probe


class TestInterfaces:
    def test_labels_follow_paper_convention(self):
        r = Router("A")
        i0 = r.add_interface("10.0.0.1")
        i1 = r.add_interface("10.0.0.2")
        assert (i0.label, i1.label) == ("A0", "A1")

    def test_interface_lookup(self):
        r = Router("A")
        i0 = r.add_interface("10.0.0.1")
        assert r.interface(0) is i0
        with pytest.raises(TopologyError):
            r.interface(1)

    def test_owns(self):
        r = Router("A")
        r.add_interface("10.0.0.1")
        assert r.owns(IPv4Address("10.0.0.1"))
        assert not r.owns(IPv4Address("10.0.0.9"))


class TestIpIdCounter:
    def test_increments_per_generated_packet(self):
        net, s, r1, r2, d = chain_network()
        first = r1.make_time_exceeded(udp_probe(s.address, d.address, 1),
                                      r1.interface(0))
        second = r1.make_time_exceeded(udp_probe(s.address, d.address, 1),
                                       r1.interface(0))
        assert second.ip.identification == first.ip.identification + 1

    def test_wraps_at_16_bits(self):
        node = Node("X", ip_id_start=0xFFFF)
        node.add_interface("10.0.0.1")
        assert node.next_ip_id() == 0xFFFF
        assert node.next_ip_id() == 0

    def test_counters_are_per_node(self):
        net, s, r1, r2, d = chain_network()
        probe = udp_probe(s.address, d.address, 1)
        r1.make_time_exceeded(probe, r1.interface(0))
        r1.make_time_exceeded(probe, r1.interface(0))
        assert r2.peek_ip_id() == 0


class TestIcmpFactories:
    def test_time_exceeded_quotes_received_ttl(self):
        net, s, r1, r2, d = chain_network()
        probe = udp_probe(s.address, d.address, ttl=1)
        response = r1.make_time_exceeded(probe, r1.interface(0))
        assert response.transport.probe_ttl == 1
        assert response.transport.quoted_payload == \
            probe.first_eight_transport_octets()

    def test_response_source_is_ingress_interface(self):
        net, s, r1, r2, d = chain_network()
        probe = udp_probe(s.address, d.address, 1)
        response = r1.make_time_exceeded(probe, r1.interface(1))
        assert response.src == r1.interface(1).address

    def test_fake_source_fault_overrides(self):
        r = Router("F", faults=FaultProfile(
            fake_source_address=IPv4Address("192.168.99.99")))
        r.add_interface("10.0.0.1")
        probe = udp_probe("10.0.0.9", "10.9.9.9", 1)
        response = r.make_time_exceeded(probe, r.interface(0))
        assert response.src == IPv4Address("192.168.99.99")

    def test_fake_source_string_becomes_address(self):
        profile = FaultProfile(fake_source_address="192.168.99.99")
        assert profile.fake_source_address == IPv4Address("192.168.99.99")
        assert type(profile.fake_source_address) is IPv4Address
        r = Router("F", faults=profile)
        r.add_interface("10.0.0.1")
        probe = udp_probe("10.0.0.9", "10.9.9.9", 1)
        response = r.make_time_exceeded(probe, r.interface(0))
        assert type(response.src) is IPv4Address
        assert Packet.parse(response.build()).src == response.src

    @pytest.mark.parametrize("ttl", [-1, 256, 300, 64.0, "255", True])
    def test_initial_ttl_checked_when_node_is_built(self, ttl):
        with pytest.raises(TopologyError):
            Router("A", icmp_initial_ttl=ttl)

    def test_response_ttl_is_initial_ttl(self):
        r = Router("A", icmp_initial_ttl=255)
        r.add_interface("10.0.0.1")
        probe = udp_probe("10.0.0.9", "10.9.9.9", 1)
        assert r.make_time_exceeded(probe, r.interface(0)).ttl == 255

    def test_echo_reply_mirrors_identifier_sequence(self):
        r = Router("A")
        r.add_interface("10.0.0.1")
        ping = Packet.make("10.0.0.9", "10.0.0.1",
                           ICMPEchoRequest(identifier=7, sequence=3))
        reply = r.make_echo_reply(ping, r.interface(0))
        assert isinstance(reply.transport, ICMPEchoReply)
        assert (reply.transport.identifier, reply.transport.sequence) == (7, 3)
        assert reply.src == IPv4Address("10.0.0.1")


class TestRoutingTable:
    def test_longest_prefix_wins(self):
        r = Router("A")
        up = r.add_interface("10.0.0.1")
        down = r.add_interface("10.0.1.1")
        r.add_default_route(up)
        r.add_route("10.9.0.0/16", down)
        assert r.lookup(IPv4Address("10.9.1.1"), 0).egresses == [down]
        assert r.lookup(IPv4Address("8.8.8.8"), 0).egresses == [up]

    def test_no_match_returns_none(self):
        r = Router("A")
        down = r.add_interface("10.0.1.1")
        r.add_route("10.9.0.0/16", down)
        assert r.lookup(IPv4Address("8.8.8.8"), 0) is None

    def test_multi_egress_requires_balancer(self):
        r = Router("A")
        i0 = r.add_interface("10.0.0.1")
        i1 = r.add_interface("10.0.1.1")
        with pytest.raises(TopologyError):
            r.add_route("10.9.0.0/16", [i0, i1])

    def test_foreign_egress_rejected(self):
        r = Router("A")
        other = Router("B")
        foreign = other.add_interface("10.0.0.2")
        with pytest.raises(TopologyError):
            r.add_route("10.9.0.0/16", foreign)

    def test_unreachable_route_shape(self):
        r = Router("A")
        entry = r.add_unreachable_route("10.9.0.0/16",
                                        UnreachableCode.NET_UNREACHABLE)
        assert entry.unreachable
        with pytest.raises(TopologyError):
            entry.choose_egress(udp_probe("10.0.0.9", "10.9.0.1", 5))

    def test_unreachable_route_cannot_have_egress(self):
        r = Router("A")
        i0 = r.add_interface("10.0.0.1")
        with pytest.raises(TopologyError):
            RouteEntry(prefix=None, egresses=[i0], unreachable=True)

    def test_override_beats_static_entry(self):
        from repro.net.inet import Prefix
        r = Router("A")
        up = r.add_interface("10.0.0.1")
        down = r.add_interface("10.0.1.1")
        r.add_route("10.9.0.0/16", down)
        r.add_override(TimedOverride(
            prefix=Prefix("10.9.0.0/16"),
            entry=RouteEntry(prefix=Prefix("10.9.0.0/16"), egresses=[up]),
            start=10.0,
        ))
        assert r.lookup(IPv4Address("10.9.0.1"), 5.0).egresses == [down]
        assert r.lookup(IPv4Address("10.9.0.1"), 10.0).egresses == [up]

    def test_override_window_expires(self):
        from repro.net.inet import Prefix
        r = Router("A")
        up = r.add_interface("10.0.0.1")
        down = r.add_interface("10.0.1.1")
        r.add_route("10.9.0.0/16", down)
        r.add_override(TimedOverride(
            prefix=Prefix("10.9.0.0/16"),
            entry=RouteEntry(prefix=Prefix("10.9.0.0/16"), egresses=[up]),
            start=1.0, end=2.0,
        ))
        assert r.lookup(IPv4Address("10.9.0.1"), 1.5).egresses == [up]
        assert r.lookup(IPv4Address("10.9.0.1"), 2.0).egresses == [down]

    def test_newer_override_wins(self):
        from repro.net.inet import Prefix
        r = Router("A")
        up = r.add_interface("10.0.0.1")
        down = r.add_interface("10.0.1.1")
        for start, iface in ((1.0, up), (5.0, down)):
            r.add_override(TimedOverride(
                prefix=Prefix("0.0.0.0/0"),
                entry=RouteEntry(prefix=Prefix("0.0.0.0/0"), egresses=[iface]),
                start=start,
            ))
        assert r.lookup(IPv4Address("10.9.0.1"), 6.0).egresses == [down]

    def test_clear_overrides(self):
        from repro.net.inet import Prefix
        r = Router("A")
        up = r.add_interface("10.0.0.1")
        r.add_override(TimedOverride(
            prefix=Prefix("0.0.0.0/0"),
            entry=RouteEntry(prefix=Prefix("0.0.0.0/0"), egresses=[up]),
            start=0.0,
        ))
        r.clear_overrides()
        assert r.lookup(IPv4Address("10.9.0.1"), 1.0) is None


class TestRouterReceive:
    def test_ttl_expiry_answers_time_exceeded(self):
        net, s, r1, r2, d = chain_network()
        probe = udp_probe(s.address, d.address, ttl=1)
        actions = r1.receive(probe, r1.interface(0), net)
        assert len(actions) == 1
        assert isinstance(actions[0], Respond)
        assert isinstance(actions[0].packet.transport, ICMPTimeExceeded)

    def test_forwarding_decrements_ttl(self):
        net, s, r1, r2, d = chain_network()
        probe = udp_probe(s.address, d.address, ttl=5)
        actions = r1.receive(probe, r1.interface(0), net)
        assert isinstance(actions[0], Transmit)
        assert actions[0].packet.ttl == 4

    def test_arriving_ttl_zero_answers_with_probe_ttl_zero(self):
        net, s, r1, r2, d = chain_network()
        probe = udp_probe(s.address, d.address, ttl=0)
        actions = r1.receive(probe, r1.interface(0), net)
        assert isinstance(actions[0], Respond)
        assert actions[0].packet.transport.probe_ttl == 0

    def test_zero_ttl_forwarding_fault(self):
        net, s, r1, r2, d = chain_network()
        r1.faults = FaultProfile(zero_ttl_forwarding=True)
        probe = udp_probe(s.address, d.address, ttl=1)
        actions = r1.receive(probe, r1.interface(0), net)
        assert isinstance(actions[0], Transmit)
        assert actions[0].packet.ttl == 0

    def test_silent_router_drops(self):
        net, s, r1, r2, d = chain_network()
        r1.faults = FaultProfile(silent=True)
        probe = udp_probe(s.address, d.address, ttl=1)
        actions = r1.receive(probe, r1.interface(0), net)
        assert isinstance(actions[0], Drop)

    def test_unreachable_route_answers_unreachable_above_ttl_one(self):
        net, s, r1, r2, d = chain_network()
        # /24 beats the working /16 entry by specificity.
        r1.add_unreachable_route("10.9.0.0/24")
        probe = udp_probe(s.address, d.address, ttl=5)
        actions = r1.receive(probe, r1.interface(0), net)
        assert isinstance(actions[0], Respond)
        assert isinstance(actions[0].packet.transport,
                          ICMPDestinationUnreachable)

    def test_unreachable_route_still_answers_ttl_one_normally(self):
        # The paper's "unreachability message" loop mechanism.
        net, s, r1, r2, d = chain_network()
        r1.add_unreachable_route("10.9.0.0/24")
        probe = udp_probe(s.address, d.address, ttl=1)
        actions = r1.receive(probe, r1.interface(0), net)
        assert isinstance(actions[0].packet.transport, ICMPTimeExceeded)

    def test_no_route_draws_unreachable(self):
        net = Network()
        r = Router("A")
        r.add_interface("10.0.0.2")
        net.add_node(r)
        probe = udp_probe("10.0.0.9", "10.99.0.1", ttl=5)
        actions = r.receive(probe, r.interface(0), net)
        assert isinstance(actions[0].packet.transport,
                          ICMPDestinationUnreachable)

    def test_icmp_error_never_draws_icmp_error(self):
        net, s, r1, r2, d = chain_network()
        te = r2.make_time_exceeded(udp_probe(s.address, d.address, 1),
                                   r2.interface(0))
        dying = Packet(ip=te.ip.with_ttl(1), transport=te.transport,
                       payload=te.payload)
        actions = r1.receive(dying, r1.interface(1), net)
        assert isinstance(actions[0], Drop)

    def test_probe_to_router_address_is_answered_locally(self):
        net, s, r1, r2, d = chain_network()
        probe = udp_probe(s.address, r1.interface(1).address, ttl=9)
        actions = r1.receive(probe, r1.interface(0), net)
        assert isinstance(actions[0], Respond)
        transport = actions[0].packet.transport
        assert isinstance(transport, ICMPDestinationUnreachable)
        assert transport.unreachable_code is UnreachableCode.PORT_UNREACHABLE

    def test_response_loss_fault_suppresses_answer(self):
        net, s, r1, r2, d = chain_network()
        r1.faults = FaultProfile(response_loss_rate=1.0)
        probe = udp_probe(s.address, d.address, ttl=1)
        actions = r1.receive(probe, r1.interface(0), net)
        assert isinstance(actions[0], Drop)


class TestBalancedForwarding:
    def test_per_flow_keeps_one_flow_on_one_path(self):
        net, s, l, a, b, m, d = diamond_network()
        probes = [udp_probe(s.address, d.address, ttl=t, dport=33435)
                  for t in range(2, 10)]
        egresses = {
            l.receive(p, l.interface(0), net)[0].interface.label
            for p in probes
        }
        assert len(egresses) == 1

    def test_per_flow_spreads_different_flows(self):
        net, s, l, a, b, m, d = diamond_network()
        egresses = {
            l.receive(udp_probe(s.address, d.address, 5, dport=33435 + i),
                      l.interface(0), net)[0].interface.label
            for i in range(64)
        }
        assert egresses == {"L1", "L2"}

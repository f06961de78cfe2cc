"""IP Identification disambiguation at the claim path.

Hop-parallel UDP MDA keeps byte-identical flows outstanding at several
TTLs at once and relies on each probe's unique IP Identification tag —
quoted verbatim in the ICMP error — to route every reply to the probe
that caused it.  These tests pin the edges of that mechanism: the
16-bit counter wrapping mid-run (skipping the untagged value 0),
quote-driven claim routing when the oldest-first heuristic would pick
the wrong probe, cross-vantage tag collisions held apart by the socket
fence, and stale quotes that must never claim a byte-identical
re-probe even when the tag matches.
"""

import pytest

from repro.engine.asyncsocket import AsyncProbeSocket
from repro.engine.scheduler import ProbeScheduler, StrategySpec
from repro.net.inet import IPv4Address, Prefix
from repro.probing import MdaStrategy
from repro.probing.strategy import ProbeRequest, ProbeStrategy
from repro.sim.socketapi import ProbeSocket
from repro.topology.builder import TopologyBuilder
from repro.tracer.multipath import MultipathDetector
from repro.tracer.paris import ParisTraceroute
from repro.vantage import ReplyDemux, VantageSocket

from tests.probing.test_mda_strategies import (
    discovery_signature,
    slow_branch_diamond,
)
from tests.sim.helpers import chain_network
from tests.tracer.test_multipath import wide_diamond


def mda_strategy(socket, destination, **kwargs):
    paris = ParisTraceroute(socket, seed=3)
    return MdaStrategy(
        make_builder=lambda i: paris.make_builder(destination,
                                                  flow_index=i),
        destination=destination, max_ttl=30,
        window=8, hop_concurrency=8, **kwargs)


def run_pipelined(net, source, strategy, timeout=None):
    """Drive ``strategy`` through the event engine; return its result."""
    kwargs = {} if timeout is None else {"timeout": timeout}
    async_socket = AsyncProbeSocket(net, source, **kwargs)
    scheduler = ProbeScheduler(net, source, socket=async_socket, **kwargs)
    scheduler.add_lane([StrategySpec(lambda __: strategy)])
    return scheduler.run()[0].result


def tap_ip_ids(strategy):
    """Record every tag the strategy draws, without changing them."""
    taken = []

    def tapped():
        value = MdaStrategy._take_ip_id(strategy)
        taken.append(value)
        return value

    strategy._take_ip_id = tapped
    return taken


class RecordingStrategy(ProbeStrategy):
    """Hand-authored probe stages for claim-path microscenarios.

    Emits one stage of :class:`ProbeRequest` at a time (the next stage
    only once the previous fully resolved) and records, per strategy
    token, the responder address or the timeout.
    """

    def __init__(self, stages):
        self._stages = [list(stage) for stage in stages]
        self._pending = set()
        self.addresses = {}
        self.timeouts = []

    def next_probes(self):
        if self._pending or not self._stages:
            return []
        batch = self._stages.pop(0)
        self._pending = {request.token for request in batch}
        return batch

    def on_reply(self, token, response, now):
        if token not in self._pending:
            return
        self._pending.discard(token)
        self.addresses[token] = response.packet.src

    def on_timeout(self, token, now):
        if token not in self._pending:
            return
        self._pending.discard(token)
        self.timeouts.append(token)

    @property
    def finished(self):
        return not self._pending and not self._stages

    def result(self):
        return self.addresses


class TestIpIdCounter:
    def test_counter_starts_at_one_and_increments(self):
        net, source, destination = wide_diamond(2)
        strategy = mda_strategy(ProbeSocket(net, source),
                                destination.address)
        assert strategy.disambiguation == "ip-id"
        assert [strategy._take_ip_id() for __ in range(3)] == [1, 2, 3]

    def test_wrap_skips_the_untagged_zero(self):
        net, source, destination = wide_diamond(2)
        strategy = mda_strategy(ProbeSocket(net, source),
                                destination.address)
        strategy._next_ip_id = 0xFFFE
        wrapped = [strategy._take_ip_id() for __ in range(4)]
        assert wrapped == [0xFFFE, 0xFFFF, 1, 2]

    def test_wrapped_counter_preserves_the_pipelined_inference(self):
        # A full trace whose tags wrap mid-run: every probe still
        # carries a unique-enough nonzero tag and the inference stays
        # byte-agreed with the stop-and-wait detector.
        net_seq, source_seq, dest_seq = wide_diamond(4)
        expected = MultipathDetector(
            ProbeSocket(net_seq, source_seq), seed=3).trace(
                dest_seq.address, max_ttl=4)

        net_pipe, source_pipe, dest_pipe = wide_diamond(4)
        strategy = mda_strategy(ProbeSocket(net_pipe, source_pipe),
                                dest_pipe.address)
        strategy._next_ip_id = 0xFFF8
        taken = tap_ip_ids(strategy)
        got = run_pipelined(net_pipe, source_pipe, strategy)

        assert discovery_signature(got) == discovery_signature(expected)
        assert 0 not in taken
        assert 0xFFFF in taken  # reached the top of the counter...
        assert 1 in taken       # ...and wrapped past the zero sentinel


class TestQuotedIdRouting:
    def test_quote_overrules_oldest_first_claiming(self):
        # Two byte-identical probes of one flow outstanding at TTL 1
        # and TTL 2, the *older* scheduler token belonging to the
        # deeper probe.  The TTL-1 reply lands first; oldest-first
        # alone would hand it to the deeper probe (its builder matches
        # — the transport bytes are identical), so only the quoted
        # IP Identification routes each reply to its true sender.
        net, source, __, ___, d = chain_network()
        paris = ParisTraceroute(ProbeSocket(net, source), seed=3)
        shallow_builder = paris.make_builder(d.address, flow_index=0)
        deep_builder = paris.make_builder(d.address, flow_index=0)
        deep = deep_builder.build(2).with_ip_identification(42)
        shallow = shallow_builder.build(1).with_ip_identification(41)
        assert (deep.first_eight_transport_octets()
                == shallow.first_eight_transport_octets())

        strategy = RecordingStrategy([[
            ProbeRequest(token=2, probe=deep, builder=deep_builder),
            ProbeRequest(token=1, probe=shallow, builder=shallow_builder),
        ]])
        run_pipelined(net, source, strategy)

        net_ref, source_ref, __, ___, d_ref = chain_network()
        ref_socket = ProbeSocket(net_ref, source_ref)
        ref_paris = ParisTraceroute(ref_socket, seed=3)
        hops = {}
        for ttl in (1, 2):
            builder = ref_paris.make_builder(d_ref.address, flow_index=0)
            hops[ttl] = ref_socket.send_probe(
                builder.build(ttl).build()).packet.src

        assert strategy.timeouts == []
        assert strategy.addresses == {1: hops[1], 2: hops[2]}
        assert hops[1] != hops[2]

    def test_stale_quote_never_claims_a_matching_reprobe(self):
        # The A branch's replies outlive the 0.5 s timeout.  A TTL-2
        # probe on an A-bound flow expires; a TTL-3 probe then reuses
        # the same flow *and the same IP Identification tag* (the
        # 16-bit counter reuses values across traces).  When A's late
        # quote finally arrives, tag and transport bytes both match the
        # outstanding re-probe — only the claim-time freshness fence
        # (implied send instant vs. the record's) rejects it.
        net_ref, source_ref = slow_branch_diamond()
        ref_socket = ProbeSocket(net_ref, source_ref, timeout=0.5)
        ref_paris = ParisTraceroute(ref_socket, seed=3)
        slow_flow = None
        for flow_index in range(16):
            builder = ref_paris.make_builder(IPv4Address("10.9.0.1"),
                                             flow_index=flow_index)
            response = ref_socket.send_probe(builder.build(2).build())
            if response is None:  # starred: the A branch swallowed it
                slow_flow = flow_index
                break
        assert slow_flow is not None
        deep_ref = ref_paris.make_builder(IPv4Address("10.9.0.1"),
                                          flow_index=slow_flow)
        deep_address = ref_socket.send_probe(
            deep_ref.build(3).build()).packet.src

        net, source = slow_branch_diamond()
        socket_paris = ParisTraceroute(ProbeSocket(net, source), seed=3)
        expired_builder = socket_paris.make_builder(
            IPv4Address("10.9.0.1"), flow_index=slow_flow)
        reprobe_builder = socket_paris.make_builder(
            IPv4Address("10.9.0.1"), flow_index=slow_flow)
        expired = expired_builder.build(2).with_ip_identification(77)
        reprobe = reprobe_builder.build(3).with_ip_identification(77)
        assert (expired.first_eight_transport_octets()
                == reprobe.first_eight_transport_octets())

        strategy = RecordingStrategy([
            [ProbeRequest(token=2, probe=expired, builder=expired_builder,
                          timeout=0.5)],
            [ProbeRequest(token=3, probe=reprobe, builder=reprobe_builder,
                          timeout=2.0)],
        ])
        run_pipelined(net, source, strategy, timeout=0.5)

        assert strategy.timeouts == [2]
        assert strategy.addresses == {3: deep_address}


def two_vantage_chain():
    """SA and SB behind router R1, then R2, then destination D."""
    builder = TopologyBuilder()
    sa = builder.source("SA", "10.0.0.1")
    sb = builder.source("SB", "10.0.1.1")
    r1 = builder.router("R1")
    r2 = builder.router("R2")
    destination = builder.host("D", "10.9.0.1")
    __, r1_a = builder.connect(sa, r1)
    __, r1_b = builder.connect(sb, r1)
    r1_down, r2_up = builder.connect(r1, r2)
    r2_down, __ = builder.connect(r2, destination)
    r1.add_route("10.9.0.0/16", r1_down)
    r1.add_route(Prefix(("10.0.0.1", 32)), r1_a)
    r1.add_route(Prefix(("10.0.1.1", 32)), r1_b)
    r2.add_route("10.9.0.0/16", r2_down)
    r2.add_default_route(r2_up)
    return builder.build(), sa, sb, destination


class TestCrossVantageCollisions:
    def test_colliding_tags_stay_fenced_per_socket(self):
        # Two vantages run MDA toward one destination on one scheduler.
        # Both strategies draw tags from their own counter, so the
        # very same (tag, flow) pairs are in flight from SA and SB at
        # overlapping instants; the per-socket claim fence must keep
        # every reply on the vantage it arrived at.
        network, sa, sb, destination = two_vantage_chain()
        demux = ReplyDemux(network)
        sock_a = VantageSocket(network, sa, demux)
        sock_b = VantageSocket(network, sb, demux)
        strategy_a = mda_strategy(sock_a, destination.address)
        strategy_b = mda_strategy(sock_b, destination.address)
        ids_a, ids_b = tap_ip_ids(strategy_a), tap_ip_ids(strategy_b)

        scheduler = ProbeScheduler(network, sa, socket=sock_a)
        scheduler.add_lane([StrategySpec(lambda __: strategy_a)],
                           socket=sock_a)
        scheduler.add_lane([StrategySpec(lambda __: strategy_b)],
                           socket=sock_b)
        outcomes = scheduler.run()
        got_a, got_b = outcomes[0].result, outcomes[1].result

        # The collision premise really held: shared tag values drawn.
        assert set(ids_a) & set(ids_b)

        for vantage in ("a", "b"):
            net_ref, sa_ref, sb_ref, dest_ref = two_vantage_chain()
            source_ref = sa_ref if vantage == "a" else sb_ref
            expected = MultipathDetector(
                ProbeSocket(net_ref, source_ref), seed=3).trace(
                    dest_ref.address, max_ttl=4)
            got = got_a if vantage == "a" else got_b
            assert (discovery_signature(got)
                    == discovery_signature(expected)), vantage

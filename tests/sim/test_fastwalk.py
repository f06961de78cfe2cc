"""The async network path: submit/deliveries and cohort-walk exactness."""

import pytest

from repro.sim.fastwalk import walk_cohorts
from repro.sim.network import WalkResult
from repro.topology import figures
from repro.tracer.probes import (
    ClassicUdpBuilder,
    ParisIcmpBuilder,
    ParisTcpBuilder,
    ParisUdpBuilder,
)

from tests.sim.helpers import chain_network, diamond_network, udp_probe

ALL_FIGURES = [
    ("figure1", figures.figure1),
    ("figure3", figures.figure3),
    ("figure4", figures.figure4),
    ("figure5", figures.figure5),
    ("figure6", figures.figure6),
]

#: Figures without stateful per-packet balancers: whole-cohort walks
#: are order-insensitive there (modulo IP-ID allocation, masked below).
PER_FLOW_FIGURES = [
    ("figure3", figures.figure3),
    ("figure4", figures.figure4),
    ("figure5", figures.figure5),
]


def mixed_probes(source, destination, max_ttl=11):
    """Probes of all four builders across a TTL sweep."""
    probes = []
    for builder in (ParisUdpBuilder(source, destination),
                    ClassicUdpBuilder(source, destination),
                    ParisIcmpBuilder(source, destination),
                    ParisTcpBuilder(source, destination)):
        probes.extend(builder.build(ttl) for ttl in range(1, max_ttl + 1))
    return probes


def exact_snapshot(result):
    return (sorted((d.elapsed, d.packet.build()) for d in result.deliveries),
            sorted((r.elapsed, r.reason) for r in result.drops))


def mask_ip_id(raw):
    """Zero IP Identification and header checksum (order-only fields)."""
    return raw[:4] + b"\0\0" + raw[6:10] + b"\0\0" + raw[12:]


def masked_snapshot(result):
    return (sorted((d.elapsed, mask_ip_id(d.packet.build()))
                   for d in result.deliveries),
            sorted((r.elapsed, r.reason) for r in result.drops))


class TestSingleProbeExactness:
    @pytest.mark.parametrize("name,make_fig", ALL_FIGURES,
                             ids=[f[0] for f in ALL_FIGURES])
    def test_byte_identical_to_inject_in_same_order(self, name, make_fig):
        """One-probe cohorts replayed in inject order match to the byte —
        IP-ID counters, per-packet balancer draws, everything."""
        fig_a, fig_b = make_fig(), make_fig()
        probes_a = mixed_probes(fig_a.source.address,
                                fig_a.destination_address)
        probes_b = mixed_probes(fig_b.source.address,
                                fig_b.destination_address)
        for pa, pb in zip(probes_a, probes_b):
            legacy = fig_a.network.inject(pa, fig_a.source)
            fig_b.network.apply_dynamics()
            fast = walk_cohorts(fig_b.network, [(fig_b.source, [pb])])
            assert exact_snapshot(legacy) == exact_snapshot(fast)


class TestCohortExactness:
    @pytest.mark.parametrize("name,make_fig", PER_FLOW_FIGURES,
                             ids=[f[0] for f in PER_FLOW_FIGURES])
    def test_whole_cohort_matches_injects(self, name, make_fig):
        fig_a, fig_b = make_fig(), make_fig()
        merged = WalkResult()
        for probe in mixed_probes(fig_a.source.address,
                                  fig_a.destination_address):
            one = fig_a.network.inject(probe, fig_a.source)
            merged.deliveries.extend(one.deliveries)
            merged.drops.extend(one.drops)
        fig_b.network.apply_dynamics()
        cohort = walk_cohorts(fig_b.network, [(
            fig_b.source,
            mixed_probes(fig_b.source.address, fig_b.destination_address),
        )])
        assert masked_snapshot(merged) == masked_snapshot(cohort)

    def test_diamond_balancer_decisions_match(self):
        net_a, s_a, *_ = diamond_network()
        net_b, s_b, *_ = diamond_network()
        probes = [udp_probe("10.0.0.1", "10.9.0.1", ttl=t, dport=33435 + t)
                  for t in range(1, 6)]
        merged = WalkResult()
        for probe in probes:
            one = net_a.inject(probe, s_a)
            merged.deliveries.extend(one.deliveries)
            merged.drops.extend(one.drops)
        net_b.apply_dynamics()
        cohort = walk_cohorts(net_b, [(s_b, list(probes))])
        assert masked_snapshot(merged) == masked_snapshot(cohort)


class TestSubmitApi:
    def test_submit_buffers_deliveries_until_due(self):
        net, s, *_ = chain_network()
        result = net.submit(udp_probe("10.0.0.1", "10.9.0.1", ttl=1), s)
        # The walk reports the delivery, but the buffer holds it until
        # the clock reaches its arrival time.
        assert len(result.deliveries) == 1
        arrival = net.next_delivery_at()
        assert arrival is not None
        assert net.deliveries(until=arrival - 1e-9) == []
        net.clock.advance_to(arrival)
        due = net.deliveries()
        assert len(due) == 1
        assert due[0][0] == pytest.approx(arrival)
        assert net.next_delivery_at() is None

    def test_submit_cohort_merges_walks(self):
        net, s, *_ = chain_network()
        probes = [udp_probe("10.0.0.1", "10.9.0.1", ttl=t)
                  for t in (1, 2, 3)]
        net.submit_cohort(probes, s)
        net.clock.advance(1.0)
        assert len(net.deliveries(node=s)) == 3

    def test_deliveries_filters_by_node(self):
        net, s, r1, r2, d = chain_network()
        net.submit(udp_probe("10.0.0.1", "10.9.0.1", ttl=1), s)
        net.clock.advance(1.0)
        assert net.deliveries(node=d) == []

    def test_walk_budget_reports_exhaustion(self):
        from repro.sim.network import MAX_WALK_STEPS
        net, s, *_ = chain_network()
        probe = udp_probe("10.0.0.1", "10.9.0.1", ttl=2)
        result = net.walk([(s, None, probe, 0.0, True)], budget=2)
        assert any("budget" in drop.reason for drop in result.drops)
        assert MAX_WALK_STEPS >= 1024

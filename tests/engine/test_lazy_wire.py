"""The pipelined path serialises only what something reads.

Probes reach the simulator as the :class:`Packet` objects the builders
made, and responses reach the strategies without their wire bytes:
``ProbeResponse.raw`` is produced the first time it is read.  Balancer
hashes and router quotes still come from real octets
(:meth:`Packet.transport_bytes`), which these counts do not include.
"""

import dataclasses

import pytest

from repro.engine.asyncsocket import AsyncProbeSocket
from repro.errors import TracerError
from repro.measurement import Campaign, CampaignConfig
from repro.measurement.destinations import select_pingable_destinations
from repro.net.packet import Packet
from repro.topology import InternetConfig, generate_internet
from repro.vantage import FleetConfig, run_fleet_sharded

from tests.sim.helpers import chain_network, udp_probe

CAMPAIGN_INTERNET = InternetConfig(
    seed=5, n_tier1=2, n_transit=3, n_stub=8, dests_per_stub=2,
    n_loop_stub_diamonds=2, n_cycle_stub_diamonds=1, n_nat_dests=1,
    n_zero_ttl_dests=1, response_loss_rate=0.0, p_per_packet=0.0)

FLEET_INTERNET = InternetConfig(
    seed=9, n_tier1=2, n_transit=2, n_stub=3, dests_per_stub=1,
    n_loop_stub_diamonds=1, n_cycle_stub_diamonds=0, n_nat_dests=0,
    n_zero_ttl_dests=0, response_loss_rate=0.0, p_per_packet=0.0,
    n_vantages=2)


@pytest.fixture
def builds(monkeypatch):
    """Every :meth:`Packet.build` call, in order."""
    calls = []
    build = Packet.build

    def counting(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(Packet, "build", counting)
    return calls


def test_pipelined_campaign_builds_no_packet(builds):
    topo = generate_internet(CAMPAIGN_INTERNET)
    destinations = select_pingable_destinations(
        topo.network, topo.source, topo.destination_addresses, seed=5)
    campaign = Campaign(topo.network, topo.source, destinations,
                        CampaignConfig(rounds=1, workers=4, seed=5,
                                       engine="pipelined"))
    del builds[:]
    result = campaign.run()
    assert sum(len(route.hops) for route in result.routes) > 0
    assert builds == []


def test_sharded_fleet_builds_no_packet(builds):
    result = run_fleet_sharded(FLEET_INTERNET,
                               FleetConfig(rounds=1, workers=2, seed=9),
                               shards=2)
    assert len(result.vantages) == 2
    assert all(v.result.routes for v in result.vantages)
    assert builds == []


def polled_response():
    net, s, r1, r2, d = chain_network()
    socket = AsyncProbeSocket(net, s)
    socket.send_nowait(udp_probe(s.address, d.address, ttl=1))
    socket.flush()
    net.clock.advance(1.0)
    (response,) = socket.poll()
    return response


def test_raw_is_serialised_on_read(builds):
    response = polled_response()
    assert builds == []
    assert response.raw == response.packet.build()
    assert builds


def test_replace_keeps_working():
    response = polled_response()
    later = dataclasses.replace(response, rtt=response.rtt + 1.0)
    assert later.rtt == response.rtt + 1.0
    assert later.packet is response.packet
    assert later.raw == response.raw == response.packet.build()


def test_send_nowait_still_checks_the_vantage_source():
    net, s, *_ = chain_network()
    socket = AsyncProbeSocket(net, s)
    foreign = udp_probe("10.66.0.9", "10.9.0.1", ttl=3)
    with pytest.raises(TracerError):
        socket.send_nowait(foreign)
    with pytest.raises(TracerError):
        socket.send_nowait(foreign.build())
    assert socket.probes_sent == 0

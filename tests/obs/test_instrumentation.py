"""Instrumentation edge cases at the scheduler/demux layer.

Each anomaly class — stale straggler, network duplicate, unmatched
reply, wrong-vantage surfacing — must increment exactly one labeled
series, keyed by the probing client.  Components bump their bound
registry children where the event happens, so a reset leaves no count
behind and the registry holds no reference to the components.
"""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.engine.scheduler import ProbeScheduler, TraceSpec
from repro.net.inet import Prefix
from repro.obs import MetricsRegistry
from repro.topology.builder import TopologyBuilder
from repro.tracer.paris import ParisTraceroute
from repro.vantage import ReplyDemux, VantageSocket

SA = "10.0.0.1"
SB = "10.0.1.1"

ANOMALY_FAMILIES = (
    "repro_scheduler_replies_stale_total",
    "repro_scheduler_replies_duplicate_total",
    "repro_scheduler_replies_unmatched_total",
)


def instrumented_world():
    """Two vantages behind one router, registry installed before any
    socket exists (construction-time binding)."""
    builder = TopologyBuilder()
    sa = builder.source("SA", SA)
    sb = builder.source("SB", SB)
    router = builder.router("R")
    dest = builder.host("D", "10.9.0.1")
    __, r_to_a = builder.connect(sa, router)
    __, r_to_b = builder.connect(sb, router)
    r_to_d, __ = builder.connect(router, dest)
    router.add_route(Prefix(("10.9.0.1", 32)), r_to_d)
    router.add_route(Prefix((SA, 32)), r_to_a)
    router.add_route(Prefix((SB, 32)), r_to_b)
    network = builder.build()
    network.metrics = MetricsRegistry()
    return network, sa, sb, dest


@pytest.fixture
def world():
    return instrumented_world()


def claimed_response(world):
    """Run one probe from SA to a claimed reply; return the pieces."""
    network, sa, sb, dest = world
    demux = ReplyDemux(network)
    sock_a = VantageSocket(network, sa, demux)
    sock_b = VantageSocket(network, sb, demux)
    scheduler = ProbeScheduler(network, sa, socket=sock_a, window=1)
    paris = ParisTraceroute(sock_a, seed=1)
    scheduler.add_lane([TraceSpec(paris, dest.address)], socket=sock_a)
    scheduler._start_next_trace(scheduler.lanes[0])
    scheduler._flush_sockets()
    response = sock_a.poll(until=10.0)[0]
    scheduler._on_response(response, sock_a)
    return network, scheduler, sock_a, sock_b, response


def anomaly_series(snapshot):
    return {name: snapshot.families.get(name, {"series": {}})["series"]
            for name in ANOMALY_FAMILIES}


class TestUnclaimedClassification:
    def test_duplicate_increments_exactly_one_series(self, world):
        network, scheduler, sock_a, __, response = claimed_response(world)
        # The same reply surfaces again: its keys are dead and its
        # implied send instant matches the claimed probe's.
        scheduler._on_response(response, sock_a)
        series = anomaly_series(network.metrics.snapshot())
        assert series["repro_scheduler_replies_duplicate_total"] \
            == {(SA,): 1}
        assert series["repro_scheduler_replies_stale_total"] == {(SA,): 0}
        assert series["repro_scheduler_replies_unmatched_total"] \
            == {(SA,): 0}

    def test_stale_increments_exactly_one_series(self, world):
        network, scheduler, sock_a, __, response = claimed_response(world)
        # Same dead keys but a shifted implied send: a late answer to a
        # probe that stopped waiting, not a copy of the claimed one.
        straggler = replace(response, rtt=response.rtt + 1.0)
        scheduler._on_response(straggler, sock_a)
        series = anomaly_series(network.metrics.snapshot())
        assert series["repro_scheduler_replies_stale_total"] == {(SA,): 1}
        assert series["repro_scheduler_replies_duplicate_total"] \
            == {(SA,): 0}
        assert series["repro_scheduler_replies_unmatched_total"] \
            == {(SA,): 0}

    def test_unmatched_increments_exactly_one_series(self, world):
        network, __, sock_a, ___, response = claimed_response(world)
        # A scheduler that never sent the probe: the reply matches no
        # key, live or dead.
        other = ProbeScheduler(network, sock_a.host, socket=sock_a,
                               window=1)
        other._on_response(response, sock_a)
        series = anomaly_series(network.metrics.snapshot())
        assert series["repro_scheduler_replies_unmatched_total"] \
            == {(SA,): 1}
        assert series["repro_scheduler_replies_stale_total"] == {(SA,): 0}
        assert series["repro_scheduler_replies_duplicate_total"] \
            == {(SA,): 0}

    def test_counts_stable_across_repeated_snapshots(self, world):
        network, scheduler, sock_a, __, response = claimed_response(world)
        scheduler._on_response(response, sock_a)
        first = network.metrics.snapshot()
        second = network.metrics.snapshot()
        for name in ("repro_scheduler_claims_total",
                     "repro_scheduler_replies_duplicate_total"):
            assert first.value(name, SA) == second.value(name, SA)
        assert second.value("repro_scheduler_claims_total", SA) == 1


class TestWrongVantage:
    def test_misrouted_delivery_counted_for_polling_client(self, world):
        network, sa, sb, dest = world
        demux = ReplyDemux(network)
        sock_a = VantageSocket(network, sa, demux)
        sock_b = VantageSocket(network, sb, demux)
        paris = ParisTraceroute(sock_a, seed=1)
        probe = paris.make_builder(dest.address).build(1)
        sock_a.send_nowait(probe.build())
        sock_a.flush()
        demux.drain(until=10.0)
        # Inject SA's reply into SB's inbox (the mis-route test hook).
        arrival, delivery = sock_a._inbox[0]
        demux.deliver(sb.name, arrival, delivery)
        sock_b.poll(until=10.0)
        sock_a.poll(until=10.0)
        snap = network.metrics.snapshot()
        fam = snap.families["repro_demux_wrong_vantage_total"]
        # Only the polling client that surfaced it counted; SA's own
        # legitimate poll left its (eagerly bound) series at zero.
        assert fam["series"] == {(SA,): 0, (SB,): 1}

    def test_socket_traffic_published_through_collector(self, world):
        network, scheduler, sock_a, __, ___ = claimed_response(world)
        snap = network.metrics.snapshot()
        assert snap.value("repro_probes_sent_total", SA) \
            == sock_a.probes_sent > 0
        assert snap.value("repro_responses_received_total", SA) \
            == sock_a.responses_received > 0


def is_zero(value):
    """True for a zero counter/gauge value or an empty histogram."""
    if isinstance(value, dict):
        return (value["count"] == 0 and value["sum"] == 0
                and not any(value["bucket_counts"]))
    return value == 0


class TestRegistryLifetime:
    def test_reset_leaves_nothing_behind(self, world):
        # No snapshot before the reset: every count taken so far must
        # already sit in a series the reset zeroes.
        network, __, sock_a, *___ = claimed_response(world)
        assert sock_a.probes_sent > 0
        network.reset_counters()
        snap = network.metrics.snapshot()
        leftovers = {(name, key): value
                     for name, fam in snap.families.items()
                     for key, value in fam["series"].items()
                     if not is_zero(value)}
        assert leftovers == {}
        # The series survive the reset, zeroed.
        assert snap.value("repro_probes_sent_total", SA) == 0
        assert snap.value("repro_scheduler_claims_total", SA) == 0

    def test_registry_keeps_no_scheduler_alive(self, world):
        network, sa, __, dest = world
        scheduler = ProbeScheduler(network, sa, window=1)
        paris = ParisTraceroute(scheduler.socket, seed=1)
        scheduler.add_lane([TraceSpec(paris, dest.address)])
        scheduler.run()
        claims = network.metrics.snapshot().value(
            "repro_scheduler_claims_total", SA)
        assert claims > 0
        alive = weakref.ref(scheduler)
        del scheduler
        gc.collect()
        assert alive() is None
        assert network.metrics.snapshot().value(
            "repro_scheduler_claims_total", SA) == claims

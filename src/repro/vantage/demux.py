"""Reply routing for many vantage points over one delivery buffer.

:meth:`repro.sim.network.Network.deliveries` pops *every* due delivery
and, when filtered to one node, discards the rest — the right stance
for a lone vantage point (packets addressed to a socket nobody holds
open), and exactly wrong for a fleet: vantage A's poll would silently
eat vantage B's replies.  :class:`ReplyDemux` is the fix: it pops the
network buffer once and routes each delivery to the inbox of the host
it was addressed to, discarding only deliveries for hosts no fleet
member registered.

:class:`VantageSocket` is the per-vantage non-blocking socket over that
demux — the same contract as
:class:`repro.engine.asyncsocket.AsyncProbeSocket` (``send_nowait`` /
``flush`` / ``poll``), but ``poll`` drains the shared demux and then
surfaces only its own host's arrivals, in global arrival order.  A
response duplicated by the network reaches its destination host's
inbox once per copy and no other inbox ever — duplication stays
per-vantage by construction.
"""

from __future__ import annotations

from collections import deque

from repro.engine.asyncsocket import AsyncProbeSocket
from repro.obs.registry import NULL_CHILD, active_registry
from repro.sim.endhost import MeasurementHost
from repro.sim.network import Delivery, Network
from repro.sim.socketapi import DEFAULT_TIMEOUT, ProbeResponse


class ReplyDemux:
    """Route buffered network deliveries to per-host inboxes.

    One instance per fleet.  Hosts register once (via
    :class:`VantageSocket`); each :meth:`drain` call pops every network
    delivery due by the horizon and appends it to the addressee's
    inbox.  Pops happen in the network buffer's ``(arrival, submission
    sequence)`` order, so every inbox is itself arrival-ordered and
    deterministic.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self._inboxes: dict[str, deque] = {}
        #: Deliveries dropped because no fleet member owned the
        #: addressee — diagnostics for tests and reports.
        self.discarded = 0
        registry = active_registry(network)
        self._m_discarded = (None if registry is None else registry.counter(
            "repro_demux_discarded_total",
            "Deliveries dropped for unregistered addressees, per client.",
            ("client",)))

    def register(self, host: MeasurementHost) -> deque:
        """Open (or return) the inbox routing ``host``'s deliveries."""
        return self._inboxes.setdefault(host.name, deque())

    def drain(self, until: float | None = None) -> None:
        """Pop due deliveries once and route them by receiving host."""
        for arrival, delivery in self.network.deliveries(until=until):
            inbox = self._inboxes.get(delivery.node.name)
            if inbox is None:
                self.discarded += 1
                if self._m_discarded is not None:
                    self._m_discarded.labels(delivery.packet.dst).inc()
            else:
                inbox.append((arrival, delivery))

    def deliver(self, host_name: str, arrival: float,
                delivery: Delivery) -> None:
        """Force a delivery into ``host_name``'s inbox directly.

        Test hook for adversarial scenarios (a reply surfacing at the
        wrong vantage's socket); normal traffic goes through
        :meth:`drain`.
        """
        self._inboxes[host_name].append((arrival, delivery))


class VantageSocket(AsyncProbeSocket):
    """A fleet member's non-blocking socket: own sends, demuxed polls."""

    def __init__(
        self,
        network: Network,
        host: MeasurementHost,
        demux: ReplyDemux,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        super().__init__(network, host, timeout=timeout)
        self.demux = demux
        self._inbox = demux.register(host)
        registry = active_registry(network)
        self._obs_on = registry is not None
        self._m_wrong_vantage = NULL_CHILD if registry is None else (
            registry.counter(
                "repro_demux_wrong_vantage_total",
                "Replies surfacing at a socket they were not addressed "
                "to, per polling client.",
                ("client",)).labels(str(host.address)))

    def poll(self, until: float | None = None) -> list[ProbeResponse]:
        """Responses that reached *this* vantage point by ``until``.

        Drains the shared demux first (routing every fleet member's due
        deliveries to their inboxes), then returns this host's arrivals
        up to the horizon.  Response construction matches the plain
        async socket: zero-copy packet, wire bytes serialised only when
        ``raw`` is read, ``rtt`` the walk's elapsed time.
        """
        horizon = self.network.clock.now if until is None else until
        self.demux.drain(until=horizon)
        responses: list[ProbeResponse] = []
        address = self.host.address
        while self._inbox and self._inbox[0][0] <= horizon:
            arrival, delivery = self._inbox.popleft()
            if self._obs_on and delivery.packet.dst != address:
                # A reply in this inbox that is not addressed to this
                # vantage can only come from a mis-routed injection
                # (the deliver() test hook or a buggy demux): count it
                # before surfacing — the scheduler's socket fence will
                # refuse the claim.
                self._m_wrong_vantage.inc()
            responses.append(ProbeResponse(
                packet=delivery.packet,
                rtt=delivery.elapsed,
                received_at=arrival,
            ))
        if responses:
            self.responses_received += len(responses)
            self._m_received.inc(len(responses))
        return responses

"""The non-blocking probe socket.

Same contract as :class:`repro.sim.socketapi.ProbeSocket` at the wire
boundary — probes sent as bytes are parsed (and validated) here, and
every probe must come from the vantage point — but nothing blocks:
:meth:`AsyncProbeSocket.send_nowait` stages a probe and returns
immediately with its delivery deadline, :meth:`flush` walks the staged
cohort through :meth:`Network.submit_cohort`, and :meth:`poll`
surfaces whatever responses have *arrived* by the given time.  Packets
cross in both directions as they are: a probe :class:`Packet` was
checked when it was made, and a response's wire bytes are serialised
only if something reads :attr:`ProbeResponse.raw`.  Matching responses
back to probes is the scheduler's job (it has the builders); the
socket only moves packets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.packet import Packet
from repro.obs.registry import NULL_CHILD, active_registry
from repro.sim.endhost import MeasurementHost
from repro.sim.network import Network
from repro.sim.socketapi import (
    DEFAULT_TIMEOUT,
    ProbeResponse,
    parse_probe,
    require_vantage_point,
    require_vantage_source,
)


@dataclass
class SentProbe:
    """A staged probe: its token, parsed form, and response deadline."""

    token: int
    packet: Packet
    sent_at: float
    deadline: float


class AsyncProbeSocket:
    """Send probe bytes without waiting; poll for arrived responses."""

    def __init__(
        self,
        network: Network,
        host: MeasurementHost,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        require_vantage_point(network, host)
        self.network = network
        self.host = host
        self.timeout = timeout
        self.probes_sent = 0
        self.responses_received = 0
        self._outbox: list[Packet] = []
        self._next_token = 0
        # probes_sent / responses_received stay plain ints (results
        # read them); the bound children mirror them at each event.
        registry = active_registry(network)
        if registry is None:
            self._m_sent = self._m_received = NULL_CHILD
        else:
            client = str(host.address)
            self._m_sent = registry.counter(
                "repro_probes_sent_total",
                "Probes staged for the wire, per probing client.",
                ("client",)).labels(client)
            self._m_received = registry.counter(
                "repro_responses_received_total",
                "Responses surfaced at the vantage point, per client.",
                ("client",)).labels(client)

    @property
    def source_address(self):
        """The vantage point's IP address (probe Source Address)."""
        return self.host.address

    def send_nowait(self, probe: bytes | Packet,
                    timeout: float | None = None) -> SentProbe:
        """Stage one probe for the next :meth:`flush`; never blocks.

        ``probe`` is wire bytes, parsed and validated as the blocking
        socket's are, or a :class:`Packet`, staged as it is: its fields
        were checked when it was made (:meth:`Packet.make`), so only
        the check that it comes from the vantage point runs.  The
        returned deadline is ``now + timeout`` — the instant after
        which silence becomes a star.
        """
        if isinstance(probe, Packet):
            require_vantage_source(probe, self.host)
        else:
            probe = parse_probe(probe, self.host)
        self.probes_sent += 1
        self._m_sent.inc()
        self._outbox.append(probe)
        now = self.network.clock.now
        wait = self.timeout if timeout is None else timeout
        sent = SentProbe(
            token=self._next_token,
            packet=probe,
            sent_at=now,
            deadline=now + wait,
        )
        self._next_token += 1
        return sent

    def take_staged(self) -> list[Packet]:
        """Hand over (and clear) the staged outbox without walking it.

        The scheduler's coalesced flush path: it collects every
        socket's staged probes and submits them through
        :meth:`Network.submit_cohorts` as one cross-vantage cohort.
        """
        outbox, self._outbox = self._outbox, []
        return outbox

    def flush(self) -> None:
        """Walk all staged probes as one cohort at the current instant."""
        if not self._outbox:
            return
        self.network.submit_cohort(self.take_staged(), at=self.host)

    def next_arrival_at(self) -> float | None:
        """When the earliest buffered delivery lands (any recipient)."""
        return self.network.next_delivery_at()

    def poll(self, until: float | None = None) -> list[ProbeResponse]:
        """Responses that reached the vantage point by ``until``.

        The packet is handed over zero-copy (it is a frozen dataclass)
        and ``raw`` serialises it only when read, which is where an
        event engine sheds the per-read allocation cost of the
        stop-and-wait socket's bytes→parse round trip.  ``rtt`` is the
        walk's elapsed time (send instant to arrival).
        """
        responses: list[ProbeResponse] = []
        for arrival, delivery in self.network.deliveries(until=until,
                                                         node=self.host):
            responses.append(ProbeResponse(
                packet=delivery.packet,
                rtt=delivery.elapsed,
                received_at=arrival,
            ))
        # Everything that reached the vantage point counts as received,
        # matched to a probe or not — the same stance the blocking
        # socket takes on deliveries it cannot tie to its probe.
        if responses:
            self.responses_received += len(responses)
            self._m_received.inc(len(responses))
        return responses

"""The raw-socket stand-in: how tracers talk to the simulated network.

A real traceroute builds probe packets with raw sockets and receives
ICMP responses asynchronously.  :class:`ProbeSocket` reproduces that
contract: it accepts *bytes* (which it parses with the same header
classes the tracer used to build them — any malformed probe fails here,
not deep inside a router), injects the packet at the measurement host,
and returns the response bytes that came back, if any, plus the
round-trip time.

Timing follows the paper's setup: the caller waits up to ``timeout``
(default 2 s) for a response; the shared clock advances by the RTT on
success and by the full timeout on silence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TracerError
from repro.net.packet import Packet
from repro.sim.endhost import MeasurementHost
from repro.sim.network import Network

#: The paper's per-hop response timeout: "waiting up to 2 sec. to
#: receive a reply at one hop before sending a probe to the subsequent
#: hop".
DEFAULT_TIMEOUT = 2.0


class _WireOnRead:
    """:attr:`ProbeResponse.raw`: the wire bytes, serialised on read.

    The field's default.  A response made without ``raw`` (the
    non-blocking sockets hand their packets over as they are) builds
    its packet's bytes the first time something reads ``raw``; one
    made with ``raw`` (the blocking socket, which re-parses the bytes
    it received) keeps them.
    """

    def __get__(self, response, owner=None):
        if response is None:
            return None
        raw = response.__dict__["_raw"]
        return response.packet.build() if raw is None else raw

    def __set__(self, response, raw) -> None:
        response.__dict__["_raw"] = raw


@dataclass
class ProbeResponse:
    """A response that reached the measurement host.

    ``raw`` is its wire form: given by the blocking socket, serialised
    from ``packet`` on first read for the non-blocking ones.
    """

    packet: Packet
    rtt: float
    received_at: float
    raw: bytes = _WireOnRead()


def require_vantage_point(network: Network, host: MeasurementHost) -> None:
    """Reject a vantage point that is not wired into ``network``."""
    if host.name not in network.nodes:
        raise TracerError(
            f"measurement host {host.name!r} is not part of the network"
        )


def require_vantage_source(probe: Packet, host: MeasurementHost) -> Packet:
    """Reject a probe whose Source Address is not the vantage point's."""
    if probe.src != host.address:
        raise TracerError(
            f"probe source {probe.src} is not the vantage point "
            f"address {host.address}"
        )
    return probe


def parse_probe(probe_bytes: bytes, host: MeasurementHost) -> Packet:
    """Parse and validate probe bytes at the socket boundary.

    Shared by the blocking and the non-blocking socket: the bytes must
    parse as a packet sourced at the vantage point — a malformed probe
    fails here, not deep inside a router.
    """
    return require_vantage_source(Packet.parse(probe_bytes), host)


class ProbeSocket:
    """Send probe bytes from the vantage point; receive response bytes."""

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

    @property
    def source_address(self):
        """The vantage point's IP address (probe Source Address)."""
        return self.host.address

    def send_probe(self, probe_bytes: bytes) -> ProbeResponse | None:
        """Send one probe; block (in simulated time) for its response.

        Returns None on timeout — a star in traceroute output.  The
        probe must parse as a valid packet sourced at the vantage point.
        """
        probe = parse_probe(probe_bytes, self.host)
        self.probes_sent += 1
        result = self.network.inject(probe, at=self.host)
        deliveries = result.delivered_to(self.host)
        if not deliveries:
            self.network.clock.advance(self.timeout)
            return None
        first = min(deliveries, key=lambda d: d.elapsed)
        if first.elapsed > self.timeout:
            # The response exists but arrives after the tracer gave up.
            self.network.clock.advance(self.timeout)
            return None
        raw = first.packet.build()
        parsed = Packet.parse(raw, verify=False)
        self.network.clock.advance(first.elapsed)
        self.responses_received += 1
        return ProbeResponse(
            packet=parsed,
            raw=raw,
            rtt=first.elapsed,
            received_at=self.network.clock.now,
        )

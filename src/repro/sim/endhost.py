"""End hosts: traceroute destinations and the measurement vantage point.

A :class:`Host` answers probes the way the paper's destinations do —
UDP to a high port draws Port Unreachable (ending a UDP trace), Echo
Request draws Echo Reply ("pingable"), TCP SYN draws SYN-ACK or RST
depending on whether the port is open.

:class:`MeasurementHost` is the vantage point: everything addressed to
it is delivered up to the :class:`repro.sim.socketapi.ProbeSocket`
rather than auto-answered, and it originates probes through a single
gateway interface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import TopologyError
from repro.net.icmp import ICMPEchoRequest
from repro.net.inet import IPv4Address
from repro.net.ipv4 import DEFAULT_HOST_TTL
from repro.net.packet import Packet
from repro.net.tcp import TCPFlags, TCPHeader
from repro.net.udp import UDPHeader
from repro.sim.node import Action, Deliver, Drop, Interface, Node, Transmit

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.sim.network import Network


class Host(Node):
    """A destination host at the edge of the network.

    ``pingable=False`` models the unused/filtered addresses the paper
    deliberately excluded from its destination list (tracing toward
    them inflates anomaly counts, [Xia et al. 2005]).
    """

    def __init__(
        self,
        name: str,
        pingable: bool = True,
        udp_responds: bool = True,
        open_tcp_ports: set[int] | None = None,
        icmp_initial_ttl: int = DEFAULT_HOST_TTL,
        **node_kwargs,
    ) -> None:
        super().__init__(name, icmp_initial_ttl=icmp_initial_ttl, **node_kwargs)
        self.pingable = pingable
        #: False models a firewalled host: answers pings but silently
        #: drops UDP probes, so UDP traces toward it end in stars — the
        #: paper's "stars typically appear at the ends of routes".
        self.udp_responds = udp_responds
        self.open_tcp_ports = open_tcp_ports if open_tcp_ports is not None else {80}

    @property
    def address(self) -> IPv4Address:
        """The host's (single) address; its traceroute identity."""
        if not self.interfaces:
            raise TopologyError(f"host {self.name} has no interface yet")
        return self.interfaces[0].address

    def receive(
        self,
        packet: Packet,
        in_interface: Interface | None,
        network: "Network",
    ) -> list[Action]:
        if packet.dst not in self.addresses:
            return [Drop(self, packet, "host does not forward")]
        return self.local_deliver(packet, in_interface)

    def local_deliver(
        self, packet: Packet, in_interface: Interface | None
    ) -> list[Action]:
        transport = packet.transport
        if isinstance(transport, ICMPEchoRequest) and not self.pingable:
            return [Drop(self, packet, "host is not pingable")]
        if isinstance(transport, UDPHeader) and not self.udp_responds:
            return [Drop(self, packet, "host firewalls UDP")]
        if isinstance(transport, TCPHeader):
            return self._answer_tcp(packet, in_interface)
        return super().local_deliver(packet, in_interface)

    def _answer_tcp(
        self, packet: Packet, in_interface: Interface | None
    ) -> list[Action]:
        """SYN to an open port → SYN-ACK; otherwise → RST-ACK."""
        if self.faults.silent:
            return [Drop(self, packet, "silent host")]
        request = packet.transport
        if request.dst_port in self.open_tcp_ports:
            flags = int(TCPFlags.SYN | TCPFlags.ACK)
        else:
            flags = int(TCPFlags.RST | TCPFlags.ACK)
        answer = TCPHeader(
            src_port=request.dst_port,
            dst_port=request.src_port,
            seq=0x1000 + self.peek_ip_id(packet.src),
            ack=(request.seq + 1) & 0xFFFFFFFF,
            flags=flags,
        )
        response = packet.reply(self.response_source_for_tcp(packet),
                                answer, self.icmp_initial_ttl,
                                self.next_ip_id(packet.src))
        return self._emit_response(response, packet)

    def response_source_for_tcp(self, packet: Packet) -> IPv4Address:
        """TCP answers come from the probed address itself."""
        if self.faults.fake_source_address is not None:
            return self.faults.fake_source_address
        return packet.dst

    def dispatch(self, packet: Packet, network: "Network") -> list[Action]:
        """Send a locally-generated packet out the (single) uplink."""
        if not self.interfaces:
            raise TopologyError(f"host {self.name} has no interface")
        return [Transmit(self.interfaces[0], packet)]


class MeasurementHost(Host):
    """The traceroute vantage point (the paper's source ``S``).

    Does not auto-answer anything: every packet addressed to it is a
    :class:`Deliver` action, surfaced to the probe socket.
    """

    def __init__(self, name: str = "S", **host_kwargs) -> None:
        super().__init__(name, **host_kwargs)

    def local_deliver(
        self, packet: Packet, in_interface: Interface | None
    ) -> list[Action]:
        return [Deliver(self, packet)]

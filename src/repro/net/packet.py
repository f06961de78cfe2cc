"""A full IP datagram: IPv4 header + transport message + payload.

:class:`Packet` is the unit the simulator forwards and the tracers send.
It round-trips through real bytes (:meth:`Packet.build` /
:meth:`Packet.parse`), so anything a load balancer hashes or a router
quotes is taken from the same octets a real network would see.

Values are checked where they enter: :meth:`Packet.make`,
:meth:`Packet.parse` and the header constructors.  Copies derived from
a valid packet (:meth:`with_ttl`, :meth:`decremented`,
:meth:`with_ip_identification`, :meth:`reply`) set their fields without
running the checks again, and wire bytes are produced only when
something reads them (:meth:`build`, :meth:`transport_bytes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import FieldValueError
from repro.net import icmp as icmp_mod
from repro.net.icmp import (
    ICMPDestinationUnreachable,
    ICMPEchoReply,
    ICMPEchoRequest,
    ICMPTimeExceeded,
)
from repro.net.inet import IPv4Address
from repro.net.ipv4 import IPv4Header, IPProtocol
from repro.net.tcp import TCPHeader
from repro.net.udp import UDPHeader

#: Instance allocation without ``__init__``, for the trusted copies.
_new = object.__new__

Transport = Union[
    UDPHeader,
    TCPHeader,
    ICMPEchoRequest,
    ICMPEchoReply,
    ICMPTimeExceeded,
    ICMPDestinationUnreachable,
]


@dataclass(frozen=True)
class Packet:
    """An immutable IP datagram.

    ``payload`` applies to UDP/TCP segments (ICMP messages carry their
    own payload).  The IP header's protocol field must agree with the
    transport type; :meth:`make` fills it in automatically.
    """

    ip: IPv4Header
    transport: Transport
    payload: bytes = b""

    @classmethod
    def make(
        cls,
        src: IPv4Address | str,
        dst: IPv4Address | str,
        transport: Transport,
        payload: bytes = b"",
        ttl: int = 64,
        identification: int = 0,
        tos: int = 0,
    ) -> "Packet":
        """Build a packet, deriving the IP Protocol from the transport."""
        protocol = _protocol_for(transport)
        ip = IPv4Header(
            src=IPv4Address(src),
            dst=IPv4Address(dst),
            protocol=int(protocol),
            ttl=ttl,
            identification=identification,
            tos=tos,
        )
        return cls(ip=ip, transport=transport, payload=payload)

    def build(self) -> bytes:
        """Serialize the whole datagram to wire bytes.

        Memoised per instance: a packet is immutable, so its wire form
        is fixed at construction.  Nothing on the event engine's
        probe→response path calls it: the blocking socket and reads of
        :attr:`ProbeResponse.raw` do.
        """
        wire = self.__dict__.get("_wire")
        if wire is None:
            body = self.transport_bytes()
            wire = self.ip.build(payload_length=len(body)) + body
            object.__setattr__(self, "_wire", wire)
        return wire

    def transport_bytes(self) -> bytes:
        """Serialize only the transport header + payload (memoised).

        The memo may be *adopted* from another packet differing only in
        IP TTL or Identification (see :meth:`with_ttl`): neither is
        part of the UDP/TCP pseudo-header, so the transport octets —
        including the quoted-payload slice routers echo and the word
        per-flow balancers hash — are identical.
        """
        body = self.__dict__.get("_transport_wire")
        if body is None:
            t = self.transport
            if isinstance(t, (UDPHeader, TCPHeader)):
                body = t.build(self.payload, self.ip.src, self.ip.dst)
            else:
                body = t.build()
            object.__setattr__(self, "_transport_wire", body)
        return body

    @classmethod
    def parse(cls, data: bytes, verify: bool = True) -> "Packet":
        """Parse wire bytes back into a :class:`Packet`.

        ICMP checksums are verified when ``verify`` is set; UDP/TCP
        checksums are preserved as stored (call
        :meth:`UDPHeader.verify` explicitly where the simulator models
        checksum-dropping routers).
        """
        ip, body = IPv4Header.parse(data, verify_checksum=verify)
        protocol = int(ip.protocol)
        if protocol == int(IPProtocol.UDP):
            udp, payload = UDPHeader.parse(body)
            return cls(ip=ip, transport=udp, payload=payload)
        if protocol == int(IPProtocol.TCP):
            tcp, payload = TCPHeader.parse(body)
            return cls(ip=ip, transport=tcp, payload=payload)
        if protocol == int(IPProtocol.ICMP):
            message = icmp_mod.parse(body, verify=verify)
            return cls(ip=ip, transport=message, payload=b"")
        raise FieldValueError("protocol", protocol, "unsupported IP protocol")

    def decremented(self) -> "Packet":
        """A copy with the IP TTL reduced by one."""
        return self._derived(self.ip.decremented())

    def with_ttl(self, ttl: int) -> "Packet":
        """A copy differing only in the IP TTL.

        The transport-wire memo is adopted: the TTL is not part of the
        UDP/TCP pseudo-header, so the transport octets — including the
        quoted slice routers echo — are unchanged.  The cohort walker
        materialises every parked packet through this, so a probe's
        quote is serialised once, not once per expiry.
        """
        return self._derived(self.ip.with_ttl(ttl))

    def with_ip_identification(self, identification: int) -> "Packet":
        """A copy differing only in the IP Identification field.

        The transport-wire memo is adopted: Identification is not part
        of any pseudo-header, so the transport octets — including the
        quoted slice routers echo back — are unchanged.  MDA's ip-id
        disambiguation retags every UDP probe through this.
        """
        if identification == self.ip.identification:
            return self
        return self._derived(self.ip.with_identification(identification))

    def _derived(self, ip: IPv4Header) -> "Packet":
        """A copy carrying ``ip``, without re-validation.

        ``ip`` must differ from this packet's header only outside the
        transport pseudo-header (TTL, Identification), so the transport
        and payload are shared and the transport-wire memo is adopted.
        """
        copy = _new(Packet)
        fields = copy.__dict__
        fields["ip"] = ip
        fields["transport"] = self.transport
        fields["payload"] = self.payload
        body = self.__dict__.get("_transport_wire")
        if body is not None:
            fields["_transport_wire"] = body
        return copy

    def reply(self, src: IPv4Address, transport: Transport, ttl: int,
              identification: int) -> "Packet":
        """A packet answering this one from ``src``, unvalidated.

        ``transport`` is the already-built answer (an ICMP error
        quoting this packet, an Echo Reply, a TCP SYN-ACK/RST); the IP
        header comes from :meth:`IPv4Header.reply`, whose contract the
        caller keeps for ``src``, ``ttl`` and ``identification``.
        """
        copy = _new(Packet)
        fields = copy.__dict__
        fields["ip"] = self.ip.reply(src, int(_protocol_for(transport)), ttl,
                                     identification)
        fields["transport"] = transport
        fields["payload"] = b""
        return copy

    @property
    def src(self) -> IPv4Address:
        """Source IP address (convenience accessor)."""
        return self.ip.src

    @property
    def dst(self) -> IPv4Address:
        """Destination IP address (convenience accessor)."""
        return self.ip.dst

    @property
    def ttl(self) -> int:
        """Current IP TTL (convenience accessor)."""
        return self.ip.ttl

    def first_eight_transport_octets(self) -> bytes:
        """The first eight octets of the transport header + payload.

        This is the exact slice a router quotes in Time Exceeded and
        Destination Unreachable responses (RFC 792): the whole UDP
        header, or the first half of a TCP/ICMP header.
        """
        return self.transport_bytes()[:icmp_mod.QUOTED_PAYLOAD_LENGTH]

    def summary(self) -> str:
        """One-line rendering for logs and example output."""
        t = self.transport
        if hasattr(t, "summary"):
            detail = t.summary()
        else:
            detail = type(t).__name__
        return f"{self.ip.summary()} | {detail}"


def _protocol_for(transport: Transport) -> IPProtocol:
    """Map a transport object to its IP protocol number."""
    if isinstance(transport, UDPHeader):
        return IPProtocol.UDP
    if isinstance(transport, TCPHeader):
        return IPProtocol.TCP
    if isinstance(transport, (ICMPEchoRequest, ICMPEchoReply,
                              ICMPTimeExceeded, ICMPDestinationUnreachable)):
        return IPProtocol.ICMP
    raise FieldValueError("transport", transport, "unsupported transport type")

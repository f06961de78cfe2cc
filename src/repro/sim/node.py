"""Nodes and interfaces: the common machinery under routers and hosts.

A :class:`Node` owns named, addressed :class:`Interface` objects (the
paper labels them ``L0``, ``A0``, ``A1``, ...), an IP-ID counter (the
16-bit Identification counter Paris traceroute reads from responses),
and the factory that builds quoting ICMP responses per RFC 792.

``receive`` returns a list of :class:`Action` objects; the
:class:`repro.sim.network.Network` walk interprets them.  Keeping nodes
pure — in, packet; out, actions — makes every behaviour unit-testable
without a wired network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import TopologyError
from repro.net.icmp import (
    ICMPDestinationUnreachable,
    ICMPEchoReply,
    ICMPEchoRequest,
    ICMPTimeExceeded,
    UnreachableCode,
)
from repro.net.inet import MAX_U8, MAX_U16, IPv4Address
from repro.net.ipv4 import DEFAULT_ROUTER_TTL
from repro.net.packet import Packet
from repro.net.udp import UDPHeader
from repro.sim.faults import FaultProfile

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.sim.link import Link
    from repro.sim.network import Network


class Interface:
    """A named, addressed attachment point of a node.

    ``label`` follows the paper's convention: node name + index, e.g.
    the load balancer's interface 0 is ``L0``.
    """

    def __init__(self, node: "Node", index: int, address: IPv4Address) -> None:
        self.node = node
        self.index = index
        self.address = IPv4Address(address)
        self.link: Optional["Link"] = None

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``A0``."""
        return f"{self.node.name}{self.index}"

    @property
    def connected(self) -> bool:
        """True once a link is attached."""
        return self.link is not None

    def __repr__(self) -> str:
        return f"Interface({self.label}={self.address})"


@dataclass
class Transmit:
    """Action: send ``packet`` out of ``interface`` onto its link."""

    interface: Interface
    packet: Packet


@dataclass
class Deliver:
    """Action: ``packet`` terminated at this node (reached a socket)."""

    node: "Node"
    packet: Packet


@dataclass
class Drop:
    """Action: ``packet`` was discarded; ``reason`` aids diagnostics."""

    node: "Node"
    packet: Packet
    reason: str


@dataclass
class Respond:
    """Action: ``node`` generated ``packet``; route it from that node.

    Distinct from :class:`Transmit` because the generating node may not
    know (or care) which interface leads back to the probe source — the
    network walk re-enters the node's own forwarding logic to route it.
    ``delay`` is extra time spent *before* generation (a deferring ICMP
    rate limiter pacing its responses); the walk adds it to the elapsed
    time like a link crossing.
    """

    node: "Node"
    packet: Packet
    delay: float = 0.0


Action = Transmit | Deliver | Drop | Respond


class Node:
    """Base class for routers, hosts, and middleboxes.

    Subclasses implement :meth:`receive`.  The base provides interface
    management, the per-node IP-ID counter, and ICMP response
    construction honouring the node's :class:`FaultProfile`.
    """

    def __init__(
        self,
        name: str,
        faults: FaultProfile | None = None,
        icmp_initial_ttl: int = DEFAULT_ROUTER_TTL,
        ip_id_start: int = 0,
        respond_from: str = "ingress",
    ) -> None:
        if respond_from not in ("ingress", "first"):
            raise TopologyError(
                f"respond_from must be 'ingress' or 'first': {respond_from!r}"
            )
        if (type(icmp_initial_ttl) is not int
                or not 0 <= icmp_initial_ttl <= MAX_U8):
            # Checked here because every response this node generates
            # carries it unvalidated (see Packet.reply).
            raise TopologyError(
                f"icmp_initial_ttl must be an integer in 0-255: "
                f"{icmp_initial_ttl!r}"
            )
        self.name = name
        self.interfaces: list[Interface] = []
        self._addresses: frozenset[IPv4Address] = frozenset()
        self.faults = faults or FaultProfile()
        self.icmp_initial_ttl = icmp_initial_ttl
        self.respond_from = respond_from
        self._ip_id_start = ip_id_start & MAX_U16
        self._ip_id_streams: dict = {}

    # ------------------------------------------------------------------
    # interfaces
    # ------------------------------------------------------------------
    def add_interface(self, address: IPv4Address | str) -> Interface:
        """Create and attach a new interface with ``address``."""
        interface = Interface(self, len(self.interfaces), IPv4Address(address))
        self.interfaces.append(interface)
        self._addresses = self._addresses | {interface.address}
        return interface

    def interface(self, index: int) -> Interface:
        """The interface at ``index`` (paper-style: node.interface(0) is X0)."""
        try:
            return self.interfaces[index]
        except IndexError:
            raise TopologyError(f"{self.name} has no interface {index}") from None

    @property
    def addresses(self) -> frozenset[IPv4Address]:
        """All addresses owned by this node (immutable view).

        Maintained incrementally by :meth:`add_interface` rather than
        rebuilt per access: ``packet.dst in node.addresses`` is on the
        local-delivery check of every single packet receive, and
        constructing a fresh set there dominated the slow walk's
        profile.  A frozenset, so no caller can desynchronise it from
        the interface list.
        """
        return self._addresses

    def owns(self, address: IPv4Address) -> bool:
        """True if ``address`` belongs to one of this node's interfaces."""
        return address in self.addresses

    # ------------------------------------------------------------------
    # IP ID counter
    # ------------------------------------------------------------------
    def next_ip_id(self, recipient: IPv4Address | None = None) -> int:
        """Return and advance the 16-bit Identification counter.

        The paper: "This field is set by the router with the value of an
        internal 16-bit counter that is usually incremented for each
        packet sent."  Reading consecutive IP IDs from responses lets
        Paris traceroute tie multiple addresses to one box.

        The counter is kept per ``recipient`` (the prober the response
        is addressed to).  Any single observer therefore still reads
        one shared counter advancing across *all* of this node's
        interfaces — exactly what Rocketfuel's Ally exploits — but one
        vantage point's probing never perturbs the stream another
        vantage sees.  That is the simulator's determinism concession
        to multi-vantage fleets: with a truly global counter,
        cross-vantage interleaving would make sharded campaign replays
        diverge from single-process ones in this one forensic field
        (real-world Ally absorbs such unrelated traffic with its gap
        tolerance anyway).
        """
        value = self._ip_id_streams.get(recipient, self._ip_id_start)
        self._ip_id_streams[recipient] = (value + 1) & MAX_U16
        return value

    def peek_ip_id(self, recipient: IPv4Address | None = None) -> int:
        """The value the next generated packet will carry (for tests)."""
        return self._ip_id_streams.get(recipient, self._ip_id_start)

    # ------------------------------------------------------------------
    # ICMP generation
    # ------------------------------------------------------------------
    def response_source(self, in_interface: Interface | None) -> IPv4Address:
        """The Source Address for responses to a probe from ``in_interface``.

        Real routers usually answer from the interface the packet
        arrived on (``respond_from="ingress"``) — this is why the paper
        can speak of discovering "interface A0" at a hop.  Some answer
        from a fixed address instead (``respond_from="first"``), the
        assumption the paper makes for routers E and G in its Figs. 3
        and 6.  A ``fake_source_address`` fault overrides both.
        """
        if self.faults.fake_source_address is not None:
            return self.faults.fake_source_address
        if not self.interfaces:
            raise TopologyError(f"{self.name} has no interfaces to answer from")
        if self.respond_from == "first" or in_interface is None:
            return self.interfaces[0].address
        return in_interface.address

    def make_time_exceeded(
        self, offending: Packet, in_interface: Interface | None
    ) -> Packet:
        """Build the Time Exceeded response for a TTL-expired packet.

        The response quotes the offending packet's IP header exactly as
        received (so its TTL — the paper's "probe TTL" — is preserved)
        plus the first eight octets of its transport payload.  Like
        every response a node generates, it is built with
        :meth:`Packet.reply`: the node's address, initial TTL and IP-ID
        were checked where they entered, so nothing is re-validated.
        """
        message = ICMPTimeExceeded(
            quoted_header=offending.ip,
            quoted_payload=offending.first_eight_transport_octets(),
        )
        return offending.reply(self.response_source(in_interface), message,
                               self.icmp_initial_ttl,
                               self.next_ip_id(offending.src))

    def make_unreachable(
        self,
        offending: Packet,
        in_interface: Interface | None,
        code: UnreachableCode,
    ) -> Packet:
        """Build a Destination Unreachable response with ``code``."""
        message = ICMPDestinationUnreachable(
            quoted_header=offending.ip,
            quoted_payload=offending.first_eight_transport_octets(),
            code=int(code),
        )
        return offending.reply(self.response_source(in_interface), message,
                               self.icmp_initial_ttl,
                               self.next_ip_id(offending.src))

    def make_echo_reply(
        self, request: Packet, in_interface: Interface | None
    ) -> Packet:
        """Build the Echo Reply for an Echo Request addressed to us."""
        echo = request.transport
        if not isinstance(echo, ICMPEchoRequest):
            raise TopologyError("make_echo_reply needs an Echo Request packet")
        reply = ICMPEchoReply(
            identifier=echo.identifier,
            sequence=echo.sequence,
            payload=echo.payload,
        )
        # An Echo Reply answers to the *probed* address, not necessarily
        # the ingress interface; use the destination the prober targeted.
        source = (
            self.faults.fake_source_address
            if self.faults.fake_source_address is not None
            else request.dst
        )
        return request.reply(source, reply, self.icmp_initial_ttl,
                             self.next_ip_id(request.src))

    # ------------------------------------------------------------------
    # local delivery (shared by routers and hosts)
    # ------------------------------------------------------------------
    def local_deliver(
        self, packet: Packet, in_interface: Interface | None
    ) -> list[Action]:
        """Handle a packet addressed to this node.

        Default behaviour — shared by routers and destination hosts:

        - ICMP Echo Request → Echo Reply (nodes are pingable);
        - UDP to an unlistened port → Port Unreachable (ends a UDP
          traceroute);
        - ICMP errors → consumed silently (never answer an error with an
          error, RFC 792);
        - anything else → consumed.

        ``silent`` faults and response loss suppress answers.
        """
        if self.faults.silent:
            return [Drop(self, packet, "silent node")]
        transport = packet.transport
        if isinstance(transport, ICMPEchoRequest):
            response = self.make_echo_reply(packet, in_interface)
            return self._emit_response(response, packet)
        if isinstance(transport, UDPHeader):
            response = self.make_unreachable(
                packet, in_interface, UnreachableCode.PORT_UNREACHABLE
            )
            return self._emit_response(response, packet)
        return [Deliver(self, packet)]

    def _emit_response(self, response: Packet, offending: Packet,
                       delay: float = 0.0) -> list[Action]:
        """Wrap a generated response in actions, honouring loss faults.

        The probing client (the offending packet's source) keys the
        correlated-loss channel, so each vantage point rides its own
        deterministic burst calendar; ``delay`` carries a deferring
        rate limiter's pacing into the walk.
        """
        if self.faults.response_is_lost(offending.src):
            return [Drop(self, offending, "response lost (fault profile)")]
        return [Respond(self, response, delay=delay)]

    # ------------------------------------------------------------------
    # to be provided by subclasses
    # ------------------------------------------------------------------
    def receive(
        self,
        packet: Packet,
        in_interface: Interface | None,
        network: "Network",
    ) -> list[Action]:
        """Process an arriving packet; return follow-up actions."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"

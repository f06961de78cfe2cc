"""The network container and the packet walk.

:class:`Network` owns nodes, links, a shared :class:`SimClock`, and the
dynamics schedule.  :meth:`Network.inject` performs the walk: starting
from a locally-generated packet at some node, it repeatedly applies
node decisions (forward / answer / drop / deliver) and link traversals
(delay, loss) until no actions remain, then reports what was delivered
where and what was dropped why.

The walk is breadth-first over actions rather than recursive, so a
probe, the Time Exceeded it triggers, and any rewriting that response
undergoes on its way back are all steps of one deterministic loop.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import TopologyError
from repro.net.inet import IPv4Address
from repro.net.packet import Packet
from repro.sim.clock import SimClock
from repro.sim.link import Link
from repro.sim.node import (
    Deliver,
    Drop,
    Interface,
    Node,
    Respond,
    Transmit,
)

#: Safety valve: maximum node visits per injected packet.  TTL bounds
#: well-formed walks long before this; the cap only guards miswired
#: topologies (e.g. a cycle of zero-TTL-forwarding routers).
MAX_WALK_STEPS = 4096


@dataclass
class Delivery:
    """A packet that terminated at a node's local stack."""

    node: Node
    packet: Packet
    elapsed: float


@dataclass
class DropRecord:
    """A packet discarded during the walk, with the reason."""

    node: Node
    packet: Packet
    reason: str
    elapsed: float


@dataclass
class WalkResult:
    """Everything that happened after one injection."""

    deliveries: list[Delivery] = field(default_factory=list)
    drops: list[DropRecord] = field(default_factory=list)

    def delivered_to(self, node: Node) -> list[Delivery]:
        """Deliveries addressed to ``node``."""
        return [d for d in self.deliveries if d.node is node]


class Network:
    """A wired collection of nodes plus simulated time and dynamics."""

    def __init__(self, clock: SimClock | None = None, name: str = "net") -> None:
        self.name = name
        self.clock = clock or SimClock()
        self.nodes: dict[str, Node] = {}
        self.links: list[Link] = []
        # Address -> owning node, maintained by add_node()/link() (the
        # topology-mutation points) so destination-locality checks are
        # one dict probe for every walker — never a scan over nodes.
        self._address_index: dict[IPv4Address, Node] = {}
        self._dynamics: list = []
        #: Optional delivery-path fault policy (jitter, duplication):
        #: a :class:`repro.faults.DeliveryFaultPlane` applied to every
        #: walk's deliveries before the caller (blocking socket) or the
        #: delivery buffer (async path) sees them.
        self.fault_plane = None
        #: Optional :class:`repro.obs.MetricsRegistry`.  Components
        #: bind their counters at construction time via
        #: :func:`repro.obs.active_registry`; None (the default) keeps
        #: every instrumented path on the no-op fast path.
        self.metrics = None
        #: Optional :class:`repro.obs.ProbeTracer` recording probe
        #: lifecycle spans on this network's simulated clock.
        self.tracer = None
        # (registry, children) of the transit-plane series the batched
        # walk bumps (walks are rebuilt per cohort batch, so they cannot
        # carry the binding themselves).
        self._transit_series = None
        # Asynchronous delivery buffer: (absolute arrival time, sequence
        # number, Delivery) heap fed by submit()/submit_cohort() and
        # drained by deliveries().  The sequence number keeps the pop
        # order stable for simultaneous arrivals.
        self._pending: list[tuple[float, int, Delivery]] = []
        self._pending_seq = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Register a node (its interfaces may be added before or after)."""
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node name: {node.name}")
        self.nodes[node.name] = node
        for interface in node.interfaces:
            self.index_interface(interface)
        return node

    def link(
        self,
        a: Interface,
        b: Interface,
        delay: float = 0.001,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
    ) -> Link:
        """Wire two interfaces together with a new link."""
        for iface in (a, b):
            if iface.link is not None:
                raise TopologyError(f"{iface.label} is already linked")
        link = Link(a=a, b=b, delay=delay, loss_rate=loss_rate,
                    loss_seed=loss_seed)
        a.link = link
        b.link = link
        self.links.append(link)
        self.index_interface(a)
        self.index_interface(b)
        return link

    def index_interface(self, interface: Interface) -> None:
        existing = self._address_index.get(interface.address)
        if existing is not None and existing is not interface.node:
            raise TopologyError(
                f"address {interface.address} assigned to both "
                f"{existing.name} and {interface.node.name}"
            )
        self._address_index[interface.address] = interface.node

    def node_owning(self, address: IPv4Address) -> Optional[Node]:
        """The node owning ``address``, if any (one index probe)."""
        if not isinstance(address, IPv4Address):
            address = IPv4Address(address)
        return self._address_index.get(address)

    def route_lookups(self) -> int:
        """Total LPM resolutions performed by this network's routers.

        Sums :attr:`repro.sim.router.Router.lookup_count` over every
        forwarding node — the metric the walk-batching benchmarks track
        (memo and covering-prefix hits are not counted).
        """
        from repro.sim.router import Router

        return sum(node.lookup_count for node in self.nodes.values()
                   if isinstance(node, Router))

    def reset_counters(self) -> None:
        """Zero every router's LPM counter and the metrics registry.

        The explicit reset path shared by benches and the registry:
        one call between bench legs guarantees neither
        :meth:`route_lookups` nor any registry series carries counts
        over from a previous leg.
        """
        from repro.sim.router import Router

        for node in self.nodes.values():
            if isinstance(node, Router):
                node.reset_counters()
        if self.metrics is not None:
            self.metrics.reset()

    def node(self, name: str) -> Node:
        """Lookup a node by name; raises :class:`TopologyError` if absent."""
        try:
            return self.nodes[name]
        except KeyError:
            raise TopologyError(f"no node named {name!r}") from None

    @property
    def addresses(self) -> set[IPv4Address]:
        """Every interface address in the network."""
        return set(self._address_index)

    # ------------------------------------------------------------------
    # dynamics
    # ------------------------------------------------------------------
    def add_dynamics(self, event) -> None:
        """Register a dynamics event (route change, forwarding loop...)."""
        self._dynamics.append(event)

    def apply_dynamics(self) -> None:
        """Let every registered event update router state for current time.

        Idempotent: events track their own applied/reverted state.
        Called automatically at the start of each :meth:`inject`.
        """
        now = self.clock.now
        for event in self._dynamics:
            event.apply(self, now)

    # ------------------------------------------------------------------
    # the walk
    # ------------------------------------------------------------------
    def inject(self, packet: Packet, at: Node) -> WalkResult:
        """Originate ``packet`` at node ``at`` and walk it to quiescence."""
        self.apply_dynamics()
        result = self.walk([(at, None, packet, 0.0, True)])
        if self.fault_plane is not None:
            self.fault_plane.apply(result, metrics=self.metrics)
        self._count_fault_drops(result)
        return result

    def walk(
        self,
        entries: Sequence[tuple[Node, Optional[Interface], Packet, float, bool]],
        budget: int = MAX_WALK_STEPS,
    ) -> WalkResult:
        """Walk pre-positioned work items to quiescence.

        Each entry is ``(node, in_interface, packet, elapsed,
        locally_generated)`` — the same work-item shape :meth:`inject`
        starts from.  Dynamics are *not* applied here; callers that
        originate fresh traffic (``inject``, ``submit``) do that first.
        """
        result = WalkResult()
        queue: deque[tuple[Node, Optional[Interface], Packet, float, bool]] = deque()
        queue.extend(entries)
        steps = 0
        while queue:
            node, in_iface, pkt, elapsed, local = queue.popleft()
            steps += 1
            if steps > budget:
                result.drops.append(
                    DropRecord(node, pkt, "walk step budget exhausted", elapsed)
                )
                break
            if local:
                actions = node.dispatch(pkt, self)
            else:
                actions = node.receive(pkt, in_iface, self)
            for action in actions:
                if isinstance(action, Transmit):
                    self._traverse(action, elapsed, queue, result)
                elif isinstance(action, Respond):
                    queue.append((action.node, None, action.packet,
                                  elapsed + action.delay, True))
                elif isinstance(action, Deliver):
                    result.deliveries.append(
                        Delivery(action.node, action.packet, elapsed)
                    )
                elif isinstance(action, Drop):
                    result.drops.append(
                        DropRecord(action.node, action.packet, action.reason,
                                   elapsed)
                    )
                else:  # pragma: no cover - actions are exhaustive
                    raise TopologyError(f"unknown action {action!r}")
        return result

    # ------------------------------------------------------------------
    # the asynchronous path (event-driven probe engine)
    # ------------------------------------------------------------------
    def submit(self, packet: Packet, at: Node) -> WalkResult:
        """Originate ``packet`` now; buffer deliveries for later pickup.

        The non-blocking counterpart of :meth:`inject`: the walk still
        happens eagerly (the simulator is untimed between clock
        advances), but instead of the caller consuming deliveries
        immediately, each one is queued with its absolute arrival time
        (now + walk elapsed) and surfaces through :meth:`deliveries`
        once the clock reaches it.  Drops are reported in the returned
        :class:`WalkResult` for diagnostics; deliveries are *only*
        available through the buffer.
        """
        result = self.inject(packet, at)
        self._buffer_deliveries(result)
        return result

    def submit_cohort(self, packets: Sequence[Packet], at: Node) -> WalkResult:
        """Submit a batch of probes sharing one send instant.

        Equivalent to calling :meth:`submit` per packet, but probes
        share forwarding work through :mod:`repro.sim.fastwalk` — the
        optimisation that makes the pipelined engine cheaper in real
        time, not only simulated time.
        """
        return self.submit_cohorts([(at, packets)])

    def submit_cohorts(
        self, batches: Sequence[tuple[Node, Sequence[Packet]]],
    ) -> WalkResult:
        """Submit several origins' staged probes as one send instant.

        The scheduler's flush path: every lane due at one clock instant
        — across destinations and across vantage points — walks the
        network as a single cohort on the prefix-aggregated transit
        plane, whose round-based scheduling keeps each probing client's
        fault/forensics timeline independent of cohort composition (the
        sharded-fleet byte-identity guarantee; see
        :mod:`repro.sim.fastwalk`).
        """
        from repro.sim.fastwalk import walk_cohorts

        self.apply_dynamics()
        result = walk_cohorts(self, batches)
        if self.fault_plane is not None:
            self.fault_plane.apply(result, metrics=self.metrics)
        self._count_fault_drops(result)
        self._buffer_deliveries(result)
        return result

    def _count_fault_drops(self, result: WalkResult) -> None:
        """Attribute burst-loss drops to the soliciting client.

        A Gilbert-Elliott loss channel discards a response inside the
        walk, where nodes have no registry handle; the drop record
        carries the offending probe, whose source is the probing
        client — a per-client fault stream, so the counts are
        deterministic across shard compositions.
        """
        metrics = self.metrics
        if metrics is None or not metrics.enabled:
            return
        family = None
        for drop in result.drops:
            if drop.reason != "response lost (fault profile)":
                continue
            if family is None:
                family = metrics.counter(
                    "repro_fault_response_lost_total",
                    "Responses suppressed by a loss-burst fault profile.",
                    ("node", "client"))
            family.labels(drop.node.name, str(drop.packet.src)).inc()

    def _buffer_deliveries(self, result: WalkResult) -> None:
        now = self.clock.now
        for delivery in result.deliveries:
            heapq.heappush(
                self._pending,
                (now + delivery.elapsed, self._pending_seq, delivery),
            )
            self._pending_seq += 1

    def next_delivery_at(self) -> Optional[float]:
        """Arrival time of the earliest buffered delivery, if any."""
        if not self._pending:
            return None
        return self._pending[0][0]

    def deliveries(
        self, until: float | None = None, node: Node | None = None
    ) -> list[tuple[float, Delivery]]:
        """Pop buffered deliveries that have arrived by ``until``.

        ``until`` defaults to the current clock; ``node`` filters to one
        recipient (others popped in the same call are discarded, like
        packets addressed to a socket nobody holds open).
        """
        horizon = self.clock.now if until is None else until
        due: list[tuple[float, Delivery]] = []
        while self._pending and self._pending[0][0] <= horizon:
            arrival, __, delivery = heapq.heappop(self._pending)
            if node is None or delivery.node is node:
                due.append((arrival, delivery))
        return due

    def _traverse(
        self,
        action: Transmit,
        elapsed: float,
        queue: deque,
        result: WalkResult,
    ) -> None:
        """Carry a Transmit across its link, applying delay and loss."""
        interface = action.interface
        link = interface.link
        if link is None:
            result.drops.append(
                DropRecord(interface.node, action.packet,
                           f"{interface.label} has no link", elapsed)
            )
            return
        if link.drops_packet():
            result.drops.append(
                DropRecord(interface.node, action.packet,
                           f"lost on link at {interface.label}", elapsed)
            )
            return
        peer = link.peer_of(interface)
        queue.append(
            (peer.node, peer, action.packet, elapsed + link.delay, False)
        )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A multi-line inventory, useful in examples and debugging."""
        lines = [f"Network {self.name!r}: {len(self.nodes)} nodes, "
                 f"{len(self.links)} links"]
        for name in sorted(self.nodes):
            node = self.nodes[name]
            ifaces = ", ".join(
                f"{i.label}={i.address}" for i in node.interfaces
            )
            lines.append(f"  {type(node).__name__} {name}: {ifaces}")
        return "\n".join(lines)

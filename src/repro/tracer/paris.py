"""Paris traceroute: constant flow identifier, per-probe unique tags.

The paper's tool (Sec. 2.2).  For each trace the five-tuple is fixed —
the campaign draws Source and Destination Ports uniformly from
[10,000, 60,000] — so every probe of the trace follows one path through
per-flow load balancers.  Probes are tagged through fields *outside*
the balanced first four transport octets:

- UDP: the Checksum, reached honestly by crafting the payload;
- ICMP Echo: the (Identifier, Sequence) pair, co-varied to pin the
  Checksum;
- TCP: the Sequence Number.

Beyond plain tracing, this class implements the paper's future-work
items (Sec. 6): :meth:`enumerate_paths` deliberately *varies* the flow
identifier to expose all interfaces of a load balancer, and
:meth:`classify_balancer` distinguishes per-flow from per-packet
balancing by re-probing one hop with identical versus distinct flows.
Both are thin wrappers over sans-I/O strategies — a hop loop per flow,
a :class:`repro.probing.fanout.FlowFanStrategy` per probing phase — so
``engine="pipelined"`` runs every flow concurrently on the event
scheduler while the sequential default replays the historical probe
order byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import TracerError
from repro.net.inet import IPv4Address
from repro.probing.executor import run_strategy
from repro.probing.fanout import FlowFanStrategy
from repro.sim.socketapi import ProbeSocket
from repro.tracer.base import Traceroute, TracerouteOptions
from repro.tracer.probes import (
    ParisIcmpBuilder,
    ParisTcpBuilder,
    ParisUdpBuilder,
    ProbeBuilder,
)
from repro.tracer.result import TracerouteResult

#: The campaign's port range: "Source and Destination Port values
#: chosen at random from the range [10,000, 60,000]".
PORT_RANGE = (10000, 60000)


@dataclass
class PathEnumeration:
    """What :meth:`ParisTraceroute.enumerate_paths` discovered."""

    destination: IPv4Address
    routes: list[TracerouteResult]
    #: ttl -> set of addresses seen across flows at that hop.
    interfaces_per_hop: dict[int, set[IPv4Address]] = field(
        default_factory=dict)

    @property
    def branching_hops(self) -> list[int]:
        """Hops where more than one interface answered across flows."""
        return sorted(ttl for ttl, addresses
                      in self.interfaces_per_hop.items()
                      if len(addresses) > 1)

    @property
    def max_width(self) -> int:
        """The widest per-hop interface set observed."""
        if not self.interfaces_per_hop:
            return 0
        return max(len(a) for a in self.interfaces_per_hop.values())


@dataclass
class BalancerVerdict:
    """What :meth:`ParisTraceroute.classify_balancer` concluded."""

    ttl: int
    same_flow_addresses: set[IPv4Address]
    varied_flow_addresses: set[IPv4Address]

    @property
    def kind(self) -> str:
        """"per-packet", "per-flow", or "none".

        Spread under one flow means the balancer ignores the flow id
        (per-packet).  Spread only across flows means it honours it
        (per-flow).  No spread at all means no balancing was visible
        at this hop.
        """
        if len(self.same_flow_addresses) > 1:
            return "per-packet"
        if len(self.varied_flow_addresses) > 1:
            return "per-flow"
        return "none"


class ParisTraceroute(Traceroute):
    """The paper's tool, in all three probing modes."""

    def __init__(
        self,
        socket: ProbeSocket,
        method: str = "udp",
        seed: int = 0,
        options: TracerouteOptions | None = None,
    ) -> None:
        if method not in ("udp", "icmp", "tcp"):
            raise TracerError(
                f"paris traceroute probes with udp, icmp or tcp, "
                f"not {method!r}"
            )
        super().__init__(socket, options)
        self.method = method
        self.tool = f"paris-{method}"
        self._seed = seed
        self._rng = random.Random(seed)

    def make_builder(self, destination: IPv4Address,
                     flow_index: int | None = None) -> ProbeBuilder:
        """A fresh builder with a (seeded-)random constant five-tuple.

        ``flow_index`` derives a *deterministic distinct* flow for path
        enumeration; None draws the trace's flow from the tool RNG.
        """
        source = self.socket.source_address
        if flow_index is None:
            draw = self._rng
        else:
            draw = random.Random(hash((self._seed, flow_index,
                                       int(destination))))
        src_port = draw.randint(*PORT_RANGE)
        dst_port = draw.randint(*PORT_RANGE)
        if self.method == "udp":
            return ParisUdpBuilder(source, destination,
                                   src_port=src_port, dst_port=dst_port,
                                   first_tag=draw.randint(1, 0xFFF0))
        if self.method == "icmp":
            return ParisIcmpBuilder(source, destination,
                                    checksum_anchor=draw.randint(1, 0xFFFE))
        return ParisTcpBuilder(source, destination,
                               src_port=src_port,
                               first_seq=draw.randrange(1 << 31))

    # ------------------------------------------------------------------
    # future-work features (paper Sec. 6)
    # ------------------------------------------------------------------
    def _run_pipelined(self, lanes: list[list]) -> list:
        """One scheduler run over ``lanes`` of specs; results in order.

        The pipelined Sec. 6 path: every lane is one flow's strategy,
        all multiplexed on one event clock.  Per-run probe/response
        deltas are mirrored onto the blocking socket so probing cost
        reads the same across engines.
        """
        from repro.engine.asyncsocket import AsyncProbeSocket
        from repro.engine.scheduler import ProbeScheduler

        async_socket = AsyncProbeSocket(self.socket.network,
                                        self.socket.host,
                                        timeout=self.socket.timeout)
        scheduler = ProbeScheduler(self.socket.network, self.socket.host,
                                   socket=async_socket,
                                   timeout=self.socket.timeout)
        for specs in lanes:
            scheduler.add_lane(specs)
        outcomes = scheduler.run()
        self.socket.probes_sent += async_socket.probes_sent
        self.socket.responses_received += async_socket.responses_received
        return [outcome.result for outcome in outcomes]

    def enumerate_paths(
        self,
        destination: IPv4Address | str,
        flows: int = 16,
        engine: str = "sequential",
    ) -> PathEnumeration:
        """Trace ``flows`` distinct flow identifiers toward a destination.

        Each flow yields one consistent route under per-flow balancing;
        their union exposes every balancer interface that the hash
        spreads these flows over.  Sixteen flows cover the widest
        equal-cost fan-out the paper mentions (Juniper's sixteen).

        Every flow is one hop-loop strategy; ``engine="pipelined"``
        runs them as concurrent lanes of one event scheduler instead of
        back to back.
        """
        destination = IPv4Address(destination)
        if engine not in ("sequential", "pipelined"):
            raise TracerError(
                f"engine must be 'sequential' or 'pipelined', "
                f"not {engine!r}")
        if engine == "pipelined":
            from repro.engine.scheduler import TraceSpec

            lanes = []
            for flow_index in range(flows):
                builder = self.make_builder(destination,
                                            flow_index=flow_index)
                lanes.append([TraceSpec(tracer=self,
                                        destination=destination,
                                        builder_factory=lambda b=builder: b)])
            routes = self._run_pipelined(lanes)
        else:
            routes = [
                self.trace(destination,
                           builder=self.make_builder(destination,
                                                     flow_index=flow_index))
                for flow_index in range(flows)
            ]
        interfaces: dict[int, set[IPv4Address]] = {}
        for result in routes:
            for hop in result.hops:
                for address in hop.addresses:
                    interfaces.setdefault(hop.ttl, set()).add(address)
        return PathEnumeration(destination=destination, routes=routes,
                               interfaces_per_hop=interfaces)

    def classify_balancer(
        self,
        destination: IPv4Address | str,
        ttl: int,
        attempts: int = 12,
        engine: str = "sequential",
    ) -> BalancerVerdict:
        """Distinguish per-flow from per-packet balancing at one hop.

        First re-probe hop ``ttl`` with *identical* flow identifiers:
        any spread must come from per-packet balancing.  Then probe with
        ``attempts`` distinct flows: spread here (absent same-flow
        spread) reveals per-flow balancing.

        Each phase is one :class:`FlowFanStrategy`;
        ``engine="pipelined"`` puts both fans in flight at once.
        """
        destination = IPv4Address(destination)
        if engine not in ("sequential", "pipelined"):
            raise TracerError(
                f"engine must be 'sequential' or 'pipelined', "
                f"not {engine!r}")
        pinned = self.make_builder(destination, flow_index=0)
        same_fan = FlowFanStrategy(
            [pinned] * attempts, ttl,
            window=attempts if engine == "pipelined" else 1)
        varied_fan = FlowFanStrategy(
            [self.make_builder(destination, flow_index=flow_index)
             for flow_index in range(attempts)], ttl,
            window=attempts if engine == "pipelined" else 1)
        if engine == "pipelined":
            from repro.engine.scheduler import StrategySpec

            same, varied = self._run_pipelined([
                [StrategySpec(lambda __, s=same_fan: s)],
                [StrategySpec(lambda __, s=varied_fan: s)],
            ])
        else:
            same = run_strategy(self.socket, same_fan)
            varied = run_strategy(self.socket, varied_fan)
        return BalancerVerdict(ttl=ttl,
                               same_flow_addresses=same.address_set,
                               varied_flow_addresses=varied.address_set)

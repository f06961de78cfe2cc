"""The prefix-aggregated transit plane: batched packet walks.

:func:`walk_cohorts` carries a *cohort* of probes — everything every
socket of one scheduler has staged at a single send instant, across
destinations and across vantage points — through the network with cost
proportional to *distinct forwarding decisions*, not to probes:

- route resolutions are shared across destinations through
  :meth:`repro.sim.router.Router.lookup_cached`'s covering-prefix
  aggregation (one FIB walk per forwarding-equivalence region, one
  dict probe for every further destination inside it) and across hops
  through a per-walk (node, destination) memo;
- pure transit is *zoomed*: each traveler crosses its run of plain
  forwarding nodes in one tight loop of integer TTL bookkeeping — no
  per-hop packet copies — and balancer-free lossless router chains are
  memoised as :class:`_Segment` runs that every later traveler toward
  the same destination jumps wholesale (the big win for windowed
  probes and for the response streams converging on each vantage);
- side-effect events — TTL expiry, local delivery, null routes,
  non-router nodes — are parked at the traveler's path position
  (its *round*) and processed round-by-round in a canonical group
  order.

Exactness is preserved by construction rather than by re-implementing
router behaviour:

- only *plain* transit (a :class:`Router` or :class:`NatBox`, TTL ≥ 2,
  destination not local, a forwardable route entry) is zoomed, and the
  zoom reuses :meth:`Router.lookup` semantics (via the FIB trie, proven
  equivalent), :meth:`RouteEntry.choose_egress` semantics,
  :meth:`NatBox.rewrite_outbound`, and :meth:`Link.drops_packet`
  directly; a segment jump replays the recorded per-link delays in hop
  order, so even float accumulation is bit-identical to the hop-wise
  walk;
- every parked event materialises the packet exactly as it would have
  arrived (one ``with_ttl`` copy, byte-identical to iterated
  decrements because IP checksums are computed at serialisation time)
  and hands it to the node's own :meth:`receive`;
- generated responses re-enter the walk as travelers toward the probe
  source and enjoy the same batching on their way back.

**Determinism across cohort compositions.**  Order-sensitive simulator
state falls in two classes.  Shared streams (per-packet balancers, link
loss RNGs) are consumed in walk order, which differs from the order
of per-packet :meth:`Network.inject` calls and between cohort
compositions — which is why the byte-identical guarantees exclude such
topologies.  Per-client state (IP-ID streams, ICMP token buckets,
burst-loss channels, the delivery fault plane) is where the
sharded-fleet guarantee lives, and the batched walk protects
it *structurally*: transit consumes no per-client state at all (and
segment jumps are bit-equal to walking, so *who* warmed a memo can
never matter), while side effects fire only at park-processing time —
ordered by round, then by the canonical ``(node name, ingress index)``
sort of each round's groups, then by bucket append order, which
restricted to one client is a pure function of that client's own
traffic.  One vantage's event sequence is therefore identical whether
or not other vantages' probes share the cohort.  That is the invariant
that lets the scheduler merge all vantages' staged probes into a
single cross-vantage cohort while keeping sharded fleet campaigns
byte-identical to single-process ones, faults included.

The exact-semantics reference is the per-packet :meth:`Network.walk`
behind :meth:`Network.inject`; ``tests/sim/test_transit_plane.py``
proves a cohort walk equal to sequential injects.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.net.inet import IPv4Address
from repro.net.packet import Packet
from repro.sim.balancer import (
    PerDestinationPolicy,
    PerFlowPolicy,
    PerPacketPolicy,
)
from repro.sim.middlebox import NatBox
from repro.sim.network import (
    MAX_WALK_STEPS,
    Delivery,
    DropRecord,
    Network,
    WalkResult,
)
from repro.sim.node import Deliver, Drop, Interface, Node, Respond, Transmit
from repro.sim.router import Router


class _Traveler:
    """One packet in flight, with its TTL tracked as a plain integer."""

    __slots__ = ("packet", "ttl", "delay", "steps", "round", "flows")

    def __init__(self, packet: Packet, ttl: int, delay: float, steps: int,
                 round_: int = 0) -> None:
        self.packet = packet
        self.ttl = ttl
        self.delay = delay
        self.steps = steps
        #: Path position: how many links this traveler has crossed.  The
        #: batched walk parks side-effect events at their round, which
        #: is what keeps per-client event order composition-independent.
        self.round = round_
        #: Lazily-filled {id(extractor): FlowId} memo.  Lives on the
        #: traveler (not a walk-level id-keyed dict) so a recycled
        #: object id can never inherit another packet's flow.  Reset
        #: when a NAT rewrites the source (flow extractors read it).
        self.flows = None

    def materialize(self) -> Packet:
        """The packet exactly as it arrives at the current node.

        The copy differs from the carried packet only in IP TTL, so
        :meth:`Packet.with_ttl` adopts its transport-bytes memo: the
        quoted-payload slice a router echoes in its ICMP response is
        computed once per probe, not once per expiry.
        """
        source = self.packet
        if source.ip.ttl == self.ttl:
            return source
        return source.with_ttl(self.ttl)


#: Per-(node, destination) resolution markers: the destination is one
#: of the node's own addresses / draws a per-probe response (no route
#: or a null route).
_LOCAL = object()
_UNROUTED = object()


class _Segment:
    """A memoised run of plain single-egress transit toward one dst.

    Covers the chain from arrival at its keying node to arrival at
    ``end_node`` via ``end_iface``: every intermediate node is a plain
    :class:`Router` (never a NAT box) resolving the destination to a
    single-egress entry over an up, loss-free link — so crossing the
    run consumes no stateful draws at all and later travelers may jump
    it wholesale.  ``delays`` keeps the per-link values in hop order
    (replayed addition-by-addition, so a jumping traveler accumulates
    float delay in exactly the hop-wise order and timestamps stay
    byte-identical).  ``entry`` is the keying node's own route entry,
    the fallback for travelers that cannot jump (TTL expiring inside
    the run, walk budget too tight).
    """

    __slots__ = ("hops", "delays", "end_node", "end_iface", "entry")

    def __init__(self, hops, delays, end_node, end_iface, entry):
        self.hops = hops
        self.delays = delays
        self.end_node = end_node
        self.end_iface = end_iface
        self.entry = entry


def _bind_transit_children(metrics) -> dict:
    """The transit plane's label-less metric children.

    Bound once per (network, registry) by
    :meth:`_BatchedWalk._publish_metrics`, so the family lookups here
    never run per walk.
    """
    from repro.obs.registry import SCOPE_PROCESS

    def counter(name, help_text):
        return metrics.counter(name, help_text, (),
                               scope=SCOPE_PROCESS).labels()

    return {
        "zooms": counter(
            "repro_transit_zooms_total",
            "Zoom runs completed (traveler park events)."),
        "zoom_hops": counter(
            "repro_transit_zoom_hops_total",
            "Node visits crossed inside zoom runs."),
        "seg_jumps": counter(
            "repro_transit_segment_jumps_total",
            "Memoised segment runs replayed in one jump."),
        "seg_jump_hops": counter(
            "repro_transit_segment_jump_hops_total",
            "Hops skipped hop-wise by segment jumps."),
        "segments": counter(
            "repro_transit_segments_recorded_total",
            "Chain-safe runs memoised as segments."),
        "memo_hits": counter(
            "repro_transit_walk_memo_hits_total",
            "Per-hop (node, destination) resolutions served by the "
            "walk memo."),
        "resolutions": counter(
            "repro_transit_walk_resolutions_total",
            "Fresh (node, destination) resolutions this walk "
            "(locality probes and cached route lookups)."),
        "zoom_length": metrics.histogram(
            "repro_transit_zoom_length_hops",
            "Hops advanced per zoom run (segment jumps included).",
            (), scope=SCOPE_PROCESS,
            buckets=(1, 2, 4, 8, 16, 32, 64)).labels(),
    }


def _group_order(key: tuple[Node, Interface]) -> tuple[str, int]:
    """Canonical processing order of a round's side-effect groups.

    Intrinsic to the group key — never derived from which travelers are
    present — so one client's processing order cannot be perturbed by
    another client's traffic sharing the cohort (the fleet-sharding
    determinism argument in the module docstring).
    """
    node, iface = key
    return (node.name, iface.index)


class _BatchedWalk:
    """State for one prefix-aggregated :func:`walk_cohorts` call.

    Pure transit is *zoomed*: each traveler crosses its whole run of
    plain-forwarding nodes in one tight loop whose per-hop cost is a
    couple of dict probes against the walk's (node, destination)
    resolution memo — no per-hop grouping, no packet copies.  Only
    side-effect events (TTL expiry, local delivery, null routes,
    non-router nodes) are parked, at the traveler's path position, in
    per-round ``(node, ingress)`` buckets that :meth:`run` processes in
    round order and canonical group order.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.now = network.clock.now
        self.result = WalkResult()
        #: Parked side-effect events: round -> (node, ingress) -> list.
        self.rounds: dict[
            int, dict[tuple[Node, Interface], list[_Traveler]]] = {}
        #: The round currently being processed; travelers created while
        #: handling a parked event (responses, forwarded expiring
        #: packets) inherit it as their path origin.
        self.current = 0
        # Per-flow bucket decisions, keyed by (policy, flow key, width).
        # Policies are referenced by live route entries for the whole
        # walk, so their ids are stable here.
        self._buckets: dict[tuple[int, bytes, int], int] = {}
        # Per-node destination resolutions for this walk: node -> {dst:
        # _LOCAL | _UNROUTED | RouteEntry}.  Combines the locality check
        # and the route-entry resolution into one probe per hop; walk-
        # scoped (the clock is frozen during a walk), so it is valid
        # even while dynamics overrides bypass the router-level memo.
        self._resolved: dict[Node, dict[IPv4Address, object]] = {}
        # The network's address -> node index (one dict probe decides
        # destination locality — never a scan over nodes).
        self._owner_of = network._address_index
        # Transit-plane observability: counts accumulate in walk-local
        # ints gated by one local bool inside the zoom loop and are
        # added to the bound children once at the end of run() — the
        # hot loop never touches a metric object.  These series are
        # process-scope: which traveler warms a memo depends on cohort
        # composition, so they are advisory and excluded from the
        # deterministic snapshot comparison.
        from repro.obs.registry import active_registry

        self._metrics = active_registry(network)
        self._track = self._metrics is not None
        self._zooms = 0
        self._zoom_hops = 0
        self._zoom_lengths: dict[int, int] = {}
        self._seg_jumps = 0
        self._seg_jump_hops = 0
        self._segments_recorded = 0
        self._memo_hits = 0
        self._walk_resolutions = 0

    # -- walk entry points ----------------------------------------------
    def start_local(self, node: Node, packet: Packet, delay: float,
                    steps: int) -> None:
        """A locally-generated packet: route it out of ``node``."""
        steps += 1
        if steps > MAX_WALK_STEPS:
            self.result.drops.append(
                DropRecord(node, packet, "walk step budget exhausted", delay)
            )
            return
        node_type = type(node)
        if node_type is Router or node_type is NatBox:
            # Router.dispatch with the route resolution memoised (a NAT
            # box dispatches exactly like a router: masquerading only
            # applies to *forwarded* traffic).  No TTL decrement for
            # local traffic.
            entry = node.lookup_cached(packet.ip.dst, self.now)[0]
            if entry is None or entry.unreachable:
                self.result.drops.append(
                    DropRecord(node, packet,
                               "no route for locally generated packet", delay)
                )
                return
            traveler = _Traveler(packet, packet.ip.ttl, delay, steps,
                                 self.current)
            egresses = entry.egresses
            if len(egresses) == 1:
                egress = egresses[0]
            else:
                egress = egresses[self.choose_egress(entry, traveler)]
            self.launch(traveler, egress)
            return
        self.process_actions(node.dispatch(packet, self.network), delay, steps)

    def run(self) -> WalkResult:
        rounds = self.rounds
        while rounds:
            round_ = min(rounds)
            self.current = round_
            buckets = rounds.pop(round_)
            for key in sorted(buckets, key=_group_order):
                node, in_iface = key
                for traveler in buckets[key]:
                    self.receive_one(node, in_iface, traveler)
        if self._track:
            self._publish_metrics()
        return self.result

    def _publish_metrics(self) -> None:
        """Add this walk's transit counts into the bound children.

        A walk is built per cohort batch, so the children are bound on
        the *network*, once per registry.
        """
        bound = self.network._transit_series
        if bound is None or bound[0] is not self._metrics:
            bound = (self._metrics, _bind_transit_children(self._metrics))
            self.network._transit_series = bound
        children = bound[1]
        for name, count in (("zooms", self._zooms),
                            ("zoom_hops", self._zoom_hops),
                            ("seg_jumps", self._seg_jumps),
                            ("seg_jump_hops", self._seg_jump_hops),
                            ("segments", self._segments_recorded),
                            ("memo_hits", self._memo_hits),
                            ("resolutions", self._walk_resolutions)):
            if count:
                children[name].inc(count)
        # Network-wide LPM totals are summed over every router, which
        # is far too slow for a per-batch flush: the campaign layer
        # publishes them once per run as ``repro_fib_route_lookups``.
        histogram = children["zoom_length"]
        for length, count in self._zoom_lengths.items():
            histogram.observe(length, count)

    # -- transit ---------------------------------------------------------
    def launch(self, traveler: _Traveler, egress: Interface) -> None:
        """Cross ``egress``'s link (no TTL decrement) and zoom onward.

        The entry point for traffic whose first egress was already
        decided — locally-originated packets and node-emitted
        :class:`Transmit` actions, both of which carry a final TTL.
        """
        link = egress.link
        if link is None:
            self.result.drops.append(
                DropRecord(egress.node, traveler.materialize(),
                           f"{egress.label} has no link", traveler.delay)
            )
            return
        if (not link.up or link.loss_rate > 0.0) and link.drops_packet():
            self.result.drops.append(
                DropRecord(egress.node, traveler.materialize(),
                           f"lost on link at {egress.label}", traveler.delay)
            )
            return
        traveler.delay += link.delay
        traveler.round += 1
        peer = link.peer_of(egress)
        self.zoom(traveler, peer.node, peer)

    def zoom(self, traveler: _Traveler, node: Node,
             in_iface: Interface) -> None:
        """Carry one traveler through plain transit; park at side effects.

        Each iteration is one node visit: resolve the destination
        through the walk memo (locality + route entry in one probe,
        covering-prefix aggregation underneath), pick the egress, apply
        NAT masquerading where the slow path would, and cross the link
        (TTL decrement, loss draw, delay).  The loop exits — parking
        the traveler for exact per-probe :meth:`receive_one` handling —
        on anything that is not plain transit.
        """
        resolved_by_node = self._resolved
        owner_of = self._owner_of
        now = self.now
        drops = self.result.drops
        # Hot-loop state lives in locals (one write-back per exit, not
        # per hop); the destination is computed once per zoom — a NAT
        # rewrite changes the source, never the destination.  Memos key
        # on the raw 32-bit value: an int hashes without the method-
        # call round trip of IPv4Address.__hash__, and this probe runs
        # once per hop of every traveler.
        dst = traveler.packet.ip.dst
        dst_key = dst._value
        steps = traveler.steps
        ttl = traveler.ttl
        delay = traveler.delay
        round_ = traveler.round
        track = self._track
        start_round = round_
        # Segment recording: while this traveler crosses consecutive
        # chain-safe hops, remember the start node's resolution dict,
        # its entry, and the per-link delays; the flush memoises the
        # run as a _Segment for every later traveler toward this
        # destination.
        rec_resolved = None
        rec_entry = None
        rec_delays = None
        while True:
            steps += 1
            if steps > MAX_WALK_STEPS:
                traveler.steps = steps
                traveler.ttl = ttl
                traveler.delay = delay
                traveler.round = round_
                drops.append(
                    DropRecord(node, traveler.materialize(),
                               "walk step budget exhausted", delay)
                )
                return
            node_type = type(node)
            if ((node_type is not Router and node_type is not NatBox)
                    or ttl < 2):
                break
            resolved = resolved_by_node.get(node)
            if resolved is None:
                resolved_by_node[node] = resolved = {}
                state = None
            else:
                state = resolved.get(dst_key)
            if state is None:
                if owner_of.get(dst) is node:
                    state = _LOCAL
                else:
                    entry = node.lookup_cached(dst, now)[0]
                    state = (_UNROUTED
                             if entry is None or entry.unreachable
                             else entry)
                resolved[dst_key] = state
                if track:
                    self._walk_resolutions += 1
            elif track:
                self._memo_hits += 1
            safe = False
            if state.__class__ is _Segment:
                hops = state.hops
                if ttl > hops and steps + hops <= MAX_WALK_STEPS:
                    # Jump the whole recorded run: no expiry strictly
                    # inside (ttl > hops), no budget exhaustion, and by
                    # construction no stateful draws.  Delays replay in
                    # hop order so float accumulation stays exact.
                    for hop_delay in state.delays:
                        delay += hop_delay
                    ttl -= hops
                    steps += hops - 1
                    round_ += hops
                    if track:
                        self._seg_jumps += 1
                        self._seg_jump_hops += hops
                    if rec_delays is not None:
                        # An active recording rides through the jump,
                        # so its flush covers the concatenated run.
                        rec_delays.extend(state.delays)
                    node = state.end_node
                    in_iface = state.end_iface
                    continue
                entry = state.entry
                egresses = entry.egresses
                egress = egresses[0]
                safe = True
            elif state is _LOCAL or state is _UNROUTED:
                # Local delivery / unreachable / no route: the node's
                # own receive keeps the semantics (and responses) exact.
                break
            else:
                entry = state
                egresses = entry.egresses
                if len(egresses) == 1:
                    egress = egresses[0]
                    safe = node_type is Router
                else:
                    traveler.ttl = ttl
                    egress = egresses[self.choose_egress(entry, traveler)]
            if not safe:
                if node_type is NatBox and in_iface is not None \
                        and in_iface is not node.external_interface \
                        and egress is node.external_interface:
                    # Fast transit across the NAT: same rewrite, same
                    # spot (after the egress decision) as NatBox.receive.
                    rewritten = node.rewrite_outbound(traveler.packet)
                    if rewritten is not traveler.packet:
                        traveler.packet = rewritten
                        traveler.flows = None
            link = egress.link
            if link is None:
                if rec_delays:
                    self._flush_segment(rec_resolved, dst_key, rec_entry,
                                        rec_delays, node, in_iface)
                traveler.steps = steps
                traveler.ttl = ttl
                traveler.delay = delay
                traveler.round = round_
                drops.append(
                    DropRecord(node, traveler.materialize(),
                               f"{egress.label} has no link", delay)
                )
                return
            if safe and link.up and link.loss_rate <= 0.0:
                # Chain-safe hop: extend (or open) the recording.
                if rec_delays is None:
                    rec_resolved = resolved
                    rec_entry = entry
                    rec_delays = [link.delay]
                else:
                    rec_delays.append(link.delay)
                ttl -= 1
            else:
                # Unsafe hop (balancer draw, NAT crossing, lossy link):
                # any recording ends at *this* node's arrival.
                if rec_delays:
                    self._flush_segment(rec_resolved, dst_key, rec_entry,
                                        rec_delays, node, in_iface)
                    rec_delays = None
                ttl -= 1
                if ((not link.up or link.loss_rate > 0.0)
                        and link.drops_packet()):
                    traveler.steps = steps
                    traveler.ttl = ttl
                    traveler.delay = delay
                    traveler.round = round_
                    drops.append(
                        DropRecord(node, traveler.materialize(),
                                   f"lost on link at {egress.label}", delay)
                    )
                    return
            delay += link.delay
            round_ += 1
            # link.peer_of, inlined: one identity compare per hop.
            peer = link.b if link.a is egress else link.a
            node = peer.node
            in_iface = peer
        if rec_delays:
            self._flush_segment(rec_resolved, dst_key, rec_entry,
                                rec_delays, node, in_iface)
        traveler.steps = steps
        traveler.ttl = ttl
        traveler.delay = delay
        traveler.round = round_
        if track:
            length = round_ - start_round
            self._zooms += 1
            self._zoom_hops += length
            lengths = self._zoom_lengths
            lengths[length] = lengths.get(length, 0) + 1
        # Park for side-effect processing at this traveler's round.
        buckets = self.rounds.get(round_)
        if buckets is None:
            self.rounds[round_] = buckets = {}
        key = (node, in_iface)
        group = buckets.get(key)
        if group is None:
            buckets[key] = [traveler]
        else:
            group.append(traveler)

    def _flush_segment(self, resolved, dst_key, entry, delays, end_node,
                       end_iface) -> None:
        """Memoise a finished chain recording at its start node.

        Never downgrades: when the start node already carries a
        (possibly longer) segment — a traveler that fell back to
        hop-wise transit because its TTL expires inside the run
        re-records a shorter prefix — the existing memo wins.
        """
        if resolved.get(dst_key).__class__ is not _Segment:
            resolved[dst_key] = _Segment(len(delays), delays, end_node,
                                         end_iface, entry)
            if self._track:
                self._segments_recorded += 1

    def choose_egress(self, entry, traveler: _Traveler) -> int:
        policy = entry.balancer
        n = len(entry.egresses)
        if isinstance(policy, PerFlowPolicy):
            if traveler.flows is None:
                traveler.flows = {}
            # One extraction per (traveler, extractor): every balancer
            # on the path hashing the same fields reuses the FlowId;
            # bucket decisions below stay per policy (salts differ).
            # A subclass overriding flow_of keeps its own per-policy
            # memo slot and its override honoured, exactly as on the
            # per-probe receive path.  Memo keys are ids of objects the
            # policy keeps alive (the extractor / the policy itself),
            # never of transient bound methods.
            if type(policy).flow_of is PerFlowPolicy.flow_of:
                compute = policy.extractor
                memo_key = id(compute)
            else:
                compute = policy.flow_of
                memo_key = id(policy)
            flow = traveler.flows.get(memo_key)
            if flow is None:
                flow = compute(traveler.packet)
                traveler.flows[memo_key] = flow
            bucket_key = (id(policy), flow.key, n)
            index = self._buckets.get(bucket_key)
            if index is None:
                index = policy.choose_flow(flow, n)
                self._buckets[bucket_key] = index
            return index
        if isinstance(policy, (PerPacketPolicy, PerDestinationPolicy)):
            # Neither reads the TTL; the original packet is exact.
            return policy.choose(traveler.packet, n)
        # Unknown policy: materialise so even a TTL-sensitive custom
        # policy sees the packet as it truly arrives.
        return policy.choose(traveler.materialize(), n)

    # -- exact-semantics handoff ----------------------------------------
    def receive_one(self, node: Node, in_iface: Optional[Interface],
                    traveler: _Traveler) -> None:
        packet = traveler.materialize()
        actions = node.receive(packet, in_iface, self.network)
        self.process_actions(actions, traveler.delay, traveler.steps)

    def process_actions(self, actions, delay: float, steps: int) -> None:
        for action in actions:
            if isinstance(action, Transmit):
                packet = action.packet
                # The node already decremented (or chose not to); the
                # link crossing itself must not touch the TTL again.
                traveler = _Traveler(packet, packet.ip.ttl, delay, steps,
                                     self.current)
                self.launch(traveler, action.interface)
            elif isinstance(action, Respond):
                self.start_local(action.node, action.packet,
                                 delay + action.delay, steps)
            elif isinstance(action, Deliver):
                self.result.deliveries.append(
                    Delivery(action.node, action.packet, delay)
                )
            elif isinstance(action, Drop):
                self.result.drops.append(
                    DropRecord(action.node, action.packet, action.reason,
                               delay)
                )
            else:  # pragma: no cover - actions are exhaustive
                raise TypeError(f"unknown action {action!r}")


def walk_cohorts(
    network: Network,
    batches: Sequence[tuple[Node, Sequence[Packet]]],
) -> WalkResult:
    """Walk batches of locally-originated packets to quiescence.

    Each batch is ``(origin node, packets)`` — one vantage point's
    staged probes; the batches share one walk and therefore one transit
    plane.  Semantically equivalent to merging ``network.inject`` per
    packet (modulo the ordering notes in the module docstring); the
    caller applies dynamics first, as :meth:`Network.submit_cohorts`
    does.
    """
    walk = _BatchedWalk(network)
    for at, packets in batches:
        for packet in packets:
            walk.start_local(at, packet, 0.0, 0)
    return walk.run()

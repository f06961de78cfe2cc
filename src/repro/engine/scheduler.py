"""Pipelined probing: the generic strategy driver and the scheduler.

One :class:`ProbeScheduler` multiplexes many *lanes* (independent
sequences of probing runs — the campaign's 32 workers become 32 lanes)
over a single simulated clock.  Each running entry is a sans-I/O
:class:`repro.probing.ProbeStrategy` wrapped in a :class:`TraceSession`
— a thin driver that owns no probing logic of its own: what to send,
how to count stars, when to halt, and what the answers mean are all the
strategy's decisions.  The scheduler only moves packets: it sends
whatever :meth:`ProbeStrategy.next_probes` emits, demultiplexes
arriving responses back to the emitting request, fires timeout events,
and collects :meth:`ProbeStrategy.result` when a strategy finishes.

Out-of-order arrivals are the normal case here, not an anomaly: with a
window of probes in flight, a TTL-3 router regularly answers before the
TTL-2 router (different return paths, different delays).  Strategies
park early answers in their slots and adjudicate in their own order —
the behaviour real pipelined tools need and the paper's one-in-flight
campaign sidestepped.  Because a :class:`repro.probing.HopLoopStrategy`
session applies exactly the stop-and-wait loop's rules (star budget,
destination halt, unreachable halt, strict TTL-order adjudication), it
produces the same hops, halt reason, and flow keys as
:meth:`repro.tracer.base.Traceroute.trace` would — only the timestamps
shrink, because waiting overlaps.

Two spec flavours describe lane entries:

- :class:`TraceSpec` — one traceroute by an existing tool; materializes
  a :class:`HopLoopStrategy` and feeds the shared horizon-hint memo
  (``{(destination, tool): last halt TTL}``) that paces repeat traces;
- :class:`StrategySpec` — any strategy at all (MDA hops, future probing
  policies), built by a factory at lane-start time.

Lanes need not share one vantage point: :meth:`ProbeScheduler.add_lane`
accepts a per-lane socket (plus a per-lane timeout policy and
horizon-hint memo), so one scheduler can multiplex traces from many
measurement hosts over the same clock — the multi-vantage fleet of
:mod:`repro.vantage`.  Responses are claimed strictly within the socket
they arrived on: a reply surfacing at one vantage can never be matched
to another vantage's probe, even when the probes' demux keys collide
(two vantages probing one destination with identical ICMP Echo
identifiers, say).

Timeout policies: :class:`FixedTimeout` reproduces the paper's flat
2-second wait and keeps results byte-comparable to the sequential path;
:class:`AdaptiveTimeout` is an RFC 6298-style RTT estimator (SRTT +
4·RTTVAR, clamped) for when throughput matters more than replaying the
paper's exact timing — an early expiry can star a hop the sequential
tool would have caught.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.engine.asyncsocket import AsyncProbeSocket
from repro.engine.events import EventKind, EventQueue
from repro.errors import TracerError
from repro.net.icmp import (
    ICMPDestinationUnreachable,
    ICMPEchoReply,
    ICMPEchoRequest,
    ICMPTimeExceeded,
)
from repro.net.inet import IPv4Address
from repro.net.packet import Packet
from repro.net.tcp import TCPHeader
from repro.obs.registry import (
    NULL_REGISTRY,
    SCOPE_PROCESS,
    active_registry,
)
from repro.probing.hoploop import HopLoopStrategy
from repro.probing.replies import quoted_identification
from repro.probing.strategy import ProbeRequest, ProbeStrategy
from repro.sim.endhost import MeasurementHost
from repro.sim.network import Network
from repro.sim.socketapi import ProbeResponse
from repro.tracer.base import Traceroute
from repro.tracer.probes import ProbeBuilder

#: Default in-flight window per trace session.
DEFAULT_WINDOW = 8

_ICMP_ERROR = (ICMPTimeExceeded, ICMPDestinationUnreachable)


# ----------------------------------------------------------------------
# timeout policies
# ----------------------------------------------------------------------
class FixedTimeout:
    """The paper's policy: a flat per-probe response timeout."""

    def __init__(self, seconds: float) -> None:
        if seconds <= 0:
            raise TracerError(f"timeout must be positive: {seconds}")
        self.seconds = seconds

    def timeout_for(self) -> float:
        return self.seconds

    def observe(self, rtt: float) -> None:
        """Fixed policies ignore RTT samples."""


class AdaptiveTimeout:
    """RFC 6298-style retransmission-timer estimate as a probe timeout.

    ``SRTT + 4 * RTTVAR`` clamped to ``[floor, ceiling]``; before any
    sample the ceiling applies.  Faster than the flat wait on silent
    tails, but an under-estimate stars probes the sequential tool would
    have caught — use where throughput beats exact replay.
    """

    def __init__(
        self,
        ceiling: float = 2.0,
        floor: float = 0.1,
        alpha: float = 1 / 8,
        beta: float = 1 / 4,
    ) -> None:
        if not 0 < floor <= ceiling:
            raise TracerError(
                f"need 0 < floor <= ceiling, got [{floor}, {ceiling}]"
            )
        self.ceiling = ceiling
        self.floor = floor
        self.alpha = alpha
        self.beta = beta
        self.srtt: float | None = None
        self.rttvar = 0.0

    def timeout_for(self) -> float:
        if self.srtt is None:
            return self.ceiling
        estimate = self.srtt + 4.0 * self.rttvar
        return min(self.ceiling, max(self.floor, estimate))

    def observe(self, rtt: float) -> None:
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
            return
        self.rttvar = ((1 - self.beta) * self.rttvar
                       + self.beta * abs(self.srtt - rtt))
        self.srtt = (1 - self.alpha) * self.srtt + self.alpha * rtt


# ----------------------------------------------------------------------
# lane entry specs
# ----------------------------------------------------------------------
@dataclass
class TraceSpec:
    """One trace a lane should run.

    ``builder_factory`` overrides probe construction (the campaign uses
    it to pin per-trace flows deterministically); None lets the tool
    draw its own builder, exactly as ``tracer.trace(destination)``
    would.
    """

    tracer: Traceroute
    destination: IPv4Address
    builder_factory: Optional[Callable[[], ProbeBuilder]] = None
    #: Opaque caller bookkeeping carried through to the outcome (the
    #: fleet campaign stores (vantage, round) here).
    meta: object = None
    #: Earliest simulated instant this trace may start.  A lane reaching
    #: a spec whose ``not_before`` lies ahead parks on a LANE_START
    #: event instead of starting immediately — the monitor service's
    #: per-target schedules, with no cross-lane barrier: the deferral
    #: depends only on the lane's own clock position and the spec's
    #: constant, so sharded executions replay it identically.
    not_before: float = 0.0

    def make_strategy(self, started_at: float, window: int,
                      hints: dict) -> HopLoopStrategy:
        """A hop-loop strategy for this trace, paced by ``hints``.

        Exact (destination, tool) knowledge wins; failing that, any
        tool's depth for this destination is a decent prior — the
        campaign traces Paris first, so the classic trace of the same
        destination starts with its depth instead of speculating.
        """
        tracer = self.tracer
        if self.builder_factory is not None:
            builder = self.builder_factory()
        else:
            builder = tracer.make_builder(IPv4Address(self.destination))
        hint = hints.get((self.destination, tracer.tool))
        if hint is None:
            hint = hints.get(self.destination)
        return HopLoopStrategy(
            builder=builder,
            options=tracer.options,
            tool=tracer.tool,
            source=tracer.socket.source_address,
            destination=self.destination,
            window=window,
            started_at=started_at,
            horizon_hint=hint,
        )

    def record_hints(self, strategy: HopLoopStrategy, hints: dict) -> None:
        hints[(self.destination, self.tracer.tool)] = strategy.halt_ttl
        previous = hints.get(self.destination)
        if previous is None or strategy.halt_ttl > previous:
            hints[self.destination] = strategy.halt_ttl


@dataclass
class StrategySpec:
    """An arbitrary strategy a lane should run.

    ``factory`` receives the lane-start instant and returns the
    strategy; ``meta`` is opaque caller bookkeeping carried through to
    the :class:`TraceOutcome` spec (the fleet campaign stores the
    entry's vantage, round, worker and destination there).
    """

    factory: Callable[[float], ProbeStrategy]
    meta: object = None
    #: Earliest simulated start instant (see :class:`TraceSpec`).
    not_before: float = 0.0

    def make_strategy(self, started_at: float, window: int,
                      hints: dict) -> ProbeStrategy:
        return self.factory(started_at)

    def record_hints(self, strategy: ProbeStrategy, hints: dict) -> None:
        """Generic strategies feed no horizon memo."""


@dataclass
class TraceOutcome:
    """A finished lane entry with its lane coordinates.

    ``result`` is whatever the spec's strategy produced — a
    :class:`repro.tracer.result.TracerouteResult` for :class:`TraceSpec`
    entries, the strategy's own product for :class:`StrategySpec`.
    """

    lane: int
    index: int
    spec: object
    result: object


class TraceSession:
    """Generic driver state for one running strategy.

    All probing decisions live in the strategy; the session only
    remembers which socket tokens are outstanding so the scheduler can
    cancel them when the strategy finishes early.
    """

    __slots__ = ("strategy", "tokens")

    def __init__(self, strategy: ProbeStrategy) -> None:
        self.strategy = strategy
        self.tokens: set[int] = set()

    @property
    def done(self) -> bool:
        return self.strategy.finished


# ----------------------------------------------------------------------
# response demultiplexing
# ----------------------------------------------------------------------
def probe_match_keys(probe: Packet) -> list[tuple]:
    """Exact-match demux keys under which a probe expects answers.

    One key covers ICMP errors quoting the probe (source, destination,
    protocol, first eight transport octets — the RFC 792 quote); probe
    types that can also be answered directly (Echo Reply, TCP) add a
    second key.  Dict hits are *confirmed* with the builder's own
    matching logic, and misses fall back to a linear scan with it, so
    the index is purely an accelerator.
    """
    keys = [("quote", probe.src, probe.dst, int(probe.ip.protocol),
             probe.first_eight_transport_octets())]
    transport = probe.transport
    if isinstance(transport, ICMPEchoRequest):
        keys.append(("echo", probe.dst, transport.identifier,
                     transport.sequence))
    elif isinstance(transport, TCPHeader):
        keys.append(("tcp", probe.dst, transport.dst_port,
                     transport.src_port, (transport.seq + 1) & 0xFFFFFFFF))
    return keys


def response_match_keys(packet: Packet) -> list[tuple]:
    """The demux keys a received packet answers to."""
    transport = packet.transport
    if isinstance(transport, _ICMP_ERROR):
        quoted = transport.quoted_header
        return [("quote", quoted.src, quoted.dst, int(quoted.protocol),
                 transport.quoted_payload[:8])]
    if isinstance(transport, ICMPEchoReply):
        return [("echo", packet.src, transport.identifier,
                 transport.sequence)]
    if isinstance(transport, TCPHeader):
        return [("tcp", packet.src, transport.src_port, transport.dst_port,
                 transport.ack)]
    return []


# ----------------------------------------------------------------------
# lanes and the scheduler
# ----------------------------------------------------------------------
@dataclass
class _Lane:
    index: int
    specs: list
    inter_trace_delay: float = 0.0
    position: int = 0
    session: Optional[TraceSession] = None
    #: The socket this lane probes through (a vantage point); defaults
    #: to the scheduler's own socket.
    socket: Optional[AsyncProbeSocket] = None
    #: Per-lane timeout policy; defaults to the scheduler's.
    timeout_policy: object = None
    #: Per-lane horizon-hint memo; defaults to the scheduler's shared
    #: dict.  Fleet lanes pass a per-vantage dict so one vantage's halt
    #: depths never pace another vantage's traces.
    hints: Optional[dict] = None
    #: The :class:`_SocketInstruments` bundle of this lane's socket,
    #: bound at registration (None when metrics are off).
    mx: object = None


@dataclass
class _Outstanding:
    session: TraceSession
    request: ProbeRequest
    lane: _Lane
    keys: list = field(default_factory=list)
    sent_at: float = 0.0


#: Claim freshness slack, seconds: float error on ``arrival - rtt`` is
#: ~1e-11 at campaign clock scales, event spacing is >= link latency.
_CLAIM_TOLERANCE = 1e-6


class _SocketInstruments:
    """One vantage point's bound scheduler series, plus its claim memo.

    The children are bound once per socket and bumped where each event
    happens.  Every series is a pure function of the socket's own
    timeline, so the values — histogram float sums included, which
    accumulate in that timeline's event order — are byte-identical
    across shard compositions.
    """

    __slots__ = ("claims", "timeouts", "stale", "duplicate", "unmatched",
                 "flush", "occupancy", "timeout_s", "answered")

    def __init__(self, registry, client: str) -> None:
        def counter(name, help_text):
            return registry.counter(name, help_text,
                                    ("client",)).labels(client)

        def histogram(name, help_text, buckets):
            return registry.histogram(name, help_text, ("client",),
                                      buckets=buckets).labels(client)

        self.claims = counter(
            "repro_scheduler_claims_total",
            "Responses matched to an outstanding probe, per client.")
        self.timeouts = counter(
            "repro_scheduler_timeouts_total",
            "Probes that expired unanswered, per client.")
        self.stale = counter(
            "repro_scheduler_replies_stale_total",
            "Late replies to probes that stopped waiting, per client.")
        self.duplicate = counter(
            "repro_scheduler_replies_duplicate_total",
            "Extra copies of already-claimed replies, per client.")
        self.unmatched = counter(
            "repro_scheduler_replies_unmatched_total",
            "Replies matching no probe, live or dead, per client.")
        self.flush = histogram(
            "repro_scheduler_flush_batch_size",
            "Staged probes per socket at each cohort flush.",
            (1, 2, 4, 8, 16, 32, 64, 128))
        self.occupancy = histogram(
            "repro_scheduler_lane_occupancy",
            "In-flight probes in a lane's window after each pump.",
            (0, 1, 2, 4, 8, 16, 32))
        self.timeout_s = histogram(
            "repro_scheduler_probe_timeout_seconds",
            "Timeout the lane policy assigned each probe at send time.",
            (0.1, 0.25, 0.5, 1.0, 2.0, 4.0))
        #: Demux key -> sent_at of the probe whose reply was claimed
        #: under that key; lets a later straggler with the same implied
        #: send instant be classified as a duplicate rather than a
        #: stale reply.  Scheduler- and socket-local, so echo-key
        #: collisions across vantages that start lanes on one clock
        #: cannot cross-talk.
        self.answered: dict[tuple, float] = {}


class ProbeScheduler:
    """Drive lanes of strategies over one simulated clock."""

    def __init__(
        self,
        network: Network,
        host: MeasurementHost,
        timeout: float | None = None,
        window: int = DEFAULT_WINDOW,
        timeout_policy=None,
        socket: AsyncProbeSocket | None = None,
        horizon_hints: dict | None = None,
    ) -> None:
        if socket is None:
            socket = AsyncProbeSocket(
                network, host,
                timeout=timeout if timeout is not None else 2.0,
            )
        self.network = network
        self.socket = socket
        self.clock = network.clock
        self.window = window
        # An explicit timeout wins over the socket's own default, also
        # when the socket was passed in.
        if timeout_policy is not None:
            self.timeout_policy = timeout_policy
        else:
            self.timeout_policy = FixedTimeout(
                timeout if timeout is not None else socket.timeout)
        self.events = EventQueue()
        self.lanes: list[_Lane] = []
        self.outcomes: list[TraceOutcome] = []
        # Every socket lanes probe through, in registration order (the
        # default socket first).  The run loop flushes and polls them
        # all; per-arrival-instant response order follows this order,
        # which is deterministic because lanes register deterministically.
        self._sockets: list[AsyncProbeSocket] = [self.socket]
        #: (destination, tool) -> halt TTL of the previous trace; pass a
        #: shared dict to carry pacing knowledge across scheduler runs.
        self.horizon_hints = horizon_hints if horizon_hints is not None else {}
        # Outstanding probes are keyed by a scheduler-assigned serial,
        # NOT the socket's own SentProbe token: with per-lane sockets
        # (the vantage fleet) every socket numbers its probes from
        # zero, and socket tokens collide across vantages.
        self._outstanding: dict[int, _Outstanding] = {}
        self._next_probe_id = 0
        # Demux index: match key -> tokens of outstanding probes that
        # answer to it.  A key can be shared (tcptraceroute's probes
        # differ only in IP ID), so each holds a token set and hits are
        # confirmed with the builder's own matching logic.
        self._index: dict[tuple, set[int]] = {}
        # Keys of probes no longer waiting (expired, cancelled, already
        # answered): late responses to them are recognised here instead
        # of falling through to the full matching scan.
        self._dead_keys: set[tuple] = set()
        # Observability: families are created once here; per-socket
        # children bind in _instruments() when a lane registers the
        # socket.  _obs gates every event-site bump, and with it the
        # bookkeeping (answered-send map, straggler classification)
        # that a no-op child would not absorb.
        registry = active_registry(network)
        self._obs = registry is not None
        self._metrics = registry if registry is not None else NULL_REGISTRY
        self._tracer = getattr(network, "tracer", None)
        self._instruments_by_socket: dict[int, _SocketInstruments] = {}
        self._mf_lanes = self._metrics.gauge(
            "repro_scheduler_lanes",
            "Lanes registered per probing client.", ("client",))
        self._mc_cohort = self._metrics.histogram(
            "repro_scheduler_cohort_size",
            "Total probes per cross-vantage cohort flush (advisory: "
            "depends on cohort composition).",
            (), scope=SCOPE_PROCESS,
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256)).labels()

    # -- building the workload ------------------------------------------
    def add_lane(self, specs: Iterable,
                 inter_trace_delay: float = 0.0,
                 socket: AsyncProbeSocket | None = None,
                 timeout_policy=None,
                 horizon_hints: dict | None = None) -> int:
        """Queue a lane of :class:`TraceSpec` / :class:`StrategySpec`.

        ``socket`` probes the lane through another vantage point (the
        scheduler's own socket when None); ``timeout_policy`` and
        ``horizon_hints`` likewise override the scheduler-wide defaults
        for this lane only.
        """
        if socket is None:
            socket = self.socket
        elif socket not in self._sockets:
            self._sockets.append(socket)
        lane = _Lane(index=len(self.lanes), specs=list(specs),
                     inter_trace_delay=inter_trace_delay,
                     socket=socket,
                     timeout_policy=(timeout_policy if timeout_policy
                                     is not None else self.timeout_policy),
                     hints=(horizon_hints if horizon_hints is not None
                            else self.horizon_hints),
                     mx=self._instruments(socket) if self._obs else None)
        self.lanes.append(lane)
        return lane.index

    def _instruments(self, socket: AsyncProbeSocket) -> _SocketInstruments:
        """The socket's bound series bundle (created on first use)."""
        bundle = self._instruments_by_socket.get(id(socket))
        if bundle is None:
            bundle = _SocketInstruments(self._metrics,
                                        str(socket.source_address))
            self._instruments_by_socket[id(socket)] = bundle
        return bundle

    # -- the event loop --------------------------------------------------
    def run(self) -> list[TraceOutcome]:
        """Run every lane to completion; outcomes in (lane, index) order."""
        if self._obs:
            lane_counts: dict[int, int] = {}
            addresses: dict[int, str] = {}
            for lane in self.lanes:
                sid = id(lane.socket)
                lane_counts[sid] = lane_counts.get(sid, 0) + 1
                addresses[sid] = str(lane.socket.source_address)
            for sid, count in lane_counts.items():
                self._mf_lanes.labels(addresses[sid]).set(count)
        for lane in self.lanes:
            self._start_next_trace(lane)
        self._flush_sockets()
        while any(lane.session is not None
                  or lane.position < len(lane.specs)
                  for lane in self.lanes):
            self._drop_stale_expires()
            arrival = self.network.next_delivery_at()
            event_time = self.events.peek_time()
            if arrival is None and event_time is None:
                break
            if arrival is not None and (event_time is None
                                        or arrival <= event_time):
                self._advance_clock(arrival)
                for sock in self._sockets:
                    for response in sock.poll(until=arrival):
                        self._on_response(response, sock)
            else:
                event = self.events.pop()
                self._advance_clock(event.time)
                if event.kind is EventKind.EXPIRE:
                    self._on_expire(event.payload)
                else:
                    self._start_next_trace(event.payload)
            # One cohort per iteration: everything staged while handling
            # this instant's events walks the network together.
            self._flush_sockets()
        # Drain responses still in flight for cancelled speculative
        # probes: left buffered, a later scheduler on this network
        # could claim them against byte-identical re-probes (the
        # campaign reuses per-trace flows across runs by design).
        # Draining *through the sockets* keeps their received counters
        # execution-mode independent: a straggler addressed to a
        # vantage is counted whether or not some other lane's activity
        # would have polled it in before the run ended.  With metrics
        # on the drained stragglers also pass through _on_response so
        # their stale/duplicate classification is identical whether a
        # sibling lane's activity polled them in-loop or not (every
        # session has retired by now, so no claim can succeed).
        for sock in self._sockets:
            responses = sock.poll(until=float("inf"))
            if self._obs:
                for response in responses:
                    self._on_response(response, sock)
        self.network.deliveries(until=float("inf"))
        self.outcomes.sort(key=lambda o: (o.lane, o.index))
        return self.outcomes

    def _flush_sockets(self) -> None:
        """Walk every socket's staged probes as this instant's cohort.

        All vantages' probes go down in one
        :meth:`Network.submit_cohorts` call, so the transit plane
        shares route resolutions and egress fan-outs across the whole
        fleet's traffic — the walker's round-canonical scheduling is
        what keeps each vantage's timeline independent of who else is
        in the cohort (the sharding guarantee).
        """
        batches = []
        for sock in self._sockets:
            staged = sock.take_staged()
            if staged:
                batches.append((sock.host, staged))
                if self._obs:
                    # Per-socket staged size is a pure function of that
                    # vantage's own timeline (one event per iteration,
                    # arrivals processed per socket, then one flush) —
                    # deterministic across shard compositions.
                    self._instruments(sock).flush.observe(len(staged))
        if not batches:
            return
        if self._obs:
            self._mc_cohort.observe(sum(len(p) for __, p in batches))
        result = self.network.submit_cohorts(batches)
        if self._tracer is not None:
            self._annotate_drops(result)

    def _annotate_drops(self, result) -> None:
        """Attach walk drop records to the spans of the probes they hit.

        Drops carry packets, not probe ids: a dropped probe matches its
        own registered demux keys directly, and a dropped *response*
        (loss burst, link loss) matches through the keys it would have
        answered to.
        """
        tracer = self._tracer
        now = self.clock.now
        for drop in result.drops:
            packet = drop.packet
            for key in (*response_match_keys(packet),
                        *probe_match_keys(packet)):
                if tracer.annotate_key(key, kind="drop",
                                       at=now + drop.elapsed,
                                       node=drop.node.name,
                                       reason=drop.reason):
                    break

    def _drop_stale_expires(self) -> None:
        """Discard deadlines of probes already answered or cancelled.

        Without this, a finished campaign's leftover deadlines would
        drag the clock out to the last speculative probe's timeout even
        though no trace is waiting on it.
        """
        while True:
            event = self.events.peek()
            if (event is None or event.kind is not EventKind.EXPIRE
                    or event.payload in self._outstanding):
                return
            self.events.pop()

    def _advance_clock(self, timestamp: float) -> None:
        if timestamp > self.clock.now:
            self.clock.advance_to(timestamp)

    # -- lane / session lifecycle ---------------------------------------
    def _start_next_trace(self, lane: _Lane) -> None:
        if lane.position >= len(lane.specs):
            lane.session = None
            return
        spec = lane.specs[lane.position]
        not_before = getattr(spec, "not_before", 0.0)
        if not_before > self.clock.now:
            # The spec's schedule lies ahead: park the lane on its own
            # wake-up event.  Deferral is a pure function of the lane's
            # clock position and the spec constant, never of other
            # lanes' progress — the property sharding relies on.
            lane.session = None
            self.events.push(not_before, EventKind.LANE_START, lane)
            return
        strategy = spec.make_strategy(self.clock.now, self.window,
                                      lane.hints)
        session = TraceSession(strategy)
        lane.session = session
        if session.done:
            # A strategy with nothing to ask (e.g. already run to
            # completion elsewhere) still yields its outcome.
            self._retire(lane, session)
            return
        self._pump(lane)

    def _pump(self, lane: _Lane) -> None:
        """Send whatever the lane's strategy wants in flight now."""
        session = lane.session
        if session is None or session.done:
            return
        mx = lane.mx
        tracer = self._tracer
        for request in session.strategy.next_probes():
            if request.timeout is not None:
                timeout = request.timeout
            else:
                timeout = lane.timeout_policy.timeout_for()
            sent = lane.socket.send_nowait(request.probe, timeout=timeout)
            probe_id = self._next_probe_id
            self._next_probe_id += 1
            keys = probe_match_keys(request.probe)
            record = _Outstanding(session=session, request=request,
                                  lane=lane, keys=keys,
                                  sent_at=sent.sent_at)
            self._outstanding[probe_id] = record
            session.tokens.add(probe_id)
            for key in keys:
                self._index.setdefault(key, set()).add(probe_id)
            self.events.push(sent.deadline, EventKind.EXPIRE, probe_id)
            if mx is not None:
                mx.timeout_s.observe(timeout)
            if tracer is not None:
                tracer.begin(probe_id,
                             client=lane.socket.source_address,
                             destination=request.probe.dst,
                             ttl=request.probe.ip.ttl,
                             sent_at=sent.sent_at,
                             deadline=sent.deadline,
                             keys=keys)
        if mx is not None:
            mx.occupancy.observe(len(session.tokens))
        if session.done:
            # The strategy finished while emitting (no probe needed).
            self._retire(lane, session)
        elif not session.tokens:
            # Protocol violation: not finished, nothing in flight, and
            # nothing to send — no event will ever wake this lane.
            raise TracerError(
                "strategy stalled: not finished, yet no probe in flight")

    def _after_resolution(self, lane: _Lane) -> None:
        session = lane.session
        if session is None:
            return
        if session.done:
            self._retire(lane, session)
        else:
            self._pump(lane)

    def _retire(self, lane: _Lane, session: TraceSession) -> None:
        # Cancel probes the strategy no longer waits for (speculative
        # sends past its halt): their responses, if any, are stragglers.
        for token in list(session.tokens):
            self._forget(token)
        spec = lane.specs[lane.position]
        self.outcomes.append(TraceOutcome(
            lane=lane.index, index=lane.position, spec=spec,
            result=session.strategy.result(),
        ))
        spec.record_hints(session.strategy, lane.hints)
        lane.position += 1
        lane.session = None
        if lane.position < len(lane.specs):
            if lane.inter_trace_delay > 0:
                self.events.push(self.clock.now + lane.inter_trace_delay,
                                 EventKind.LANE_START, lane)
            else:
                self._start_next_trace(lane)

    def _forget(self, token: int) -> None:
        record = self._outstanding.pop(token, None)
        if record is None:
            return
        if self._tracer is not None:
            # Claim and timeout paths close their span first; whatever
            # is still open here is a cancelled speculative probe.
            self._tracer.close(token, "cancelled", self.clock.now)
        record.session.tokens.discard(token)
        for key in record.keys:
            tokens = self._index.get(key)
            if tokens is not None:
                tokens.discard(token)
                if not tokens:
                    del self._index[key]
            self._dead_keys.add(key)

    # -- event handlers --------------------------------------------------
    def _on_expire(self, token: int) -> None:
        record = self._outstanding.get(token)
        if record is None:
            return
        if self._obs:
            record.lane.mx.timeouts.inc()
        if self._tracer is not None:
            self._tracer.close(token, "timeout", self.clock.now)
        self._forget(token)
        record.session.strategy.on_timeout(record.request.token,
                                           self.clock.now)
        self._after_resolution(record.lane)

    def _on_response(self, response: ProbeResponse,
                     socket: AsyncProbeSocket | None = None) -> None:
        sock = socket if socket is not None else self.socket
        token, record = self._claim(response, sock)
        if record is None:
            if self._obs:
                self._classify_unclaimed(response, sock)
            return
        if self._obs:
            # The claim fence guarantees record.lane.socket is sock.
            mx = record.lane.mx
            mx.claims.inc()
            answered = mx.answered
            for key in record.keys:
                answered[key] = record.sent_at
        if self._tracer is not None:
            self._tracer.close(token, "claimed", self.clock.now,
                               rtt=response.rtt,
                               responder=str(response.packet.src))
        self._forget(token)
        record.session.strategy.on_reply(record.request.token, response,
                                         self.clock.now)
        record.lane.timeout_policy.observe(response.rtt)
        self._after_resolution(record.lane)

    def _classify_unclaimed(self, response: ProbeResponse,
                            socket: AsyncProbeSocket) -> None:
        """Count an unclaimed reply as duplicate, stale, or unmatched.

        A reply to dead keys whose implied send instant equals a
        previously *claimed* probe's send is an extra copy of an answer
        the strategy already consumed (network duplication); any other
        dead-key reply is a stale answer to a probe that stopped
        waiting.  Replies matching no key at all are unmatched.  All
        three derive from the client's own timeline, so the counts are
        shard-composition independent.
        """
        mx = self._instruments(socket)
        keys = response_match_keys(response.packet)
        if any(key in self._dead_keys for key in keys):
            implied_send = response.received_at - response.rtt
            answered = mx.answered
            for key in keys:
                sent_at = answered.get(key)
                if (sent_at is not None
                        and abs(sent_at - implied_send)
                        <= _CLAIM_TOLERANCE):
                    mx.duplicate.inc()
                    return
            mx.stale.inc()
        else:
            mx.unmatched.inc()

    def _is_fresh(self, response: ProbeResponse,
                  record: _Outstanding) -> bool:
        """True when ``response`` answers a probe sent at the record's
        own send instant.

        A response's walk time is measured from *its* probe's send, so
        ``received_at - rtt`` recovers that instant.  The check rejects
        a stale reply to an expired probe claiming a byte-identical
        re-probe — MDA re-uses a timed-out hop's flow index at deeper
        hops, and the campaign re-probes identical flows across rounds.
        """
        implied_send = response.received_at - response.rtt
        return abs(implied_send - record.sent_at) <= _CLAIM_TOLERANCE

    def _claim(
        self, response: ProbeResponse,
        socket: AsyncProbeSocket,
    ) -> tuple[Optional[int], Optional[_Outstanding]]:
        """Find the outstanding probe this response answers, if any.

        Only probes sent through ``socket`` — the vantage point the
        response actually arrived at — are candidates.  Two vantages'
        probes can share a demux key (identical ICMP Echo identifiers
        toward one destination) and even satisfy each other's builder
        matching; the socket fence is what keeps a reply, stale or not,
        from ever being claimed by the wrong vantage's trace.

        ICMP quotes additionally carry the offending datagram's IP
        Identification; a candidate whose probe disagrees with the
        quoted value is never the sender, so it is skipped outright.
        This is what lets hop-parallel MDA keep byte-identical flows
        outstanding at several TTLs: each probe's unique ip-id tag
        survives in the quote even though the TTL does not.
        """
        packet = response.packet
        keys = response_match_keys(packet)
        quoted_id = quoted_identification(packet)
        for key in keys:
            tokens = self._index.get(key)
            if not tokens:
                continue
            # Oldest first: when several live probes answer to one key
            # (tcptraceroute's constant ports), the earliest-sent one
            # wins, as it would under stop-and-wait.
            for token in sorted(tokens):
                record = self._outstanding.get(token)
                if (record is None or record.lane.socket is not socket
                        or not self._is_fresh(response, record)):
                    continue
                if (quoted_id is not None and quoted_id
                        != record.request.probe.ip.identification):
                    continue
                if record.request.builder.matches(record.request.probe,
                                                  packet):
                    return token, record
        if any(key in self._dead_keys for key in keys):
            # A straggler for a probe that stopped waiting (expired or
            # its trace already halted) — the sequential tool would
            # have printed its star long ago.
            return None, None
        # Exotic responses (mangled quotes) miss the index; fall back to
        # the full per-tool matching scan so nothing real is dropped.
        for token, record in self._outstanding.items():
            if (record.lane.socket is socket
                    and self._is_fresh(response, record)
                    and (quoted_id is None or quoted_id
                         == record.request.probe.ip.identification)
                    and record.request.builder.matches(record.request.probe,
                                                       packet)):
                return token, record
        return None, None

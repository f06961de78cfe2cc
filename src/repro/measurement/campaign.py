"""The side-by-side measurement campaign (paper Sec. 3).

Per round, each of 32 virtual workers walks its share of the
destination list; for each destination it runs Paris traceroute first
and classic traceroute second, with identical timing parameters — one
probe per hop, a 2-second response timeout, minimum TTL 2 (skipping the
university network), at most 39 hops, halting after eight consecutive
stars or a Destination Unreachable.

Workers are *virtual*: the scheduler interleaves their timelines over
the shared simulated clock (earliest-free-worker first), so elapsed
campaign time behaves as if the workers ran in parallel — a round's
duration is the time the busiest worker needed, not the sum over all
traces.  Routing dynamics scheduled on the clock therefore interact
with the campaign exactly as they would in the paper's month of
measurement.

Two engines drive the probing (``CampaignConfig.engine``):

- ``"sequential"`` — the paper's regime: each worker has one probe in
  flight, hop after hop, trace after trace;
- ``"pipelined"`` — the event-driven engine: the campaign is a
  one-vantage :class:`repro.vantage.campaign.FleetCampaign` that
  re-synchronises its workers each round — the round's lanes share one
  :class:`repro.engine.scheduler.ProbeScheduler`, each trace keeping a
  window of probes in flight, and the next round starts when the
  busiest lane is done.

Per-trace flows (Paris's port pair, classic's PID) are derived from the
trace's campaign coordinates rather than from a shared stream, so both
engines probe any given (round, destination, tool) with identical
packets and — on topologies without order-sensitive randomness
(per-packet balancers, loss) — infer identical routes.

Beyond the paired traces, a campaign accepts arbitrary sans-I/O
probing strategies (``strategy_factory``): each (round, destination)
then also runs the factory's strategy — MDA census rounds being the
canonical case (:meth:`Campaign.mda_strategy_factory`) — on whichever
engine drives the campaign.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Iterable, Optional

from repro.core.route import MeasuredRoute
from repro.engine.scheduler import DEFAULT_WINDOW
from repro.errors import CampaignError
from repro.net.inet import IPv4Address
from repro.probing.executor import run_strategy
from repro.probing.mda import MdaStrategy
from repro.probing.mdalite import MdaLiteStrategy
from repro.probing.strategy import ProbeStrategy
from repro.sim.endhost import MeasurementHost
from repro.sim.network import Network
from repro.sim.socketapi import ProbeSocket
from repro.tracer.base import TracerouteOptions
from repro.tracer.classic import ClassicTraceroute
from repro.tracer.paris import ParisTraceroute
from repro.measurement.destinations import split_among_workers


@dataclass
class TraceCampaignConfig:
    """What the campaign and the fleet campaign share: rounds, workers,
    and the paired traces' parameters.  Defaults mirror the paper's
    setup."""

    rounds: int = 1
    workers: int = 32
    timeout: float = 2.0
    min_ttl: int = 2
    max_ttl: int = 39
    max_consecutive_stars: int = 8
    probes_per_hop: int = 1
    paris_method: str = "udp"
    classic_method: str = "udp"
    classic_pid_base: int = 4242
    #: Extra pacing after each trace, seconds (0 = reply-paced only).
    inter_trace_delay: float = 0.0
    seed: int = 0
    #: In-flight probes per trace under the event engine (1
    #: approximates stop-and-wait pacing).
    window: int = DEFAULT_WINDOW

    #: (field, allowed values) pairs of a subclass's enumerated fields.
    _choices = ()

    def __post_init__(self) -> None:
        for name, allowed in self._choices:
            value = getattr(self, name)
            if value not in allowed:
                raise CampaignError(
                    f"{name} must be one of {allowed}, not {value!r}")
        if self.rounds < 1:
            raise CampaignError(f"need at least one round: {self.rounds}")
        if self.workers < 1:
            raise CampaignError(f"need at least one worker: {self.workers}")
        if self.window < 1:
            raise CampaignError(
                f"window must be at least 1, got {self.window}")

    def options(self) -> TracerouteOptions:
        return TracerouteOptions(
            min_ttl=self.min_ttl,
            max_ttl=self.max_ttl,
            probes_per_hop=self.probes_per_hop,
            max_consecutive_stars=self.max_consecutive_stars,
        )


@dataclass
class CampaignConfig(TraceCampaignConfig):
    """Campaign parameters; defaults mirror the paper's setup."""

    #: Probe engine: "sequential" (stop-and-wait, the paper's setup) or
    #: "pipelined" (event-driven, a window of probes in flight).
    engine: str = "sequential"

    _choices = (("engine", ("sequential", "pipelined")),)


@dataclass
class RoundRecord:
    """Timing bookkeeping for one completed round."""

    index: int
    started_at: float
    finished_at: float
    traces: int

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class StrategyOutcome:
    """One extra-strategy run a campaign performed."""

    round_index: int
    worker: int
    destination: IPv4Address
    result: object


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    routes: list[MeasuredRoute] = field(default_factory=list)
    rounds: list[RoundRecord] = field(default_factory=list)
    destinations: list[IPv4Address] = field(default_factory=list)
    probes_sent: int = 0
    responses_received: int = 0
    #: Results of the per-destination extra strategies, if the campaign
    #: was given a ``strategy_factory`` (e.g. MDA census rounds).
    strategy_results: list[StrategyOutcome] = field(default_factory=list)
    #: :class:`repro.obs.MetricsSnapshot` of the network's registry at
    #: campaign end, when one was installed; None otherwise.  Kept out
    #: of every signature/equality path — observability never alters
    #: inference artifacts.
    metrics: object = None

    @property
    def mean_round_duration(self) -> float:
        if not self.rounds:
            return 0.0
        return sum(r.duration for r in self.rounds) / len(self.rounds)

    @property
    def mean_destination_time(self) -> float:
        """Mean simulated seconds per destination (Paris + classic pair).

        The paper reports "approximately 27.3 seconds for both a Paris
        traceroute and a classic traceroute to a given destination".
        """
        pairs = len(self.routes) // 2
        if pairs == 0:
            return 0.0
        total = sum(route.trace_duration for route in self.routes)
        return total / pairs

    def classic_routes(self) -> list[MeasuredRoute]:
        return [r for r in self.routes if not r.tool.startswith("paris")]

    def paris_routes(self) -> list[MeasuredRoute]:
        return [r for r in self.routes if r.tool.startswith("paris")]


def merge_campaign_results(
    parts: Iterable[CampaignResult],
) -> CampaignResult:
    """Combine partial campaign results into one.

    The merge path sharded executions rely on: every field is carried —
    routes, round records, probe/response counters, and crucially the
    ``strategy_results`` (whose payloads, e.g. MDA's per-hop
    ``stop_reason``, are kept by reference, not rebuilt).  Parts are
    concatenated in the order given, so callers sort shards by a
    canonical key first; destinations are deduplicated preserving first
    appearance.
    """
    merged = CampaignResult()
    seen: set[IPv4Address] = set()
    for part in parts:
        merged.routes.extend(part.routes)
        merged.rounds.extend(part.rounds)
        merged.probes_sent += part.probes_sent
        merged.responses_received += part.responses_received
        merged.strategy_results.extend(part.strategy_results)
        for destination in part.destinations:
            if destination not in seen:
                seen.add(destination)
                merged.destinations.append(destination)
    return merged


def share_offsets(shares: list[list[IPv4Address]]) -> list[int]:
    """Where each worker's share starts in the flat destination order:
    a trace's ordinal is the round's base plus this offset plus the
    trace's position in the share (see :func:`paired_builders`)."""
    offsets, total = [], 0
    for share in shares:
        offsets.append(total)
        total += len(share)
    return offsets


def paired_builders(paris: ParisTraceroute, classic: ClassicTraceroute,
                    destination: IPv4Address, ordinal: int):
    """Builder factories of one paired trace, Paris then classic.

    ``ordinal`` is the trace's engine-independent serial number —
    ``round * len(destinations)`` plus the trace's flat position in the
    worker split — so every engine probes a given (round, destination,
    tool) with the same flow.
    """
    return (
        lambda: paris.make_builder(destination, flow_index=ordinal),
        lambda: classic.make_builder(destination, ordinal=ordinal),
    )


def census_strategy(kind, paris: ParisTraceroute,
                    destination: IPv4Address, started_at: float,
                    alpha: float = 0.05, max_flows_per_hop: int = 64,
                    max_ttl: int = 30, window: int = DEFAULT_WINDOW,
                    hop_concurrency: int = 8) -> ProbeStrategy:
    """One destination's census-round MDA run, as the campaigns' MDA
    factories build it.

    ``kind`` constructs the strategy: :class:`MdaStrategy`, or
    :class:`MdaLiteStrategy` with its ``scout_flows`` bound.  Flows are
    drawn from ``paris`` with deterministic per-flow indices, so every
    engine probes identical packets and (absent order-sensitive
    randomness) enumerates identical interface sets.  The defaults are
    census-scale — 64 flows per hop, a window of 8, 8 hops in parallel
    — not the strategy's own stop-and-wait ones.
    """
    return kind(
        make_builder=lambda flow_index: paris.make_builder(
            destination, flow_index=flow_index),
        destination=destination,
        alpha=alpha,
        max_flows_per_hop=max_flows_per_hop,
        max_ttl=max_ttl,
        window=window,
        hop_concurrency=hop_concurrency,
        started_at=started_at,
    )


def publish_campaign_metrics(network: Network, lookup_baseline: int,
                             clients: Iterable) -> object:
    """Count per-destination outcomes; snapshot the registry.

    ``clients`` yields ``(source address, CampaignResult)`` pairs.
    Every family is created even when nothing lands in it, so every
    kind of campaign publishes the same set.  Summing every router's LPM
    counter is too slow for the transit plane's per-batch flush, so
    the network-wide total since ``lookup_baseline`` is published here,
    once per run.  Returns the snapshot, or None without a registry.
    """
    from repro.obs.registry import SCOPE_PROCESS, active_registry

    registry = active_registry(network)
    if registry is None:
        return None
    registry.gauge(
        "repro_fib_route_lookups",
        "Network-wide LPM resolutions since this campaign began.",
        (), scope=SCOPE_PROCESS).set(
            network.route_lookups() - lookup_baseline)
    outcomes = registry.counter(
        "repro_campaign_traces_total",
        "Completed traces per client, tool, and halt reason.",
        ("client", "tool", "halt"))
    strategies = registry.counter(
        "repro_campaign_strategy_runs_total",
        "Extra per-destination strategy runs, per client.",
        ("client",))
    for address, result in clients:
        client = str(address)
        for route in result.routes:
            outcomes.labels(client, route.tool, route.halt_reason).inc()
        if result.strategy_results:
            strategies.labels(client).inc(len(result.strategy_results))
    return registry.snapshot()


class Campaign:
    """Drive rounds of paired traces over a simulated internet.

    ``strategy_factory`` opens the campaign to arbitrary probing
    strategies: when given, each (round, destination) additionally runs
    the strategy it returns — on the blocking socket under the
    sequential engine, as an extra lane entry under the pipelined one —
    and the products land in :attr:`CampaignResult.strategy_results`.
    The factory signature is ``(round_index, worker, position,
    destination, started_at) -> ProbeStrategy``;
    :meth:`mda_strategy_factory` builds the canonical one (an MDA
    census: every destination's load-balancer interfaces enumerated
    each round).
    """

    def __init__(
        self,
        network: Network,
        source: MeasurementHost,
        destinations: Iterable[IPv4Address],
        config: CampaignConfig | None = None,
        strategy_factory: Optional[callable] = None,
    ) -> None:
        self.network = network
        self.source = source
        # Counter fence: repeated campaigns on one network (the monitor
        # service's regime) publish only their *own* LPM resolutions,
        # not whatever earlier runs left on the routers.
        self._lookup_baseline = network.route_lookups()
        self.destinations = [IPv4Address(d) for d in destinations]
        if not self.destinations:
            raise CampaignError("campaign needs at least one destination")
        self.config = config or CampaignConfig()
        self._socket = ProbeSocket(network, source,
                                   timeout=self.config.timeout)
        options = self.config.options()
        self._paris = ParisTraceroute(
            self._socket, method=self.config.paris_method,
            seed=self.config.seed, options=options)
        # Each classic trace models a new traceroute process (fresh
        # PID, hence fresh Source Port) as in the paper's campaign.
        self._classic = ClassicTraceroute(
            self._socket, method=self.config.classic_method,
            pid=self.config.classic_pid_base, fixed_pid=False,
            options=options)
        # The pipelined engine's one-vantage fleet.  Built on the first
        # run, so a registry installed after construction is seen, and
        # kept, so its socket counters and halt-TTL memo span runs.
        self._fleet = None
        self.strategy_factory = strategy_factory

    def mda_strategy_factory(self, **params) -> callable:
        """A ``strategy_factory`` running MDA toward each destination.

        Flows come from the campaign's Paris tool; ``params`` and their
        census defaults are :func:`census_strategy`'s.
        """
        return lambda *coords: census_strategy(
            MdaStrategy, self._paris, *coords[-2:], **params)

    def mda_lite_strategy_factory(self, scout_flows: int = 3,
                                  **params) -> callable:
        """A ``strategy_factory`` running MDA-Lite toward each destination.

        Same flows and ``params`` as :meth:`mda_strategy_factory`; only
        the stopping rule (and its census-scale probe budget) differs.
        """
        lite = partial(MdaLiteStrategy, scout_flows=scout_flows)
        return lambda *coords: census_strategy(
            lite, self._paris, *coords[-2:], **params)

    def run(self, progress: Optional[callable] = None) -> CampaignResult:
        """Run all configured rounds; returns the collected routes.

        ``progress`` receives each round's :class:`RoundRecord` as the
        round ends, with the clock standing at its ``finished_at``.
        """
        if self.config.engine == "pipelined":
            return self._run_fleet(progress)
        result = CampaignResult(destinations=list(self.destinations))
        shares = split_among_workers(self.destinations, self.config.workers)
        offsets = share_offsets(shares)
        for round_index in range(self.config.rounds):
            record = self._run_round(round_index, shares, offsets, result)
            result.rounds.append(record)
            if progress is not None:
                progress(record)
        result.probes_sent = self._socket.probes_sent
        result.responses_received = self._socket.responses_received
        result.metrics = publish_campaign_metrics(
            self.network, self._lookup_baseline,
            [(self.source.address, result)])
        return result

    def _run_fleet(self, progress: Optional[callable]) -> CampaignResult:
        """The pipelined engine: a one-vantage fleet whose lanes
        re-synchronise each round (its private round-barrier shape)."""
        from repro.vantage.campaign import FleetCampaign, FleetConfig

        if self._fleet is None:
            shared = {item.name: getattr(self.config, item.name)
                      for item in fields(TraceCampaignConfig)}
            self._fleet = FleetCampaign(
                self.network, [self.source], self.destinations,
                FleetConfig(**shared))
            # Fence lookups from this campaign's construction on, not
            # from its first run.
            self._fleet._lookup_baseline = self._lookup_baseline
        # Read at run time: callers may assign the factory after
        # construction.  The fleet passes the vantage first.
        factory = self.strategy_factory
        self._fleet.strategy_factory = (
            None if factory is None
            else lambda vantage, *coords: factory(*coords))
        self._fleet._on_round = progress or (lambda record: None)
        fleet_result = self._fleet.run()
        result = fleet_result.vantages[0].result
        result.metrics = fleet_result.metrics
        return result

    def _run_round(
        self,
        round_index: int,
        shares: list[list[IPv4Address]],
        offsets: list[int],
        result: CampaignResult,
    ) -> RoundRecord:
        clock = self.network.clock
        round_start = clock.now
        # Earliest-free-worker scheduling: heap of (free_at, worker id,
        # position in the worker's share).
        heap: list[tuple[float, int, int]] = [
            (round_start, worker, 0)
            for worker, share in enumerate(shares) if share
        ]
        heapq.heapify(heap)
        traces = 0
        round_end = round_start
        while heap:
            free_at, worker, position = heapq.heappop(heap)
            destination = shares[worker][position]
            clock.seek(free_at)
            ordinal = (round_index * len(self.destinations)
                       + offsets[worker] + position)
            builders = paired_builders(self._paris, self._classic,
                                       destination, ordinal)
            for tracer, make_builder in zip((self._paris, self._classic),
                                            builders):
                trace = tracer.trace(destination, builder=make_builder())
                route = MeasuredRoute.from_result(trace,
                                                  round_index=round_index)
                result.routes.append(route)
                traces += 1
                if self.config.inter_trace_delay:
                    clock.advance(self.config.inter_trace_delay)
            if self.strategy_factory is not None:
                strategy = self.strategy_factory(
                    round_index, worker, position, destination, clock.now)
                outcome = run_strategy(self._socket, strategy)
                result.strategy_results.append(StrategyOutcome(
                    round_index=round_index, worker=worker,
                    destination=destination, result=outcome))
                if self.config.inter_trace_delay:
                    clock.advance(self.config.inter_trace_delay)
            round_end = max(round_end, clock.now)
            if position + 1 < len(shares[worker]):
                heapq.heappush(heap, (clock.now, worker, position + 1))
        clock.seek(round_end)
        return RoundRecord(index=round_index, started_at=round_start,
                           finished_at=round_end, traces=traces)

"""The fleet campaign: one measurement, many vantage points.

The paper measures from two sources and compares anomaly rates per
source (Sec. 3); :class:`FleetCampaign` generalises that workload to N
vantage points probing over one shared simulated clock.  Every owned
vantage contributes ``workers`` lanes to a single
:class:`repro.engine.scheduler.ProbeScheduler`; each lane runs the
Sec. 3 paired-trace protocol (Paris first, classic second, identical
timing) — plus any extra :class:`repro.probing.ProbeStrategy` the
caller's factory supplies — against the vantage's share of the
destination list, round after round.  :meth:`FleetCampaign.run` is
the one place lanes are built: a private hook yields each worker's
lane as (round, position, destination, not_before) entries, and the
monitor service overrides only that hook, with its calendar.

**Timeline semantics.**  Lanes cycle continuously: a worker starts its
round ``r + 1`` the moment it finishes round ``r`` (the regime of the
paper's 32 always-busy processes), so there is *no cross-vantage
barrier* — each vantage's timeline is a pure function of the topology,
its own lane contents, and the shared clock's origin.  On topologies
without order-sensitive randomness (no per-packet balancers, no loss),
that independence is exact, which is what makes sharded execution
(:mod:`repro.vantage.sharding`) reproduce the single-process result
byte for byte: a shard replays exactly the lanes its vantages would
have run, on a seeded topology replica, and the merge is pure
concatenation in canonical vantage order.  The one barrier is private
to the one-vantage delegate of
:class:`repro.measurement.campaign.Campaign`, whose rounds start
together when the previous round's last lane is done; with a single
vantage there is no other timeline to couple.

Per-vantage isolation inside the shared scheduler:

- every lane probes through its vantage's
  :class:`repro.vantage.demux.VantageSocket` (replies demuxed by
  receiving host, claims fenced per socket);
- horizon-hint memos are per vantage — one vantage's halt depths never
  pace another's traces;
- timeout policies are per vantage, so an adaptive estimator only ever
  sees its own vantage's RTT samples.

Per-trace flows derive from (round, destination position) ordinals
exactly as the single-vantage campaign's do — every vantage probes a
given (round, destination, tool) with the same transport flow from its
own source address, the configuration the Sec. 3 comparison wants.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

from repro.core.route import MeasuredRoute
from repro.engine.scheduler import (
    AdaptiveTimeout,
    FixedTimeout,
    ProbeScheduler,
    StrategySpec,
    TraceSpec,
)
from repro.errors import CampaignError
from repro.measurement.campaign import (
    CampaignResult,
    RoundRecord,
    StrategyOutcome,
    TraceCampaignConfig,
    census_strategy,
    merge_campaign_results,
    paired_builders,
    publish_campaign_metrics,
    share_offsets,
)
from repro.measurement.destinations import split_among_workers
from repro.measurement.storage import (
    route_to_dict,
    strategy_result_to_jsonable,
)
from repro.net.inet import IPv4Address
from repro.probing.mda import MdaStrategy
from repro.probing.mdalite import MdaLiteStrategy
from repro.sim.endhost import MeasurementHost
from repro.sim.network import Network
from repro.tracer.classic import ClassicTraceroute
from repro.tracer.paris import ParisTraceroute
from repro.vantage.fleet import VantageFleet

#: Destination assignment modes: every vantage probes the full list
#: (the paper's per-source comparison) or a disjoint share of it (the
#: throughput axis).
ASSIGNMENTS = ("replicate", "shard")

#: Timeout policy choices, materialised per vantage.
TIMEOUT_POLICIES = ("fixed", "adaptive")


@dataclass
class FleetConfig(TraceCampaignConfig):
    """Fleet campaign parameters; trace defaults mirror the paper's.

    The fleet always runs the event engine, so ``window`` always
    applies.
    """

    #: Worker lanes *per vantage*.
    workers: int = 8
    #: "replicate" (every vantage probes every destination) or "shard"
    #: (the list is split across vantages, ``split_among_workers``-style).
    assignment: str = "replicate"
    #: "fixed" (the paper's flat wait) or "adaptive" (RFC 6298-style,
    #: one estimator per vantage).
    timeout_policy: str = "fixed"
    #: Adaptive policy floor, seconds (its ceiling is ``timeout``).
    adaptive_floor: float = 0.1

    _choices = (("assignment", ASSIGNMENTS),
                ("timeout_policy", TIMEOUT_POLICIES))

    def make_timeout_policy(self):
        """A fresh per-vantage timeout policy instance."""
        if self.timeout_policy == "adaptive":
            return AdaptiveTimeout(ceiling=self.timeout,
                                   floor=self.adaptive_floor)
        return FixedTimeout(self.timeout)


@dataclass
class VantageOutcome:
    """One vantage point's campaign, with its fleet coordinates."""

    index: int
    name: str
    address: IPv4Address
    destinations: list[IPv4Address]
    result: CampaignResult


@dataclass
class FleetResult:
    """Everything a fleet campaign produced, per vantage.

    ``vantages`` holds one :class:`VantageOutcome` per vantage that
    actually ran, in fleet-index order.  A sharded execution produces
    one partial ``FleetResult`` per shard; :meth:`merge` recombines
    them — and because every field (routes, rounds, counters,
    ``strategy_results`` with all their forensics) travels inside the
    per-vantage :class:`repro.measurement.campaign.CampaignResult`,
    nothing is lost on the way through a shard boundary.
    """

    destinations: list[IPv4Address] = field(default_factory=list)
    vantages: list[VantageOutcome] = field(default_factory=list)
    #: :class:`repro.obs.MetricsSnapshot` of the run's registry, when
    #: metrics were enabled (merged across shards by :meth:`merge`).
    #: Deliberately excluded from :meth:`to_dict` / :meth:`signature`:
    #: observability must never alter the inference artifacts it
    #: observes.
    metrics: object = None
    #: Probe-lifecycle spans from the run's tracer (merged and
    #: canonically ordered across shards); empty when tracing is off.
    #: Excluded from the signature like ``metrics``.
    spans: list = field(default_factory=list)
    #: :class:`repro.runtime.degradation.DegradationReport` stamped by a
    #: supervised execution (None on clean runs).  Like ``metrics`` it
    #: is operational metadata and never enters :meth:`to_dict` /
    #: :meth:`signature` — a degraded run differs in bytes because
    #: vantages are *missing*, not because it is labeled.
    degradation: object = None

    def vantage(self, index: int) -> VantageOutcome:
        for outcome in self.vantages:
            if outcome.index == index:
                return outcome
        raise CampaignError(f"no vantage {index} in this result")

    @property
    def labels(self) -> list[str]:
        return [v.name for v in self.vantages]

    def routes_by_vantage(self) -> dict[str, list[MeasuredRoute]]:
        """Vantage name -> its measured routes (fleet order)."""
        return {v.name: v.result.routes for v in self.vantages}

    def destinations_by_vantage(self) -> dict[str, list[IPv4Address]]:
        return {v.name: v.destinations for v in self.vantages}

    def merged(self) -> CampaignResult:
        """One flat campaign result across the whole fleet."""
        return merge_campaign_results(v.result for v in self.vantages)

    @classmethod
    def merge(cls, parts: Iterable["FleetResult"]) -> "FleetResult":
        """Recombine per-shard partial results deterministically."""
        parts = list(parts)
        if not parts:
            raise CampaignError("nothing to merge")
        merged = cls(destinations=list(parts[0].destinations))
        for part in parts:
            if part.destinations != merged.destinations:
                raise CampaignError(
                    "shards disagree on the destination list")
            merged.vantages.extend(part.vantages)
        merged.vantages.sort(key=lambda v: v.index)
        indices = [v.index for v in merged.vantages]
        if len(set(indices)) != len(indices):
            raise CampaignError(
                f"vantage appears in more than one shard: {indices}")
        snapshots = [p.metrics for p in parts if p.metrics is not None]
        if snapshots:
            from repro.obs.registry import MetricsSnapshot

            merged.metrics = MetricsSnapshot.merge(snapshots)
        spans = [span for part in parts for span in part.spans]
        if spans:
            from repro.obs.tracing import ProbeTracer

            spans.sort(key=ProbeTracer.sort_key)
            merged.spans = spans
        reports = [p.degradation for p in parts
                   if p.degradation is not None]
        if reports:
            from repro.runtime.degradation import merge_reports

            merged.degradation = merge_reports(reports)
        return merged

    # -- canonical serialization ----------------------------------------
    def to_dict(self) -> dict:
        """A canonical JSON-ready form (stable across processes)."""
        return {
            "destinations": [str(d) for d in self.destinations],
            "vantages": [
                {
                    "index": v.index,
                    "name": v.name,
                    "address": str(v.address),
                    "destinations": [str(d) for d in v.destinations],
                    "probes_sent": v.result.probes_sent,
                    "responses_received": v.result.responses_received,
                    "rounds": [
                        {
                            "index": r.index,
                            "started_at": r.started_at,
                            "finished_at": r.finished_at,
                            "traces": r.traces,
                        }
                        for r in v.result.rounds
                    ],
                    "routes": [route_to_dict(r) for r in v.result.routes],
                    "strategies": [
                        {
                            "round": s.round_index,
                            "worker": s.worker,
                            "destination": str(s.destination),
                            "result": strategy_result_to_jsonable(s.result),
                        }
                        for s in v.result.strategy_results
                    ],
                }
                for v in self.vantages
            ],
        }

    def signature(self) -> str:
        """SHA-256 over the canonical serialization.

        Byte-identical results — the sharding determinism guarantee —
        have equal signatures; any lost hop, timestamp, strategy
        product, or ``stop_reason`` changes the digest.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class FleetCampaign:
    """Drive paired traces from many vantage points concurrently.

    ``sources`` is the *whole* fleet (destination assignment and trace
    ordinals are computed over it, so every execution mode agrees);
    ``vantage_ids`` restricts which vantages this instance actually
    runs — the sharding hook.  ``strategy_factory``, when given, is
    called as ``(vantage, round_index, worker, position, destination,
    started_at) -> ProbeStrategy`` once per (vantage, round,
    destination), after the destination's paired traces.
    """

    def __init__(
        self,
        network: Network,
        sources: Sequence[MeasurementHost],
        destinations: Iterable[IPv4Address],
        config: FleetConfig | None = None,
        strategy_factory: Optional[Callable] = None,
        vantage_ids: Optional[Sequence[int]] = None,
    ) -> None:
        self.network = network
        self.sources = list(sources)
        # Counter fence for repeated campaigns on one network: the
        # lookup gauge publishes this run's resolutions only (see the
        # same fence in :class:`repro.measurement.campaign.Campaign`).
        self._lookup_baseline = network.route_lookups()
        if not self.sources:
            raise CampaignError("a fleet needs at least one vantage point")
        self.destinations = [IPv4Address(d) for d in destinations]
        if not self.destinations:
            raise CampaignError("campaign needs at least one destination")
        self.config = config or FleetConfig()
        if vantage_ids is None:
            self.vantage_ids = list(range(len(self.sources)))
        else:
            self.vantage_ids = sorted(set(int(v) for v in vantage_ids))
            for v in self.vantage_ids:
                if not 0 <= v < len(self.sources):
                    raise CampaignError(
                        f"vantage id {v} out of range for a fleet of "
                        f"{len(self.sources)}")
            if not self.vantage_ids:
                raise CampaignError("vantage_ids selected no vantage")
        self.strategy_factory = strategy_factory

        # Destination assignment over the *full* fleet.
        if self.config.assignment == "shard":
            self._assigned = split_among_workers(self.destinations,
                                                 len(self.sources))
        else:
            self._assigned = [list(self.destinations)
                              for __ in self.sources]

        # Per-vantage plumbing: socket, tools, pacing memo, timeout
        # policy.  Tools are bound to the vantage's socket so builders
        # stamp the right source address.
        self._fleet = VantageFleet(
            network, [self.sources[v] for v in self.vantage_ids],
            timeout=self.config.timeout)
        options = self.config.options()
        self._paris: dict[int, ParisTraceroute] = {}
        self._classic: dict[int, ClassicTraceroute] = {}
        self._policies: dict[int, object] = {}
        self._hints: dict[int, dict] = {}
        self._share_offsets: dict[int, list[int]] = {}
        for slot, v in enumerate(self.vantage_ids):
            socket = self._fleet.sockets[slot]
            self._paris[v] = ParisTraceroute(
                socket, method=self.config.paris_method,
                seed=self.config.seed, options=options)
            self._classic[v] = ClassicTraceroute(
                socket, method=self.config.classic_method,
                pid=self.config.classic_pid_base, fixed_pid=False,
                options=options)
            self._policies[v] = self.config.make_timeout_policy()
            self._hints[v] = {}
        # The private round-barrier shape.  None keeps the lanes
        # continuous; a callable makes :meth:`run` re-synchronise them
        # at each round and receives each round's RoundRecord as the
        # round ends.  Only the one-vantage delegate of
        # :class:`repro.measurement.campaign.Campaign` sets it.
        self._on_round: Optional[Callable] = None

    # ------------------------------------------------------------------
    # the lane planner
    # ------------------------------------------------------------------
    def _lane_entries(self, share: list[IPv4Address]) -> list[tuple]:
        """One worker's lane as (round, position, destination,
        not_before) entries, in lane order.

        The fleet's shape is continuous: the share's rounds back to
        back, each trace starting as soon as its lane is free.  The
        monitor overrides this hook with its calendar.
        """
        return [(round_index, position, destination, 0.0)
                for round_index in range(self.config.rounds)
                for position, destination in enumerate(share)]

    def _entry_specs(self, vantage: int, worker: int, round_index: int,
                     position: int, destination: IPv4Address,
                     not_before: float) -> list:
        """One lane entry's specs: the paired traces, then the extra
        strategy when a factory is set.

        The trace ordinal runs over the vantage's own destination list,
        exactly as the single-vantage campaign's does, so two vantages
        replicating the list probe a given (round, destination) with the
        same flow.
        """
        ordinal = (round_index * len(self._assigned[vantage])
                   + self._share_offsets[vantage][worker] + position)
        paris, classic = self._paris[vantage], self._classic[vantage]
        builders = paired_builders(paris, classic, destination, ordinal)
        specs: list = [
            TraceSpec(tracer, destination, builder,
                      meta=(vantage, round_index), not_before=not_before)
            for tracer, builder in zip((paris, classic), builders)
        ]
        if self.strategy_factory is not None:
            specs.append(StrategySpec(
                factory=lambda started_at: self.strategy_factory(
                    vantage, round_index, worker, position, destination,
                    started_at),
                meta=(vantage, round_index, worker, destination),
                not_before=not_before,
            ))
        return specs

    def mda_strategy_factory(self, **params) -> Callable:
        """A ``strategy_factory`` running MDA from each vantage.

        Flows come from the vantage's own Paris tool, so the probes
        carry that vantage's source address and deterministic per-flow
        five-tuples; ``params`` and their census defaults are
        :func:`repro.measurement.campaign.census_strategy`'s.
        """
        return lambda vantage, *coords: census_strategy(
            MdaStrategy, self._paris[vantage], *coords[-2:], **params)

    def mda_lite_strategy_factory(self, scout_flows: int = 3,
                                  **params) -> Callable:
        """A ``strategy_factory`` running MDA-Lite from each vantage.

        Same flows and ``params`` as :meth:`mda_strategy_factory`; only
        the stopping rule (and its census budget) differs.
        """
        lite = partial(MdaLiteStrategy, scout_flows=scout_flows)
        return lambda vantage, *coords: census_strategy(
            lite, self._paris[vantage], *coords[-2:], **params)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> FleetResult:
        """Run every owned vantage's lanes; returns per-vantage results.

        Continuous lanes all run on one scheduler.  The round-barrier
        shape runs one scheduler per round over the same sockets,
        timeout policies and halt-TTL memos: a round starts at the
        clock's instant and ends at its last resolution, where the
        clock is set before ``_on_round`` receives the round's record.
        """
        cfg = self.config
        lanes = []
        for slot, v in enumerate(self.vantage_ids):
            shares = split_among_workers(self._assigned[v], cfg.workers)
            self._share_offsets[v] = share_offsets(shares)
            lanes.extend((slot, v, worker, self._lane_entries(share))
                         for worker, share in enumerate(shares) if share)
        barrier = self._on_round is not None
        outcomes, records = [], []
        for round_index in range(cfg.rounds) if barrier else [None]:
            started_at = self.network.clock.now
            scheduler = ProbeScheduler(
                self.network,
                self._fleet.sources[0],
                window=cfg.window,
                socket=self._fleet.sockets[0],
            )
            for slot, v, worker, entries in lanes:
                specs: list = []
                for entry in entries:
                    if round_index is None or entry[0] == round_index:
                        specs.extend(self._entry_specs(v, worker, *entry))
                scheduler.add_lane(
                    specs,
                    inter_trace_delay=cfg.inter_trace_delay,
                    socket=self._fleet.sockets[slot],
                    timeout_policy=self._policies[v],
                    horizon_hints=self._hints[v],
                )
            ran = scheduler.run()
            outcomes.extend(ran)
            if barrier:
                records.append(self._close_round(round_index, started_at,
                                                 ran))
                self._on_round(records[-1])
        result = self._assemble(outcomes, records if barrier else None)
        self._attach_observability(result)
        return result

    def _close_round(self, round_index: int, started_at: float,
                     outcomes) -> RoundRecord:
        """A barrier round's record; seeks the clock to its end."""
        clock = self.network.clock
        finished_at = max((getattr(o.result, "finished_at", started_at)
                           for o in outcomes), default=started_at)
        if self.strategy_factory is not None:
            # Strategy results need not carry timestamps; the scheduler
            # clock, which stopped at the last resolution, bounds them —
            # without this the seek below could rewind over their probes.
            finished_at = max(finished_at, clock.now)
        clock.seek(finished_at)
        return RoundRecord(
            index=round_index, started_at=started_at,
            finished_at=finished_at,
            traces=sum(isinstance(o.spec, TraceSpec) for o in outcomes))

    def _attach_observability(self, result: FleetResult) -> None:
        """Publish the campaign metrics; attach snapshot and spans."""
        from repro.obs.tracing import ProbeTracer

        result.metrics = publish_campaign_metrics(
            self.network, self._lookup_baseline,
            [(v.address, v.result) for v in result.vantages])
        tracer = getattr(self.network, "tracer", None)
        if tracer is not None:
            spans = tracer.records()
            spans.sort(key=ProbeTracer.sort_key)
            result.spans = spans

    def _assemble(self, outcomes, records) -> FleetResult:
        per_vantage: dict[int, CampaignResult] = {
            v: CampaignResult(destinations=list(self._assigned[v]))
            for v in self.vantage_ids
        }
        # Outcomes arrive sorted by (lane, entry) — vantage-major, then
        # worker, then each worker's chronological order (round-major
        # first in the barrier shape): the canonical route order every
        # execution mode reproduces.
        for outcome in outcomes:
            spec = outcome.spec
            if isinstance(spec, TraceSpec):
                v, round_index = spec.meta
                per_vantage[v].routes.append(MeasuredRoute.from_result(
                    outcome.result, round_index=round_index))
            else:
                v, round_index, worker, destination = spec.meta
                per_vantage[v].strategy_results.append(StrategyOutcome(
                    round_index=round_index, worker=worker,
                    destination=destination, result=outcome.result))
        result = FleetResult(destinations=list(self.destinations))
        for slot, v in enumerate(self.vantage_ids):
            campaign_result = per_vantage[v]
            campaign_result.rounds = (
                list(records) if records is not None
                else self._round_records(campaign_result))
            socket = self._fleet.sockets[slot]
            campaign_result.probes_sent = socket.probes_sent
            campaign_result.responses_received = socket.responses_received
            source = self.sources[v]
            result.vantages.append(VantageOutcome(
                index=v,
                name=source.name,
                address=source.address,
                destinations=list(self._assigned[v]),
                result=campaign_result,
            ))
        return result

    @staticmethod
    def _round_records(result: CampaignResult) -> list[RoundRecord]:
        """Per-round bookkeeping from trace (and strategy) timestamps.

        Lanes cycle continuously, so a vantage's round ``r`` spans from
        its first round-``r`` trace start to its last round-``r``
        resolution — rounds of different workers may overlap in time.
        """
        bounds: dict[int, list] = {}
        for route in result.routes:
            record = bounds.setdefault(
                route.round_index, [float("inf"), float("-inf"), 0])
            record[0] = min(record[0], route.started_at)
            record[1] = max(record[1],
                            route.started_at + route.trace_duration)
            record[2] += 1
        for outcome in result.strategy_results:
            started = getattr(outcome.result, "started_at", None)
            finished = getattr(outcome.result, "finished_at", None)
            if started is None or finished is None:
                continue
            record = bounds.setdefault(
                outcome.round_index, [float("inf"), float("-inf"), 0])
            record[0] = min(record[0], started)
            record[1] = max(record[1], finished)
        return [
            RoundRecord(index=index, started_at=bounds[index][0],
                        finished_at=bounds[index][1],
                        traces=bounds[index][2])
            for index in sorted(bounds)
        ]

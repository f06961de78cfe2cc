"""Recurring-campaign orchestration on one simulated clock.

The monitor's executor is a :class:`repro.vantage.campaign.FleetCampaign`
subclass that overrides only the lane entries: its lanes are
*calendars* instead of uniform rounds.  Each vantage worker's lane
holds every scheduled probe of its target share, ordered by scheduled
instant, with the instant stamped on the spec as
:attr:`repro.engine.scheduler.TraceSpec.not_before`; the fleet's own
``run`` builds the lanes and drives them.  One
:class:`repro.engine.scheduler.ProbeScheduler` drives every round of
every target — lanes are set up once and reused across rounds, and a
lane reaching a future round early simply parks on its own wake-up
event.  There is deliberately no cross-lane synchronization, so every
vantage's timeline stays a pure function of its own lanes and the
topology seed — the property the sharded mode inherits unchanged from
the fleet layer.

Execution reuses :mod:`repro.vantage.sharding`:
:class:`MonitorShardTask` is the picklable work unit (each shard
rebuilds a seeded topology replica with
:func:`repro.vantage.sharding.materialize_replica`, runs only its
vantages, streams its routes through the onset detector),
:func:`run_monitor` is the single-process reference, and
:func:`run_monitor_sharded` hands the partitioned tasks to the same
supervised executor as the fleet,
:func:`repro.vantage.sharding.run_sharded`.  Both finalize through
:meth:`repro.service.result.MonitorResult.merge` — literally the same
code path, which is what makes the byte-identity contract testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.fault_sensitivity import ground_truth_from_topology
from repro.service.config import MonitorConfig
from repro.service.detect import (
    OnsetDetector,
    dynamics_windows,
    fault_windows,
)
from repro.service.result import MonitorResult
from repro.service.schedule import build_schedule
from repro.topology.internet import InternetConfig
from repro.vantage.campaign import FleetCampaign, FleetResult
from repro.vantage.sharding import (
    materialize_replica,
    plan_shards,
    run_sharded,
)


class _MonitorCampaign(FleetCampaign):
    """A fleet campaign driven by per-target calendars.

    Reuses all the fleet plumbing — per-vantage sockets/tools/policies,
    deterministic trace ordinals, lane building, result assembly — and
    overrides only the lane entries: instead of ``rounds`` uniform
    passes, each worker's lane is its share's schedule flattened to
    (instant, position) order with ``not_before`` pacing.
    """

    def __init__(self, *args, monitor: MonitorConfig, **kwargs):
        super().__init__(*args, **kwargs)
        self._plans = {plan.destination: plan for plan
                       in build_schedule(self.destinations, monitor)}

    def _lane_entries(self, share):
        """The worker's calendar: every scheduled probe of every owned
        target, ordered by (instant, position) — ties resolve by share
        position, identically in every mode."""
        entries = [(round_index, position, destination, plan_time)
                   for position, destination in enumerate(share)
                   for round_index, plan_time
                   in enumerate(self._plans[destination].times)]
        return sorted(entries, key=lambda entry: (entry[3], entry[1]))


@dataclass
class MonitorShardTask:
    """Everything one monitor shard needs to rebuild its world and run.

    Picklable by construction, like
    :class:`repro.vantage.sharding.FleetShardTask`: plain configs, plain
    ints.  The fault phases and dynamics calendar travel inside
    ``internet``, so every shard replica evolves identically.
    """

    internet: InternetConfig
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    vantage_ids: list = field(default_factory=list)
    #: Pingable pre-screen truncation (None keeps all).
    max_destinations: Optional[int] = None
    #: Seed of the destination shuffle; defaults to the fleet seed.
    destination_seed: Optional[int] = None
    metrics: bool = False
    #: Ring capacity for a probe tracer; 0 disables tracing.
    trace_capacity: int = 0


def run_monitor_shard(task: MonitorShardTask) -> MonitorResult:
    """Run one shard to completion (the monitor's shard work function).

    Returns a *partial* :class:`MonitorResult` (``alerts is None``):
    windows and onsets for the shard's vantages only.  The alert
    pipeline runs post-merge on the coordinator.
    """
    topology, campaign = materialize_replica(
        task, task.monitor.fleet, _MonitorCampaign, monitor=task.monitor)
    fleet_result = campaign.run()
    return _analyze_shard(task, topology, fleet_result)


def _analyze_shard(task: MonitorShardTask, topology,
                   fleet_result: FleetResult) -> MonitorResult:
    """Stream the shard's routes through detection; build its partial."""
    ground = ground_truth_from_topology(topology)
    dynamics = dynamics_windows(topology.dynamics)
    faults = fault_windows(task.internet)
    monitor = task.monitor
    part = MonitorResult(config=monitor, fleet=fleet_result)
    onset_tallies: dict[tuple[str, str, str], int] = {}
    target_counts: dict[str, int] = {}
    for vantage in fleet_result.vantages:
        detector = OnsetDetector(
            vantage=vantage.index, client=str(vantage.address),
            ground=ground, dynamics=dynamics, faults=faults,
            warmup=monitor.warmup_rounds,
            window_depth=monitor.window_depth)
        # Route order is the canonical fleet order (chronological per
        # worker), so each (destination, tool) stream arrives in round
        # order and the onset list is a pure function of the routes.
        for route in vantage.result.routes:
            detector.feed(route)
        part.windows.extend(
            window.to_dict() for window in detector.windows.values())
        part.onsets.extend(detector.onsets)
        client = str(vantage.address)
        target_counts[client] = len(vantage.destinations)
        for onset in detector.onsets:
            key = (client, onset.family, onset.cause)
            onset_tallies[key] = onset_tallies.get(key, 0) + 1
    _publish_shard_metrics(topology.network, fleet_result,
                           onset_tallies, target_counts)
    part.windows.sort(key=lambda w: (
        w["vantage"], w["destination"], w["tool"]))
    part.onsets.sort(key=lambda o: (
        o.vantage, o.at, o.destination, o.tool, o.family, o.signature))
    return part


def _publish_shard_metrics(network, fleet_result, onset_tallies,
                           target_counts) -> None:
    """Client-scope onset metrics: disjoint across shards, so the
    merged snapshot's deterministic view matches single-process."""
    from repro.obs.registry import active_registry

    registry = active_registry(network)
    if registry is None:
        return
    onsets = registry.counter(
        "repro_monitor_onsets_total",
        "Detected onsets per client, family, and attributed cause.",
        ("client", "family", "cause"))
    for (client, family, cause), count in sorted(onset_tallies.items()):
        onsets.labels(client, family, cause).inc(count)
    targets = registry.gauge(
        "repro_monitor_targets",
        "Monitored destinations per client.",
        ("client",))
    for client, count in sorted(target_counts.items()):
        targets.labels(client).set(count)
    fleet_result.metrics = registry.snapshot()


def run_monitor(
    internet: InternetConfig,
    monitor: MonitorConfig | None = None,
    max_destinations: Optional[int] = None,
    destination_seed: Optional[int] = None,
    metrics: bool = False,
    trace_capacity: int = 0,
) -> MonitorResult:
    """Single-process reference execution: all vantages, one scheduler."""
    monitor = monitor or MonitorConfig()
    task = MonitorShardTask(
        internet=internet, monitor=monitor,
        vantage_ids=list(range(internet.n_vantages)),
        max_destinations=max_destinations,
        destination_seed=destination_seed,
        metrics=metrics, trace_capacity=trace_capacity)
    return MonitorResult.merge([run_monitor_shard(task)])


def run_monitor_sharded(
    internet: InternetConfig,
    monitor: MonitorConfig | None = None,
    shards: int = 2,
    processes: bool = False,
    max_destinations: Optional[int] = None,
    destination_seed: Optional[int] = None,
    metrics: bool = False,
    trace_capacity: int = 0,
    runtime=None,
    journal_path=None,
) -> MonitorResult:
    """Partition the monitor's vantages over ``shards`` replicas, merge,
    and finalize the alert pipeline over the merged onset stream.

    Runs under the supervisor — see
    :func:`repro.vantage.sharding.run_sharded` for what ``runtime``
    and ``journal_path`` change.
    """
    monitor = monitor or MonitorConfig()
    tasks = [
        MonitorShardTask(
            internet=internet, monitor=monitor, vantage_ids=vantage_ids,
            max_destinations=max_destinations,
            destination_seed=destination_seed,
            metrics=metrics, trace_capacity=trace_capacity)
        for vantage_ids in plan_shards(internet.n_vantages, shards)
    ]
    return run_sharded("monitor", tasks, run_monitor_shard,
                       MonitorResult.merge, lambda result: result.fleet,
                       processes=processes, runtime=runtime,
                       journal_path=journal_path)


class MonitorService:
    """The operator's facade over one monitored internet.

    Bundles the internet description and the monitor knobs; ``run``
    executes single-process or sharded and always returns a finalized
    :class:`MonitorResult` (alert log, health snapshot, metrics when
    enabled).
    """

    def __init__(
        self,
        internet: InternetConfig,
        monitor: MonitorConfig | None = None,
        max_destinations: Optional[int] = None,
        destination_seed: Optional[int] = None,
        metrics: bool = True,
        trace_capacity: int = 0,
    ) -> None:
        self.internet = internet
        self.monitor = monitor or MonitorConfig()
        self.max_destinations = max_destinations
        self.destination_seed = destination_seed
        self.metrics = metrics
        self.trace_capacity = trace_capacity

    def run(self, shards: int = 1, processes: bool = False,
            runtime=None, journal_path=None) -> MonitorResult:
        """Execute the service; ``shards > 1`` partitions the fleet.

        ``runtime`` / ``journal_path`` engage the supervised executor
        even at ``shards=1`` (one shard, still crash-safe).
        """
        if shards <= 1 and runtime is None and journal_path is None:
            return run_monitor(
                self.internet, self.monitor,
                max_destinations=self.max_destinations,
                destination_seed=self.destination_seed,
                metrics=self.metrics,
                trace_capacity=self.trace_capacity)
        return run_monitor_sharded(
            self.internet, self.monitor, shards=max(shards, 1),
            processes=processes,
            max_destinations=self.max_destinations,
            destination_seed=self.destination_seed,
            metrics=self.metrics,
            trace_capacity=self.trace_capacity,
            runtime=runtime, journal_path=journal_path)

"""Sharded fleet execution: vantages partitioned across processes.

A fleet campaign's vantage timelines are mutually independent (see
:mod:`repro.vantage.campaign`), so the fleet partitions cleanly: give
each shard a *seeded topology replica* (regenerated from the same
:class:`repro.topology.internet.InternetConfig`, hence identical down
to every fault seed and dynamics calendar), let it run only its
vantages' lanes, and merge the partial :class:`FleetResult`s in
canonical vantage order.  On topologies without order-sensitive
randomness (no per-packet balancers, no loss) the merged result is
byte-identical to the single-process run — same routes, same
timestamps, same strategy forensics — which :meth:`FleetResult.signature`
makes checkable in one comparison.

Every sharded run goes through one executor, :func:`run_sharded`,
which hands the shards to the :class:`repro.runtime.ShardSupervisor`:
worker crashes, hangs, and lost results are retried under seeded
backoff, an exhausted shard's vantages are reassigned to fresh
single-vantage workers, and whatever still fails is *excluded* — the
merged result carries a :class:`repro.runtime.DegradationReport`
instead of the run dying.  ``runtime=`` (a
:class:`repro.runtime.RuntimeOptions`) only changes the supervision
defaults and ``journal_path=`` adds a checkpoint journal.  Because
shard results are pure functions of their tasks, any recovery
schedule merges to the same bytes as the unfaulted run.

``processes=False`` (default) runs the shards sequentially in this
process — same replicas, same isolation, no pickling constraints;
``processes=True`` gives every attempt its own worker process.
Everything crossing the process boundary (the configs, the optional
``strategy_builder``, the results) must pickle, so
``strategy_builder`` has to be a module-level callable —
:func:`mda_strategy_builder` is the stock one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from typing import Callable, Optional, Sequence

from repro.errors import CampaignError
from repro.measurement.destinations import (
    select_pingable_destinations,
    split_among_workers,
)
from repro.runtime import (
    RunJournal,
    RuntimeOptions,
    ShardSpec,
    ShardSupervisor,
    run_identity,
)
from repro.topology.internet import InternetConfig, generate_internet
from repro.vantage.campaign import FleetCampaign, FleetConfig, FleetResult


def mda_strategy_builder(campaign: FleetCampaign) -> Callable:
    """The stock picklable ``strategy_builder``: an MDA census."""
    return campaign.mda_strategy_factory()


def mda_lite_strategy_builder(campaign: FleetCampaign) -> Callable:
    """Picklable ``strategy_builder`` for an MDA-Lite census."""
    return campaign.mda_lite_strategy_factory()


@dataclass
class FleetShardTask:
    """Everything one shard needs to rebuild its world and run.

    Picklable by construction: configs are plain dataclasses,
    ``vantage_ids`` plain ints, and ``strategy_builder`` (when set) a
    module-level callable invoked *inside* the shard as
    ``strategy_builder(campaign) -> strategy_factory``.
    """

    internet: InternetConfig
    fleet: FleetConfig
    vantage_ids: list[int]
    #: Pingable pre-screen truncation (None keeps all).
    max_destinations: Optional[int] = None
    #: Seed of the destination shuffle; defaults to the fleet seed.
    destination_seed: Optional[int] = None
    strategy_builder: Optional[Callable] = None
    #: Install a :class:`repro.obs.MetricsRegistry` on the shard's
    #: replica network before the campaign is built, so every layer
    #: binds instrumented children.  The shard's snapshot rides back on
    #: its partial :class:`FleetResult` and merges client-disjointly.
    metrics: bool = False
    #: Ring capacity for a :class:`repro.obs.ProbeTracer` on the
    #: replica network; 0 (default) disables tracing.
    trace_capacity: int = 0


def materialize_replica(task, fleet: FleetConfig,
                        campaign_cls=FleetCampaign, **kwargs):
    """A shard's seeded topology replica and the campaign over it.

    Shared by every shard kind: ``task`` carries ``internet``,
    ``vantage_ids``, the destination knobs, and the observability
    switches; ``fleet`` is the kind's :class:`FleetConfig` (its seed
    is the default destination-shuffle seed).  The campaign, of class
    ``campaign_cls`` with ``kwargs`` passed through, runs exactly
    ``task.vantage_ids``.  Returns ``(topology, campaign)``.
    """
    topology = generate_internet(task.internet)
    seed = (task.destination_seed if task.destination_seed is not None
            else fleet.seed)
    destinations = select_pingable_destinations(
        topology.network, topology.source,
        topology.destination_addresses,
        count=task.max_destinations, seed=seed)
    # Observability is installed *after* the pingable pre-screen: the
    # pre-screen probes from ``topology.source`` replay in every shard
    # replica, so counting them would break the merged-snapshot ==
    # single-process guarantee.  Metrics cover the campaign proper.
    if task.metrics:
        from repro.obs.registry import MetricsRegistry

        topology.network.metrics = MetricsRegistry()
    if task.trace_capacity > 0:
        from repro.obs.tracing import ProbeTracer

        topology.network.tracer = ProbeTracer(
            capacity=task.trace_capacity)
    campaign = campaign_cls(
        topology.network, topology.sources, destinations,
        config=fleet, vantage_ids=task.vantage_ids, **kwargs)
    return topology, campaign


def materialize_shard(task: FleetShardTask) -> FleetCampaign:
    """Build a shard's campaign on a fresh seeded topology replica."""
    __, campaign = materialize_replica(task, task.fleet)
    if task.strategy_builder is not None:
        campaign.strategy_factory = task.strategy_builder(campaign)
    return campaign


def run_shard(task: FleetShardTask) -> FleetResult:
    """Run one shard to completion (the fleet's shard work function)."""
    return materialize_shard(task).run()


def plan_shards(n_vantages: int, shards: int) -> list[list[int]]:
    """Partition vantage ids across shards, round-robin.

    The same ``split_among_workers`` rule the campaign layer uses for
    destinations — and like there, a shard may come up empty when
    there are more shards than vantages (it is simply dropped).
    """
    if shards < 1:
        raise CampaignError(f"need at least one shard: {shards}")
    return [share for share
            in split_among_workers(list(range(n_vantages)), shards)
            if share]


def run_fleet(
    internet: InternetConfig,
    fleet: FleetConfig | None = None,
    max_destinations: Optional[int] = None,
    destination_seed: Optional[int] = None,
    strategy_builder: Optional[Callable] = None,
    metrics: bool = False,
    trace_capacity: int = 0,
) -> FleetResult:
    """Single-process reference execution: all vantages, one scheduler."""
    fleet = fleet or FleetConfig()
    task = FleetShardTask(
        internet=internet, fleet=fleet,
        vantage_ids=list(range(internet.n_vantages)),
        max_destinations=max_destinations,
        destination_seed=destination_seed,
        strategy_builder=strategy_builder,
        metrics=metrics, trace_capacity=trace_capacity)
    return run_shard(task)


def run_fleet_sharded(
    internet: InternetConfig,
    fleet: FleetConfig | None = None,
    shards: int = 2,
    processes: bool = False,
    max_destinations: Optional[int] = None,
    destination_seed: Optional[int] = None,
    strategy_builder: Optional[Callable] = None,
    metrics: bool = False,
    trace_capacity: int = 0,
    runtime=None,
    journal_path=None,
) -> FleetResult:
    """Partition the fleet's vantages over ``shards`` replicas and merge.

    Runs under the supervisor — see :func:`run_sharded` for what
    ``runtime`` and ``journal_path`` change.
    """
    fleet = fleet or FleetConfig()
    tasks = [
        FleetShardTask(
            internet=internet, fleet=fleet, vantage_ids=vantage_ids,
            max_destinations=max_destinations,
            destination_seed=destination_seed,
            strategy_builder=strategy_builder,
            metrics=metrics, trace_capacity=trace_capacity)
        for vantage_ids in plan_shards(internet.n_vantages, shards)
    ]
    # ``run_shard`` and ``FleetResult.merge`` are looked up per call, so
    # whatever wraps them at run time (a profiler's spans) sees them.
    return run_sharded("fleet", tasks, run_shard, FleetResult.merge,
                       lambda result: result, processes=processes,
                       runtime=runtime, journal_path=journal_path)


# -- the shard executor ---------------------------------------------------
def run_sharded(kind: str, tasks: Sequence, run: Callable,
                merge: Callable, fleet_of: Callable,
                processes: bool = False, runtime=None,
                journal_path=None):
    """Run shard tasks under the supervisor and merge what completed.

    The one executor behind every sharded entry point, whatever the
    shard ``kind`` (``"fleet"``, ``"monitor"``).  Each task is a
    picklable dataclass with ``vantage_ids``, ``metrics``, and the
    configs that determine its bytes; ``run(task)`` (module-level: it
    crosses the process boundary) returns its partial result,
    ``merge(results)`` combines them, and ``fleet_of(result)`` locates
    a result's :class:`FleetResult`.

    Shard keys name the shard by its vantages (``shard-v0-2``), so the
    same plan always produces the same keys — journal resume and
    seeded chaos plans rely on it.  A result covering other vantages
    than its task's is rejected, never merged; a shard that exhausts
    its retries is split into one task per vantage.  ``runtime`` (a
    :class:`repro.runtime.RuntimeOptions`; None means the defaults)
    tunes retries, deadlines, backoff, and chaos; ``journal_path``
    checkpoints completed shards to a journal bound to the run's
    identity, so only the same run may resume from it.

    The merged result carries the run's
    :class:`repro.runtime.DegradationReport` (when there is anything
    to report) as ``degradation`` and, when shard metrics are on, the
    supervisor's ``repro_runtime_*`` series in its fleet's snapshot.
    """
    if not tasks:
        raise CampaignError("no shard tasks to supervise")
    journal = None
    if journal_path is not None:
        journal = RunJournal(journal_path, _run_identity(kind, tasks))
    coordinator = None
    if tasks[0].metrics:
        from repro.obs.registry import MetricsRegistry

        coordinator = MetricsRegistry()

    def validate(task, result) -> None:
        got = sorted(v.index for v in fleet_of(result).vantages)
        want = sorted(task.vantage_ids)
        if got != want:
            raise CampaignError(
                f"shard result covers vantages {got}, task owns {want}: "
                "refusing to merge a wrong-shard result")

    def split(spec) -> list:
        return [
            ShardSpec(key=f"{spec.key}/v{vantage_id}",
                      task=replace(spec.task, vantage_ids=[vantage_id]),
                      vantage_ids=[vantage_id])
            for vantage_id in spec.vantage_ids
        ]

    specs = [
        ShardSpec(
            key="shard-v" + "-".join(str(v) for v in task.vantage_ids),
            task=task, vantage_ids=list(task.vantage_ids))
        for task in tasks
    ]
    supervised = ShardSupervisor(
        specs, run, processes=processes,
        options=runtime or RuntimeOptions(), validate=validate,
        split=split, journal=journal, registry=coordinator).execute()
    merged = merge(supervised.results)
    merged.degradation = supervised.report
    if coordinator is not None:
        from repro.obs.registry import MetricsSnapshot

        fleet = fleet_of(merged)
        fleet.metrics = MetricsSnapshot.merge(
            [s for s in (fleet.metrics, coordinator.snapshot())
             if s is not None])
    return merged


def _run_identity(kind: str, tasks: Sequence) -> str:
    """The journal-binding digest of a sharded run.

    Covers everything that determines the run's bytes: the kind, the
    shard plan, and every other field of the (uniform) tasks — configs
    as plain dicts, a callable such as the strategy builder by name.
    """
    first = tasks[0]
    description = {"kind": kind,
                   "plan": [list(task.vantage_ids) for task in tasks]}
    for item in fields(first):
        if item.name == "vantage_ids":
            continue
        value = getattr(first, item.name)
        if is_dataclass(value):
            value = asdict(value)
        elif callable(value):
            value = getattr(value, "__name__", None)
        description[item.name] = value
    return run_identity(description)

"""The benchmark's workloads, driven only through public entry points.

A workload turns the run's seed into one input and executes it as a
*repeat*: :meth:`setup`, which does only work the timed phase uses
(for the census: topology generation, the pingable pre-screen and the
dry round that calibrates its dynamics calendar; for the sharded runs,
whose shards generate their own topology replicas, little more than
the configs), then :meth:`run`, the timed phase, which returns a
:class:`Unit` of wall times, work counts and the output digests the
checks compare.  Every repeat builds a fresh topology: probing advances
the simulated clock and the routers' IP-ID streams, so a second pass
over one network would measure different traffic.

All traffic runs on the simulated network inside this one process and
thread.  "Lanes" and "vantages" are simulated closed-loop clients on
one event scheduler — a lane starts its next trace when the previous
one retires — not OS threads, sockets or links.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import repro.warehouse.ingest as warehouse_ingest
from repro.analysis.anomaly_tables import DEFAULT_DYNAMICS
from repro.core import report
from repro.faults import diurnal_rate_limit_phases, make_fault_profile
from repro.measurement import destinations as prescreen
from repro.measurement.campaign import Campaign, CampaignConfig
from repro.measurement.storage import route_to_dict
from repro.obs.registry import MetricsRegistry
from repro.runtime import RuntimeOptions
from repro.service import MonitorConfig, run_monitor, run_monitor_sharded
from repro.topology import internet
from repro.vantage import (
    FleetConfig,
    mda_lite_strategy_builder,
    run_fleet,
    run_fleet_sharded,
)
from repro.warehouse import queries
from repro.warehouse.store import Warehouse

#: Every workload measures one topology, generated from this seed, and
#: probes its destinations in the order this seed shuffles them (the
#: census also takes its dynamics calendar from it); the run's seed
#: drives the measurement on it — flow identifiers, and the fault
#: streams and rate-limit phases of the fleet and the monitor — so runs
#: with different seeds compare like with like.  Per-topology figures
#: such as the star ratio swing by a third from one generated internet
#: to the next; the census's simulated duration, set by its slowest
#: lane, by a sixth from one destination order to the next; and its
#: star ratio nearly doubles on one calendar in ten: far beyond any
#: bound worth gating on.
TOPOLOGY_SEED = 42
#: Measured census rounds.  ``run_calibrated_campaign`` defaults to 15
#: (the paper ran 556); two keep one repeat to seconds on a small
#: machine while the dynamics calendar, scaled to the run, still
#: produces loops and cycles.
CENSUS_ROUNDS = 2
FLEET_VANTAGES = 4
#: Pre-screened destinations the fleet census covers (of ~90): ten per
#: lane, so the slowest lane, which sets the simulated duration, varies
#: by a twentieth from seed to seed (half that many, by an eighth).
FLEET_TARGETS = 80
#: Simulated lanes per fleet vantage.
FLEET_LANES = 8
#: Config builds a fleet set-up times: about 7 ms in all.
CONFIG_BUILDS = 2000
#: Shards of the supervised runs (inline backend: with two shared
#: cores, process-level speed-up would measure the OS scheduler).
SHARDS = 2
MONITOR_VANTAGES = 4
MONITOR_TARGETS = 12
MONITOR_DURATION = 180.0
#: Canned-query sweeps per monitor repeat: enough latency samples for
#: a p95 with at least ten samples beyond it.
QUERY_SWEEPS = 30
QUERIES = (
    queries.per_as_artifact_rates,
    queries.per_cause_onset_rates,
    queries.tool_artifact_deltas,
    queries.anomaly_prevalence,
    queries.inconsistency_mining,
    queries.vantage_disagreements,
    queries.route_change_history,
)
QUERY_NAMES = tuple(query.__name__ for query in QUERIES)


@dataclass
class Prepared:
    """One input after set-up, ready for its timed phase."""

    seed: int
    setup_s: float
    parts: dict


@dataclass
class Unit:
    """What one repeat measured."""

    seed: int
    setup_s: float
    #: The timed phase: measurement through analysis, ingest, queries.
    wall_s: float
    #: Its measurement (probing) part.
    measure_s: float
    traces: int
    probes: int
    #: Simulated seconds the measurement phase covered.
    sim_s: float
    hops: int
    stars: int
    #: Operations attempted: traces, vantages, ingests and queries.
    operations: int
    #: Vantages a supervised run excluded.
    excluded: int
    digests: dict
    ingest_rows: int = 0
    ingest_s: float = 0.0
    query_ms: list = field(default_factory=list)
    #: MDA-Lite census: links discovered and probes spent on them.
    links: int = 0
    mda_probes: int = 0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _route_digest(routes) -> str:
    return _sha(json.dumps([route_to_dict(r) for r in routes],
                           sort_keys=True, separators=(",", ":")))


def _hop_counts(routes) -> tuple[int, int]:
    hops = stars = 0
    for route in routes:
        hops += len(route.hops)
        stars += sum(1 for hop in route.hops if hop.address is None)
    return hops, stars


class Census:
    """The paper's Sec. 3 campaign and Sec. 4 tables on the default
    internet: ``run_calibrated_campaign(engine="pipelined")`` step by
    step, so set-up and the timed phase are measured apart.  One
    vantage, 32 lanes, routing dynamics; no fault plane, no registry."""

    name = "census"
    default_metrics = False
    default_supervised = False
    #: The paired overhead ratios (``run.PAIRED``) a traced run
    #: measures; one vantage has no shards to supervise.
    paired = ("obs.enabled_overhead",)

    def setup(self, seed: int, metrics: bool) -> Prepared:
        started = time.perf_counter()
        topology = internet.generate_internet(
            internet.InternetConfig(seed=TOPOLOGY_SEED))
        destinations = prescreen.select_pingable_destinations(
            topology.network, topology.source,
            topology.destination_addresses, seed=TOPOLOGY_SEED)
        dry = Campaign(topology.network, topology.source, destinations,
                       CampaignConfig(rounds=1, seed=TOPOLOGY_SEED,
                                      engine="pipelined")).run()
        round_time = max(dry.mean_round_duration, 1.0)
        internet.schedule_dynamics(
            topology, horizon=round_time * (CENSUS_ROUNDS + 1),
            event_duration=round_time * 0.5, seed=TOPOLOGY_SEED + 1,
            **DEFAULT_DYNAMICS)
        if metrics:
            topology.network.metrics = MetricsRegistry()
        campaign = Campaign(
            topology.network, topology.source, destinations,
            CampaignConfig(rounds=CENSUS_ROUNDS, seed=seed,
                           engine="pipelined"))
        return Prepared(seed, time.perf_counter() - started,
                        {"campaign": campaign,
                         "destinations": destinations})

    def run(self, prepared: Prepared, supervised: bool,
            span=nullcontext) -> Unit:
        campaign = prepared.parts["campaign"]
        destinations = prepared.parts["destinations"]
        started = time.perf_counter()
        result = campaign.run()
        measured = time.perf_counter()
        loops = report.compute_loop_statistics(result.routes, destinations)
        cycles = report.compute_cycle_statistics(result.routes,
                                                 destinations)
        diamonds = report.compute_diamond_statistics(result.routes,
                                                     destinations)
        finished = time.perf_counter()
        tables = "\n\n".join([report.format_loop_table(loops),
                              report.format_cycle_table(cycles),
                              report.format_diamond_table(diamonds)])
        hops, stars = _hop_counts(result.routes)
        return Unit(
            seed=prepared.seed, setup_s=prepared.setup_s,
            wall_s=finished - started, measure_s=measured - started,
            traces=len(result.routes), probes=result.probes_sent,
            sim_s=(result.rounds[-1].finished_at
                   - result.rounds[0].started_at),
            hops=hops, stars=stars, operations=len(result.routes) + 1,
            excluded=0,
            digests={"routes": _route_digest(result.routes),
                     "tables": _sha(tables)})


def fleet_internet(seed: int) -> internet.InternetConfig:
    """The walk-bench internet, four vantages, adversarial faults."""
    return internet.InternetConfig(
        seed=TOPOLOGY_SEED, n_tier1=6, n_transit=10, n_stub=22, dests_per_stub=4,
        n_loop_stub_diamonds=4, n_cycle_stub_diamonds=1,
        n_nat_dests=2, n_zero_ttl_dests=2,
        response_loss_rate=0.0, p_per_packet=0.0,
        n_vantages=FLEET_VANTAGES,
        fault_profile=make_fault_profile("adversarial", seed=seed))


class FleetFaults:
    """An MDA-Lite multipath census from 4 vantages x 8 lanes under the
    adversarial fault profile, as K=2 supervised inline shards merged."""

    name = "fleet_faults"
    default_metrics = False
    default_supervised = True
    paired = ("runtime.overhead_ratio",)

    def setup(self, seed: int, metrics: bool) -> Prepared:
        # Only the configs: each shard generates its own replica of the
        # topology and pre-screens it, so both are part of the timed
        # phase here, as they are for anyone running a sharded fleet.
        # One build takes microseconds, mostly cache misses when timed
        # alone, so set-up time is the mean over CONFIG_BUILDS builds.
        started = time.perf_counter()
        for __ in range(CONFIG_BUILDS):
            config = fleet_internet(seed)
            fleet = FleetConfig(rounds=1, workers=FLEET_LANES, seed=seed)
        setup_s = (time.perf_counter() - started) / CONFIG_BUILDS
        return Prepared(seed, setup_s, {
            "internet": config, "metrics": metrics, "fleet": fleet})

    def run(self, prepared: Prepared, supervised: bool,
            span=nullcontext) -> Unit:
        parts = prepared.parts
        started = time.perf_counter()
        if supervised:
            result = run_fleet_sharded(
                parts["internet"], parts["fleet"], shards=SHARDS,
                max_destinations=FLEET_TARGETS,
                destination_seed=TOPOLOGY_SEED,
                strategy_builder=mda_lite_strategy_builder,
                metrics=parts["metrics"], runtime=RuntimeOptions())
        else:
            result = run_fleet(
                parts["internet"], parts["fleet"],
                max_destinations=FLEET_TARGETS,
                destination_seed=TOPOLOGY_SEED,
                strategy_builder=mda_lite_strategy_builder,
                metrics=parts["metrics"])
        finished = time.perf_counter()
        routes = [r for v in result.vantages for r in v.result.routes]
        strategies = [s.result for v in result.vantages
                      for s in v.result.strategy_results]
        rounds = [r for v in result.vantages for r in v.result.rounds]
        hops, stars = _hop_counts(routes)
        report_ = result.degradation
        return Unit(
            seed=prepared.seed, setup_s=prepared.setup_s,
            wall_s=finished - started, measure_s=finished - started,
            traces=len(routes) + len(strategies),
            probes=sum(v.result.probes_sent for v in result.vantages),
            sim_s=(max(r.finished_at for r in rounds)
                   - min(r.started_at for r in rounds)),
            hops=hops, stars=stars,
            operations=len(routes) + len(strategies) + FLEET_VANTAGES,
            excluded=(len(report_.excluded_vantages)
                      if report_ is not None else 0),
            digests={"signature": result.signature(),
                     "degradation": ("none" if report_ is None
                                     else report_.format())},
            links=sum(len(s.links()) for s in strategies),
            mda_probes=sum(s.total_probes for s in strategies))


def monitor_internet(seed: int) -> internet.InternetConfig:
    """The Sec. 3 monitor internet: routing dynamics over the whole
    horizon and two diurnal ICMP rate-limit days."""
    return internet.InternetConfig(
        seed=TOPOLOGY_SEED, n_tier1=3, n_transit=4, n_stub=8, dests_per_stub=2,
        n_loop_stub_diamonds=2, n_cycle_stub_diamonds=1, n_nat_dests=1,
        n_zero_ttl_dests=1, response_loss_rate=0.0, p_per_packet=0.0,
        n_vantages=MONITOR_VANTAGES, dynamics_horizon=MONITOR_DURATION,
        route_changes_per_hour=90.0, forwarding_loops_per_hour=30.0,
        event_duration=45.0,
        fault_phases=diurnal_rate_limit_phases(period=40.0, cycles=2,
                                               seed=seed))


def _remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


class MonitorStore:
    """Recurring monitor rounds from 4 vantages with the registry on,
    then an ingest into a file-backed (WAL) warehouse and repeated
    sweeps of the canned queries over it."""

    name = "monitor_store"
    default_metrics = True
    default_supervised = False
    paired = ("obs.enabled_overhead", "runtime.overhead_ratio")

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir

    def setup(self, seed: int, metrics: bool) -> Prepared:
        # The topology generated here gives the ingest its AS map; the
        # monitor's shards generate and pre-screen their own replicas
        # in the timed phase.
        started = time.perf_counter()
        config = monitor_internet(seed)
        topology = internet.generate_internet(config)
        monitor = MonitorConfig(duration=MONITOR_DURATION,
                                periods=(30.0, 40.0),
                                fleet=FleetConfig(workers=2, seed=seed))
        return Prepared(seed, time.perf_counter() - started, {
            "internet": config, "monitor": monitor,
            "asmap": topology.asmap, "metrics": metrics})

    def run(self, prepared: Prepared, supervised: bool,
            span=nullcontext) -> Unit:
        parts = prepared.parts
        started = time.perf_counter()
        if supervised:
            result = run_monitor_sharded(
                parts["internet"], parts["monitor"], shards=SHARDS,
                max_destinations=MONITOR_TARGETS,
                destination_seed=TOPOLOGY_SEED, metrics=parts["metrics"],
                runtime=RuntimeOptions())
        else:
            result = run_monitor(
                parts["internet"], parts["monitor"],
                max_destinations=MONITOR_TARGETS,
                destination_seed=TOPOLOGY_SEED, metrics=parts["metrics"])
        measured = time.perf_counter()
        path = self.work_dir / f"{self.name}-{prepared.seed}.sqlite"
        _remove_store(path)
        query_ms: list[float] = []
        query_rows: dict[str, int] = {}
        try:
            with Warehouse(path) as store:
                began = time.perf_counter()
                receipt = warehouse_ingest.ingest_monitor(
                    store, result, asmap=parts["asmap"])
                ingest_s = time.perf_counter() - began
                for __ in range(QUERY_SWEEPS):
                    for name, query in zip(QUERY_NAMES, QUERIES):
                        began = time.perf_counter()
                        with span(f"warehouse.query.{name}"):
                            rows = sum(1 for __ in query(store))
                        query_ms.append(
                            (time.perf_counter() - began) * 1e3)
                        query_rows[name] = rows
                content = store.content_digest()
        finally:
            _remove_store(path)
        finished = time.perf_counter()
        routes = [r for v in result.fleet.vantages for r in v.result.routes]
        hops, stars = _hop_counts(routes)
        return Unit(
            seed=prepared.seed, setup_s=prepared.setup_s,
            wall_s=finished - started, measure_s=measured - started,
            traces=len(routes),
            probes=sum(v.result.probes_sent for v in result.fleet.vantages),
            sim_s=result.health["sim_duration"], hops=hops, stars=stars,
            operations=(len(routes) + MONITOR_VANTAGES + 1
                        + len(query_ms)),
            excluded=0,
            digests={"signature": result.signature(),
                     "alerts": result.alerts.signature(),
                     "warehouse": content,
                     "query_rows": _sha(json.dumps(query_rows,
                                                   sort_keys=True))},
            ingest_rows=receipt.rows, ingest_s=ingest_s,
            query_ms=query_ms)


def make_workload(name: str, work_dir: Path):
    """The workload called ``name``; ``work_dir`` holds scratch files."""
    if name == "census":
        return Census()
    if name == "fleet_faults":
        return FleetFaults()
    if name == "monitor_store":
        return MonitorStore(work_dir)
    raise ValueError(f"unknown workload {name!r}")

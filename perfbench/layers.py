"""What the traced run wraps, and the per-layer metrics it derives.

:func:`targets` names, per layer, the public functions and methods a
:class:`perfbench.spans.SpanRecorder` wraps, and :func:`repeat_metrics`
turns one traced repeat's spans and counters into the per-layer
metrics ``BENCHMARK.json`` declares.  A span's layer is the part of its
name before the first dot, and :func:`layer_table` splits a traced
repeat's wall into each layer's self time plus the residual no span
covers.
"""

from __future__ import annotations

from collections import defaultdict

from perfbench.spans import self_times
from perfbench.stats import ratio
from perfbench.workloads import QUERY_NAMES
from repro.core import report
from repro.engine.asyncsocket import AsyncProbeSocket
from repro.engine.scheduler import ProbeScheduler
from repro.faults.plane import DeliveryFaultPlane
from repro.faults.schedule import ScheduledProfile
from repro.measurement import destinations
from repro.net.packet import Packet
from repro.obs.registry import MetricsRegistry
from repro.probing.hoploop import HopLoopStrategy
from repro.probing.mda import MdaStrategy
from repro.runtime.supervisor import ShardSupervisor
from repro.service import alerts
from repro.service.detect import OnsetDetector
from repro.service.result import MonitorResult
from repro.sim.network import Network
from repro.sim.node import Node
from repro.topology import internet
from repro.vantage import sharding
from repro.vantage.campaign import FleetResult
from repro.vantage.demux import VantageSocket
from repro.warehouse import ingest
from repro.warehouse.store import Warehouse

#: Strategy classes timed separately; ``mda`` covers ``MdaStrategy``
#: and its subclass ``MdaLiteStrategy``, the fleet census's strategy.
STRATEGIES = (("hoploop", HopLoopStrategy), ("mda", MdaStrategy))
CALLBACKS = ("next_probes", "on_reply", "on_timeout")


def targets(recorder) -> list:
    """``(kind, owner, attr, make)`` for :meth:`SpanRecorder.install`."""
    def timed(name, count=None, keep=False):
        return lambda fn: recorder.timed(name, fn, count=count, keep=keep)

    def cohort_probes(args, __):
        return {"sim.cohort_probes": sum(len(p) for __, p in args[1])}

    def polled(__, responses):
        return {"engine.polled": len(responses)}

    def rows(__, receipt):
        return {"warehouse.rows": receipt.rows}

    found = [
        ("function", internet, "generate_internet",
         timed("topology.generate", keep=True)),
        ("function", destinations, "select_pingable_destinations",
         timed("measurement.prescreen")),
        ("method", Network, "submit_cohorts",
         timed("sim.submit_cohorts", count=cohort_probes)),
        ("method", DeliveryFaultPlane, "apply", timed("faults.plane")),
        ("method", ScheduledProfile, "apply", timed("faults.schedule")),
        ("method", ProbeScheduler, "run", timed("engine.run")),
        ("method", AsyncProbeSocket, "poll",
         timed("engine.poll", count=polled)),
        ("method", VantageSocket, "poll",
         timed("engine.poll", count=polled)),
        ("method", Packet, "build",
         lambda fn: recorder.counted("net.packet_build", fn)),
        ("function", sharding, "run_shard", timed("vantage.shard_run")),
        ("method", FleetResult, "merge", timed("vantage.merge")),
        ("method", ShardSupervisor, "execute", timed("runtime.execute")),
        ("method", OnsetDetector, "feed", timed("service.detect")),
        ("function", alerts, "build_alert_log", timed("service.alerts")),
        ("method", MonitorResult, "merge", timed("service.merge")),
        ("function", ingest, "ingest_monitor",
         timed("warehouse.ingest", count=rows)),
        ("method", Warehouse, "content_digest", timed("warehouse.digest")),
        ("method", MetricsRegistry, "snapshot", timed("obs.snapshot")),
    ]
    found += [("method", Node, attr, timed("sim.icmp_build"))
              for attr in ("make_time_exceeded", "make_unreachable",
                           "make_echo_reply")]
    found += [("function", report, attr, timed("core.tables"))
              for attr in ("compute_loop_statistics",
                           "compute_cycle_statistics",
                           "compute_diamond_statistics")]
    found += [("method", cls, callback,
               timed(f"probing.{key}.{callback}"))
              for key, cls in STRATEGIES for callback in CALLBACKS]
    return found


def repeat_metrics(spans, run: int, counts: dict, unit,
                   lookups: int, packet_builds: int) -> dict:
    """The span-derived per-layer metrics of one traced repeat.

    ``lookups`` and ``packet_builds`` are counted over the timed phase
    only; times and call counts cover set-up too, so the layer times
    and the residual sum to the repeat's traced wall.
    """
    times = self_times(spans, run)

    def total(name):
        return times.get(name, {}).get("total_s", 0.0)

    def own(name):
        return times.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    replies = sum(calls(f"probing.{key}.on_reply") for key, __ in STRATEGIES)
    timeouts = sum(calls(f"probing.{key}.on_timeout")
                   for key, __ in STRATEGIES)
    wall = unit.setup_s + unit.wall_s
    covered = sum(row["self_s"] for row in times.values())
    metrics = {
        "topology.generate.s": total("topology.generate"),
        "measurement.prescreen.s": total("measurement.prescreen"),
        "sim.submit_cohorts.self_s": own("sim.submit_cohorts"),
        "sim.submit_cohorts.calls": calls("sim.submit_cohorts"),
        "sim.probes_per_cohort": ratio(counts.get("sim.cohort_probes", 0),
                                       calls("sim.submit_cohorts")),
        "sim.route_lookups": lookups,
        "sim.icmp_build.s": total("sim.icmp_build"),
        "sim.icmp_build.calls": calls("sim.icmp_build"),
        "faults.plane.s": total("faults.plane"),
        "faults.plane.calls": calls("faults.plane"),
        "faults.schedule.s": total("faults.schedule"),
        "engine.run.self_s": own("engine.run"),
        "engine.poll.s": total("engine.poll"),
        "engine.poll.calls": calls("engine.poll"),
        "engine.claim_ratio": ratio(replies,
                                    counts.get("engine.polled", 0)),
        "probing.answered_ratio": ratio(replies, replies + timeouts),
        "probing.probes_per_link": ratio(unit.mda_probes, unit.links),
        "net.packet_build.per_probe": ratio(packet_builds, unit.probes),
        "vantage.shard_run.s": total("vantage.shard_run"),
        "vantage.merge.s": total("vantage.merge"),
        "runtime.execute.self_s": own("runtime.execute"),
        "core.tables.s": total("core.tables"),
        "service.detect.s": total("service.detect"),
        "service.detect.calls": calls("service.detect"),
        "service.alerts.s": total("service.alerts"),
        "service.merge.s": total("service.merge"),
        "warehouse.ingest.s": total("warehouse.ingest"),
        "warehouse.rows": counts.get("warehouse.rows", 0),
        "warehouse.digest.s": total("warehouse.digest"),
        "obs.snapshot.s": total("obs.snapshot"),
        "trace.residual_share": (wall - covered) / wall,
    }
    for key, __ in STRATEGIES:
        for callback in CALLBACKS:
            name = f"probing.{key}.{callback}"
            if callback != "on_timeout":
                metrics[f"{name}.s"] = total(name)
            metrics[f"{name}.calls"] = calls(name)
    for name in QUERY_NAMES:
        metrics[f"warehouse.query.{name}.s"] = total(
            f"warehouse.query.{name}")
    return metrics


def layer_table(spans, run: int, wall: float) -> list[tuple[str, float]]:
    """``(layer, self seconds)`` rows plus ``residual``; they sum to
    ``wall``, the traced repeat's set-up plus timed phase."""
    layers: dict[str, float] = defaultdict(float)
    for name, row in self_times(spans, run).items():
        layers[name.split(".")[0]] += row["self_s"]
    rows = sorted(layers.items(), key=lambda item: -item[1])
    rows.append(("residual", wall - sum(layers.values())))
    return rows

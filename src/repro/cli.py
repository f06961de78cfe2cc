"""Command-line interface: explore the reproduction without writing code.

Subcommands:

- ``figures`` — list the paper's figure topologies;
- ``trace`` — run a tool through a figure topology and print the
  classic-style output (``--verbose`` adds Paris traceroute's probe
  TTL / response TTL / IP ID columns);
- ``mda`` — multipath detection against a figure topology;
- ``fig1`` / ``fig2`` — the analytic experiments;
- ``census`` — the miniature Sec. 4 campaign with all three tables;
- ``campaign`` — a multi-vantage fleet campaign on a small generated
  internet, with the cross-vantage coverage report, side-by-side
  anomaly tables, and the determinism signature (run again with a
  different ``--shards`` — the signature must not change);
- ``monitor`` — the continuous monitoring service: recurring
  per-target campaigns on one simulated clock over an evolving
  internet (routing dynamics plus a diurnal rate-limit schedule),
  streaming onset detection with cause attribution, and the alert
  pipeline with its health snapshot;
- ``faults`` — the adversarial sweep: run the Sec. 4 census under each
  named fault profile (reordering, rate limiting, duplication, loss
  bursts) and attribute every observed anomaly — manufactured by the
  fault, a persisting probe-design artifact, or in-sim real;
- ``ingest`` — run a monitor (or fleet campaign) and append the result
  to a warehouse file, denormalizing the ground-truth AS map in;
- ``query`` — stream one canned warehouse analysis as rows;
- ``report`` — the full cross-campaign warehouse report.

Every file-output option (``--metrics-out``, ``--alerts-out``,
``--trace-out``, ``--warehouse-out``, ``--warehouse``) creates missing
parent directories instead of failing.

Exit codes follow one discipline: 0 on success (including gracefully
degraded supervised runs), 1 with a one-line ``error: ...`` on stderr
for operational failures (a missing warehouse, a failed run, an
unreadable journal), 2 for usage errors (invalid flag values).

``campaign``, ``monitor``, and ``ingest`` accept the fault-tolerant
runtime flags.  Every sharded run is supervised (retries under seeded
backoff, hang deadlines, reassignment, graceful degradation);
``--max-shard-retries`` / ``--shard-timeout`` change the supervisor's
defaults and engage it even at ``--shards 1``, and ``--resume
JOURNAL`` checkpoints every completed shard so an interrupted run
re-invoked with the same journal resumes signature-identically.  The
``# runtime:`` report prints whenever a runtime flag was given or the
run degraded or resumed.

Examples::

    repro-trace trace --figure 3 --tool classic
    repro-trace trace --figure 5 --tool paris --verbose
    repro-trace mda --figure 6
    repro-trace census --seed 7 --rounds 8
    repro-trace campaign --vantages 4 --shards 2
    repro-trace monitor --vantages 2 --duration 120 --alerts-out -
    repro-trace monitor --warehouse-out runs/w.sqlite
    repro-trace ingest --warehouse runs/w.sqlite --seed 11
    repro-trace query --warehouse runs/w.sqlite --name as-rates
    repro-trace report --warehouse runs/w.sqlite
    repro-trace faults --profiles reordering,rate-limit --mda
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro._version import __version__
from repro.errors import ReproError
from repro.sim.socketapi import ProbeSocket
from repro.topology import figures
from repro.tracer.classic import ClassicTraceroute
from repro.tracer.paris import ParisTraceroute
from repro.tracer.tcptraceroute import TcpTraceroute
from repro.tracer.text import render

FIGURES: dict[str, Callable[[], figures.FigureTopology]] = {
    "1": figures.figure1,
    "3": figures.figure3,
    "4": figures.figure4,
    "5": figures.figure5,
    "6": figures.figure6,
}


def _add_runtime_flags(sub: argparse.ArgumentParser) -> None:
    """The fault-tolerant runtime flags (campaign/monitor/ingest)."""
    sub.add_argument("--max-shard-retries", type=int, default=None,
                     metavar="N",
                     help="supervise shard execution: retry a crashed, "
                          "hung, or lost shard up to N times under "
                          "seeded backoff before reassigning its "
                          "vantages (engages the supervisor)")
    sub.add_argument("--shard-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="wall-clock deadline per shard attempt in "
                          "process mode; an overdue worker is killed "
                          "and retried (engages the supervisor)")
    sub.add_argument("--resume", default=None, metavar="JOURNAL",
                     help="checkpoint completed shards to this journal "
                          "file and, when it already exists, resume "
                          "from it instead of recomputing (engages "
                          "the supervisor)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Paris traceroute (IMC 2006) reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("figures", help="list the paper-figure topologies")

    trace = commands.add_parser("trace", help="trace through a figure")
    trace.add_argument("--figure", choices=sorted(FIGURES), default="3")
    trace.add_argument("--tool", choices=("classic", "paris", "tcp"),
                       default="paris")
    trace.add_argument("--method", choices=("udp", "icmp", "tcp"),
                       default="udp")
    trace.add_argument("--seed", type=int, default=0,
                       help="flow seed (paris) or PID (classic)")
    trace.add_argument("--verbose", action="store_true",
                       help="show probe TTL / response TTL / IP ID")
    trace.add_argument("--engine", choices=("sequential", "pipelined"),
                       default="sequential",
                       help="stop-and-wait probing or the event-driven "
                            "window engine")
    trace.add_argument("--window", type=int, default=8,
                       help="in-flight probes per trace (pipelined only)")

    mda = commands.add_parser("mda", help="multipath detection on a figure")
    mda.add_argument("--figure", choices=sorted(FIGURES), default="6")
    mda.add_argument("--alpha", type=float, default=0.05)
    mda.add_argument("--seed", type=int, default=0)
    mda.add_argument("--method", choices=("udp", "icmp", "tcp", "mda-lite"),
                     default="udp",
                     help="probing mode of the underlying Paris tool; "
                          "'mda-lite' is UDP under the census-scale "
                          "MDA-Lite stopping rule")
    mda.add_argument("--scout-flows", type=int, default=3,
                     help="MDA-Lite only: probes before accepting a "
                          "hop as serial")
    mda.add_argument("--max-ttl", type=int, default=30,
                     help="deepest hop to enumerate")
    mda.add_argument("--engine", choices=("sequential", "pipelined"),
                     default="sequential",
                     help="stop-and-wait probing or the event-driven "
                          "window engine")
    mda.add_argument("--window", type=int, default=8,
                     help="in-flight flows per hop (pipelined only)")

    fig1 = commands.add_parser("fig1", help="Fig. 1 probability experiment")
    fig1.add_argument("--trials", type=int, default=200)

    commands.add_parser("fig2", help="Fig. 2 header-role matrix")

    census = commands.add_parser(
        "census", help="miniature Sec. 4 campaign (about a minute)")
    census.add_argument("--seed", type=int, default=42)
    census.add_argument("--rounds", type=int, default=10)
    census.add_argument("--engine", choices=("sequential", "pipelined"),
                        default="sequential",
                        help="probe engine driving the campaign")

    campaign = commands.add_parser(
        "campaign",
        help="multi-vantage fleet campaign on a small internet")
    campaign.add_argument("--vantages", type=int, default=2,
                          help="number of concurrent vantage points")
    campaign.add_argument("--shards", type=int, default=1,
                          help="partition vantages over this many "
                               "topology-replica shards (1 = one "
                               "scheduler drives the whole fleet)")
    campaign.add_argument("--processes", action="store_true",
                          help="run shards in a process pool instead "
                               "of inline")
    campaign.add_argument("--seed", type=int, default=7)
    campaign.add_argument("--rounds", type=int, default=2)
    campaign.add_argument("--workers", type=int, default=4,
                          help="worker lanes per vantage")
    campaign.add_argument("--dests", type=int, default=None,
                          help="truncate the destination list")
    campaign.add_argument("--window", type=int, default=8,
                          help="in-flight probes per trace")
    campaign.add_argument("--assignment",
                          choices=("replicate", "shard"),
                          default="replicate",
                          help="every vantage probes every destination, "
                               "or the list is split across vantages")
    campaign.add_argument("--timeout-policy",
                          choices=("fixed", "adaptive"), default="fixed",
                          help="per-vantage probe timeout policy")
    campaign.add_argument("--tables", action="store_true",
                          help="also print the per-vantage Sec. 4 "
                               "anomaly tables")
    campaign.add_argument("--metrics-out", default=None, metavar="PATH",
                          help="enable the metrics registry and write "
                               "the merged snapshot as Prometheus text "
                               "exposition to PATH ('-' for stdout)")
    campaign.add_argument("--trace-out", default=None, metavar="PATH",
                          help="enable probe-lifecycle tracing and "
                               "write span records as JSON lines to "
                               "PATH")
    campaign.add_argument("--trace-capacity", type=int, default=65536,
                          help="span ring-buffer capacity per shard "
                               "(oldest spans drop beyond this)")
    campaign.add_argument("--warehouse-out", default=None, metavar="PATH",
                          help="append the fleet result to the "
                               "measurement warehouse at PATH "
                               "(created if missing)")
    _add_runtime_flags(campaign)

    monitor = commands.add_parser(
        "monitor",
        help="continuous monitoring service on an evolving internet")
    monitor.add_argument("--seed", type=int, default=7)
    monitor.add_argument("--vantages", type=int, default=2,
                         help="number of concurrent vantage points")
    monitor.add_argument("--shards", type=int, default=1,
                         help="partition vantages over this many "
                              "topology-replica shards")
    monitor.add_argument("--processes", action="store_true",
                         help="run shards in a process pool instead of "
                              "inline")
    monitor.add_argument("--duration", type=float, default=120.0,
                         help="simulated monitoring horizon, seconds")
    monitor.add_argument("--periods", default="30,40",
                         help="comma-separated per-target probing "
                              "periods (seconds), assigned round-robin")
    monitor.add_argument("--max-rounds", type=int, default=3,
                         help="cap on rounds per target (the CI bound)")
    monitor.add_argument("--warmup", type=int, default=1,
                         help="baseline rounds per target before onset "
                              "detection starts")
    monitor.add_argument("--workers", type=int, default=2,
                         help="worker lanes per vantage")
    monitor.add_argument("--dests", type=int, default=6,
                         help="truncate the monitored target list")
    monitor.add_argument("--fault-period", type=float, default=40.0,
                         help="half-period of the diurnal rate-limit "
                              "schedule (0 disables the fault phases)")
    monitor.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="enable the metrics registry and write "
                              "the merged snapshot as Prometheus text "
                              "exposition to PATH ('-' for stdout)")
    monitor.add_argument("--alerts-out", default=None, metavar="PATH",
                         help="write the alert log as JSON lines to "
                              "PATH ('-' for stdout)")
    monitor.add_argument("--warehouse-out", default=None, metavar="PATH",
                         help="append the monitor result to the "
                              "measurement warehouse at PATH "
                              "(created if missing)")
    _add_runtime_flags(monitor)

    ingest = commands.add_parser(
        "ingest",
        help="run a monitor or campaign and append it to a warehouse")
    ingest.add_argument("--warehouse", required=True, metavar="PATH",
                        help="warehouse file to append to (created if "
                             "missing, parent directories included)")
    ingest.add_argument("--kind", choices=("monitor", "campaign"),
                        default="monitor",
                        help="which result shape to produce and ingest")
    ingest.add_argument("--seed", type=int, default=7)
    ingest.add_argument("--vantages", type=int, default=2,
                        help="number of concurrent vantage points")
    ingest.add_argument("--shards", type=int, default=1,
                        help="partition vantages over this many "
                             "topology-replica shards (the warehouse "
                             "digest must not depend on this)")
    ingest.add_argument("--processes", action="store_true",
                        help="run shards in a process pool instead of "
                             "inline")
    ingest.add_argument("--duration", type=float, default=120.0,
                        help="monitor horizon, simulated seconds "
                             "(monitor kind)")
    ingest.add_argument("--fault-period", type=float, default=40.0,
                        help="diurnal rate-limit half-period (monitor "
                             "kind; 0 disables)")
    ingest.add_argument("--rounds", type=int, default=2,
                        help="campaign rounds (campaign kind)")
    ingest.add_argument("--dests", type=int, default=6,
                        help="truncate the destination list")
    ingest.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the warehouse row/ingest counters "
                             "as Prometheus text exposition to PATH "
                             "('-' for stdout)")
    _add_runtime_flags(ingest)

    query = commands.add_parser(
        "query", help="stream one canned warehouse analysis")
    query.add_argument("--warehouse", required=True, metavar="PATH",
                       help="warehouse file to read (must exist)")
    query.add_argument("--name", required=True,
                       choices=("route-changes", "prevalence",
                                "as-rates", "cause-rates", "tool-deltas",
                                "inconsistency", "disagreements"),
                       help="which canned analysis to stream")
    query.add_argument("--destination", default=None,
                       help="filter to one destination "
                            "(route-changes only)")
    query.add_argument("--tool", default=None,
                       help="filter to one tool (route-changes and "
                            "inconsistency)")
    query.add_argument("--bucket", type=float, default=30.0,
                       help="bucket width in simulated seconds "
                            "(prevalence only)")
    query.add_argument("--limit", type=int, default=0,
                       help="stop after this many rows (0 = all)")

    report = commands.add_parser(
        "report", help="full cross-campaign warehouse report")
    report.add_argument("--warehouse", required=True, metavar="PATH",
                        help="warehouse file to read (must exist)")
    report.add_argument("--as-limit", type=int, default=15,
                        help="per-AS table rows (highest artifact rate "
                             "first; 0 = all)")
    report.add_argument("--bucket", type=float, default=30.0,
                        help="prevalence bucket width, simulated "
                             "seconds")

    faults = commands.add_parser(
        "faults",
        help="Sec. 4 census under injected network faults, with "
             "artifact attribution")
    faults.add_argument("--seed", type=int, default=7)
    faults.add_argument("--rounds", type=int, default=3)
    faults.add_argument("--dests", type=int, default=None,
                        help="truncate the destination list")
    faults.add_argument("--profiles", default="all",
                        help="comma-separated fault profile names, or "
                             "'all' (choices: reordering, rate-limit, "
                             "duplication, loss-bursts, adversarial)")
    faults.add_argument("--engine", choices=("sequential", "pipelined"),
                        default="pipelined",
                        help="probe engine driving the campaigns")
    faults.add_argument("--mda", action="store_true",
                        help="also compare MDA interface enumerations "
                             "against the clean run")
    return parser


def _outpath(path: str) -> str:
    """An output path with its parent directories guaranteed to exist.

    Every file-writing option routes through here, so pointing any
    ``--*-out`` at ``some/new/dir/file`` works instead of surfacing a
    raw :class:`FileNotFoundError`.  ``-`` (stdout) passes through.
    """
    if path and path != "-":
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    return path


def _validate_runtime_flags(args: argparse.Namespace) -> Optional[str]:
    """Usage-error message for bad runtime flag values, or None."""
    if (args.max_shard_retries is not None
            and args.max_shard_retries < 0):
        return (f"--max-shard-retries must not be negative, "
                f"got {args.max_shard_retries}")
    if args.shard_timeout is not None and args.shard_timeout <= 0:
        return (f"--shard-timeout must be positive, "
                f"got {args.shard_timeout}")
    return None


def _runtime_from_args(args: argparse.Namespace):
    """(RuntimeOptions, journal path) from the runtime flags.

    ``(None, None)`` when no runtime flag was given — a sharded run
    then uses the supervisor's defaults and ``--shards 1`` stays
    single-process.  Any runtime flag engages the supervisor, even at
    ``--shards 1``, so the options are never None when one was given.
    """
    if (args.max_shard_retries is None and args.shard_timeout is None
            and args.resume is None):
        return None, None
    from repro.runtime import RuntimeOptions

    options = RuntimeOptions()
    if args.max_shard_retries is not None:
        options.max_retries = args.max_shard_retries
    if args.shard_timeout is not None:
        options.shard_timeout = args.shard_timeout
    journal = _outpath(args.resume) if args.resume else None
    return options, journal


def _print_runtime_report(result, flagged: bool) -> None:
    """The supervised run's degradation summary, one commented block.

    Printed when runtime flags were given (``flagged``) or whenever the
    result carries a report, so a degraded run is never silent.
    """
    from repro.runtime import DegradationReport

    if result.degradation is None and not flagged:
        return
    report = result.degradation or DegradationReport()
    print()
    for line in report.format().splitlines():
        print(f"# runtime: {line}")
    if report.degraded:
        print(f"# runtime: DEGRADED result — vantages "
              f"{report.excluded_vantages} excluded")


def cmd_figures(__: argparse.Namespace) -> int:
    for key in sorted(FIGURES):
        fig = FIGURES[key]()
        print(f"figure {key}: {fig.description}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    fig = FIGURES[args.figure]()
    socket = ProbeSocket(fig.network, fig.source)
    if args.tool == "classic":
        if args.method == "tcp":
            print("classic traceroute has no TCP mode; use --tool tcp",
                  file=sys.stderr)
            return 2
        tracer = ClassicTraceroute(socket, method=args.method,
                                   pid=args.seed or 4242)
    elif args.tool == "tcp":
        tracer = TcpTraceroute(socket, seed=args.seed)
    else:
        tracer = ParisTraceroute(socket, method=args.method,
                                 seed=args.seed)
    if args.engine == "pipelined":
        from repro.engine import PipelinedTraceroute

        if args.window < 1:
            print(f"--window must be at least 1, got {args.window}",
                  file=sys.stderr)
            return 2
        tracer = PipelinedTraceroute(tracer, window=args.window)
    print(f"# {fig.description}")
    result = tracer.trace(fig.destination_address)
    print(render(result, verbose=args.verbose))
    return 0


def cmd_mda(args: argparse.Namespace) -> int:
    from repro.tracer.multipath import MultipathDetector

    if args.max_ttl < 1:
        print(f"--max-ttl must be at least 1, got {args.max_ttl}",
              file=sys.stderr)
        return 2
    if args.window < 1:
        print(f"--window must be at least 1, got {args.window}",
              file=sys.stderr)
        return 2
    if args.scout_flows < 1:
        print(f"--scout-flows must be at least 1, got {args.scout_flows}",
              file=sys.stderr)
        return 2
    fig = FIGURES[args.figure]()
    socket = ProbeSocket(fig.network, fig.source)
    detector = MultipathDetector(socket, method=args.method,
                                 alpha=args.alpha, seed=args.seed,
                                 engine=args.engine, window=args.window,
                                 scout_flows=args.scout_flows)
    print(f"# {fig.description}")
    result = detector.trace(fig.destination_address, max_ttl=args.max_ttl)
    print(result.format_report())
    return 0


def cmd_fig1(args: argparse.Namespace) -> int:
    from repro.analysis import run_figure1_experiment

    print(run_figure1_experiment(trials=args.trials).format_table())
    return 0


def cmd_fig2(__: argparse.Namespace) -> int:
    from repro.analysis import header_role_matrix
    from repro.analysis.headerroles import format_matrix

    print(format_matrix(header_role_matrix()))
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    from repro.analysis import run_calibrated_campaign

    print(f"seed={args.seed} rounds={args.rounds} engine={args.engine}; "
          "this takes a while...")
    campaign = run_calibrated_campaign(seed=args.seed, rounds=args.rounds,
                                       engine=args.engine)
    print(campaign.topology.summary())
    print()
    print(campaign.format_tables())
    return 0


def demo_internet_config(seed: int, vantages: int):
    """The small deterministic internet the ``campaign`` command runs.

    No per-packet balancers and no response loss: route inference is a
    pure function of each probe's bytes, so sharded executions are
    byte-identical to single-process ones (the determinism guarantee
    the printed signature checks).
    """
    from repro.topology.internet import InternetConfig

    return InternetConfig(
        seed=seed, n_tier1=3, n_transit=4, n_stub=8, dests_per_stub=2,
        n_loop_stub_diamonds=2, n_cycle_stub_diamonds=1,
        n_nat_dests=1, n_zero_ttl_dests=1,
        response_loss_rate=0.0, p_per_packet=0.0,
        n_vantages=vantages)


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.core import (
        coverage_report,
        format_side_by_side,
        per_vantage_statistics,
    )
    from repro.vantage import FleetConfig, run_fleet, run_fleet_sharded

    for flag, value in (("--vantages", args.vantages),
                        ("--shards", args.shards),
                        ("--rounds", args.rounds),
                        ("--workers", args.workers),
                        ("--window", args.window),
                        ("--dests", args.dests)):
        if value is not None and value < 1:
            print(f"{flag} must be at least 1, got {value}",
                  file=sys.stderr)
            return 2
    if args.trace_capacity < 1:
        print(f"--trace-capacity must be at least 1, "
              f"got {args.trace_capacity}", file=sys.stderr)
        return 2
    usage = _validate_runtime_flags(args)
    if usage is not None:
        print(usage, file=sys.stderr)
        return 2
    internet = demo_internet_config(args.seed, args.vantages)
    fleet = FleetConfig(rounds=args.rounds, workers=args.workers,
                        seed=args.seed, window=args.window,
                        assignment=args.assignment,
                        timeout_policy=args.timeout_policy)
    metrics = args.metrics_out is not None
    trace_capacity = args.trace_capacity if args.trace_out else 0
    runtime, journal = _runtime_from_args(args)
    flagged = runtime is not None
    if flagged or args.shards > 1:
        mode = (("supervised" if flagged else "sharded")
                + f" K={args.shards}"
                + (" (process pool)" if args.processes else " (inline)"))
        result = run_fleet_sharded(internet, fleet, shards=args.shards,
                                   processes=args.processes,
                                   max_destinations=args.dests,
                                   metrics=metrics,
                                   trace_capacity=trace_capacity,
                                   runtime=runtime,
                                   journal_path=journal)
    else:
        mode = "single-process"
        result = run_fleet(internet, fleet,
                           max_destinations=args.dests,
                           metrics=metrics,
                           trace_capacity=trace_capacity)
    print(f"# fleet campaign: {args.vantages} vantage(s), "
          f"{len(result.destinations)} destination(s), "
          f"{args.rounds} round(s), {mode}")
    for vantage in result.vantages:
        rounds = vantage.result.rounds
        duration = (max(r.finished_at for r in rounds)
                    - min(r.started_at for r in rounds)) if rounds else 0.0
        print(f"  {vantage.name} ({vantage.address}): "
              f"{len(vantage.result.routes)} routes, "
              f"{vantage.result.probes_sent} probes, "
              f"{duration:.1f} simulated s")
    print()
    print(coverage_report(result.routes_by_vantage()).format())
    if args.tables:
        print()
        print(format_side_by_side(per_vantage_statistics(
            result.routes_by_vantage(),
            result.destinations_by_vantage())))
    print()
    print(f"# result signature: {result.signature()}")
    _print_runtime_report(result, flagged)
    if metrics and result.metrics is not None:
        from repro.obs import render_prometheus

        text = render_prometheus(result.metrics)
        if args.metrics_out == "-":
            print()
            print(text, end="")
        else:
            with open(_outpath(args.metrics_out), "w",
                      encoding="utf-8") as handle:
                handle.write(text)
            print(f"# metrics: {len(result.metrics.families)} families "
                  f"-> {args.metrics_out} "
                  f"(deterministic signature "
                  f"{result.metrics.deterministic_signature()[:16]})")
    if args.trace_out is not None:
        from repro.obs import ProbeTracer

        ProbeTracer.write_jsonl(result.spans, _outpath(args.trace_out))
        print(f"# spans: {len(result.spans)} -> {args.trace_out}")
    if args.warehouse_out is not None:
        _warehouse_append(args.warehouse_out, result, internet, "fleet")
    return 0


def monitor_internet_config(seed: int, vantages: int,
                            duration: float, fault_period: float):
    """The ``monitor`` command's evolving internet.

    The ``campaign`` demo config plus the time axis: a routing-dynamics
    calendar sized to the horizon (real route changes and forwarding
    loops for the attribution to find) and, unless disabled, a diurnal
    ICMP rate-limit schedule whose phases swap on the simulated clock.
    """
    import dataclasses

    from repro.faults import diurnal_rate_limit_phases

    phases = (diurnal_rate_limit_phases(period=fault_period, cycles=2)
              if fault_period > 0 else None)
    return dataclasses.replace(
        demo_internet_config(seed, vantages),
        dynamics_horizon=duration,
        route_changes_per_hour=90.0,
        forwarding_loops_per_hour=30.0,
        event_duration=max(duration / 3.0, 30.0),
        fault_phases=phases)


def cmd_monitor(args: argparse.Namespace) -> int:
    from repro.service import MonitorConfig, MonitorService
    from repro.vantage import FleetConfig

    for flag, value in (("--vantages", args.vantages),
                        ("--shards", args.shards),
                        ("--max-rounds", args.max_rounds),
                        ("--warmup", args.warmup),
                        ("--workers", args.workers),
                        ("--dests", args.dests)):
        if value is not None and value < 1:
            print(f"{flag} must be at least 1, got {value}",
                  file=sys.stderr)
            return 2
    try:
        periods = tuple(float(p) for p in args.periods.split(",") if p)
    except ValueError:
        print(f"--periods must be comma-separated numbers, "
              f"got {args.periods!r}", file=sys.stderr)
        return 2
    usage = _validate_runtime_flags(args)
    if usage is not None:
        print(usage, file=sys.stderr)
        return 2
    internet = monitor_internet_config(args.seed, args.vantages,
                                       args.duration, args.fault_period)
    config = MonitorConfig(
        duration=args.duration, periods=periods,
        max_rounds=args.max_rounds, warmup_rounds=args.warmup,
        fleet=FleetConfig(workers=args.workers, seed=args.seed))
    metrics = args.metrics_out is not None
    service = MonitorService(internet, config,
                             max_destinations=args.dests,
                             metrics=metrics)
    runtime, journal = _runtime_from_args(args)
    flagged = runtime is not None
    result = service.run(shards=args.shards, processes=args.processes,
                         runtime=runtime, journal_path=journal)
    health = result.health
    if flagged:
        mode = f"supervised K={args.shards}"
    else:
        mode = (f"sharded K={args.shards}" if args.shards > 1
                else "single-process")
    print(f"# monitor: {config.describe()}, {mode}")
    print(f"# status: {health['status']} — "
          f"{health['targets']} target(s), {health['vantages']} "
          f"vantage(s), {health['target_rounds']} target-rounds over "
          f"{health['sim_duration']:.1f} simulated s")
    print(f"# onsets: {health['onsets']} "
          f"(by cause {health['onsets_by_cause']}; "
          f"by family {health['onsets_by_family']})")
    print(f"# alerts: {health['alerts']} emitted, "
          f"{health['suppressed']} suppressed, {health['held']} held, "
          f"{health['groups']} cross-vantage group(s)")
    for alert in result.alerts.alerts[:10]:
        print(f"  [sev {alert.severity}] {alert.family} "
              f"{alert.destination} ({alert.cause}) "
              f"x{alert.repeats + 1} vantages={alert.vantages}")
    if len(result.alerts.alerts) > 10:
        print(f"  ... {len(result.alerts.alerts) - 10} more")
    print()
    print(f"# result signature: {result.signature()}")
    _print_runtime_report(result, flagged)
    if args.alerts_out is not None:
        text = result.alerts.to_jsonl()
        if args.alerts_out == "-":
            print()
            print(text, end="")
        else:
            with open(_outpath(args.alerts_out), "w",
                      encoding="utf-8") as handle:
                handle.write(text)
            print(f"# alert log: {len(result.alerts.alerts)} alert(s) "
                  f"-> {args.alerts_out} "
                  f"(signature {result.alerts.signature()[:16]})")
    if metrics and result.fleet.metrics is not None:
        from repro.obs import render_prometheus

        text = render_prometheus(result.fleet.metrics)
        if args.metrics_out == "-":
            print()
            print(text, end="")
        else:
            with open(_outpath(args.metrics_out), "w",
                      encoding="utf-8") as handle:
                handle.write(text)
            snapshot = result.fleet.metrics
            print(f"# metrics: {len(snapshot.families)} families "
                  f"-> {args.metrics_out} "
                  f"(deterministic signature "
                  f"{snapshot.deterministic_signature()[:16]})")
    if args.warehouse_out is not None:
        _warehouse_append(args.warehouse_out, result, internet, "monitor")
    return 0


def _warehouse_append(path: str, result, internet, kind: str,
                      registry=None):
    """Ingest one result into the warehouse at ``path`` and report.

    Shared by ``--warehouse-out`` on ``campaign``/``monitor`` and the
    ``ingest`` subcommand; resolves the ground-truth AS map from the
    same internet config that produced the result, so hop ASNs are
    exact.
    """
    from repro.topology import generate_internet
    from repro.warehouse import ingest_fleet, ingest_monitor, open_warehouse

    asmap = generate_internet(internet).asmap
    ingest = ingest_monitor if kind == "monitor" else ingest_fleet
    with open_warehouse(_outpath(path)) as warehouse:
        receipt = ingest(warehouse, result, asmap=asmap,
                         registry=registry)
        counts = warehouse.row_counts()
        digest = warehouse.content_digest()
    state = "ingested" if receipt.ingested else "already present, skipped"
    print(f"# warehouse: run {receipt.run_id} ({receipt.kind}) "
          f"{state} -> {path}")
    if receipt.ingested:
        print(f"#   appended: traces={receipt.traces} "
              f"hops={receipt.hops} onsets={receipt.onsets} "
              f"alerts={receipt.alerts} routes={receipt.routes_added}")
    print("#   store: "
          + ", ".join(f"{t}={c}" for t, c in counts.items()))
    print(f"#   content digest: {digest}")
    return receipt


def cmd_ingest(args: argparse.Namespace) -> int:
    for flag, value in (("--vantages", args.vantages),
                        ("--shards", args.shards),
                        ("--rounds", args.rounds),
                        ("--dests", args.dests)):
        if value is not None and value < 1:
            print(f"{flag} must be at least 1, got {value}",
                  file=sys.stderr)
            return 2
    usage = _validate_runtime_flags(args)
    if usage is not None:
        print(usage, file=sys.stderr)
        return 2
    runtime, journal = _runtime_from_args(args)
    flagged = runtime is not None
    registry = None
    if args.metrics_out is not None:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    if args.kind == "monitor":
        from repro.service import MonitorConfig, MonitorService
        from repro.vantage import FleetConfig

        internet = monitor_internet_config(
            args.seed, args.vantages, args.duration, args.fault_period)
        config = MonitorConfig(
            duration=args.duration, periods=(30.0, 40.0), max_rounds=3,
            fleet=FleetConfig(workers=2, seed=args.seed))
        service = MonitorService(internet, config,
                                 max_destinations=args.dests)
        result = service.run(shards=args.shards,
                             processes=args.processes,
                             runtime=runtime, journal_path=journal)
    else:
        from repro.vantage import FleetConfig, run_fleet, run_fleet_sharded

        internet = demo_internet_config(args.seed, args.vantages)
        fleet = FleetConfig(rounds=args.rounds, workers=2,
                            seed=args.seed)
        if flagged or args.shards > 1:
            result = run_fleet_sharded(internet, fleet,
                                       shards=args.shards,
                                       processes=args.processes,
                                       max_destinations=args.dests,
                                       runtime=runtime,
                                       journal_path=journal)
        else:
            result = run_fleet(internet, fleet,
                               max_destinations=args.dests)
    _print_runtime_report(result, flagged)
    kind = "monitor" if args.kind == "monitor" else "fleet"
    _warehouse_append(args.warehouse, result, internet, kind,
                      registry=registry)
    if registry is not None:
        from repro.obs import render_prometheus

        text = render_prometheus(registry.snapshot())
        if args.metrics_out == "-":
            print()
            print(text, end="")
        else:
            with open(_outpath(args.metrics_out), "w",
                      encoding="utf-8") as handle:
                handle.write(text)
            print(f"# metrics -> {args.metrics_out}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from repro.warehouse import (
        anomaly_prevalence,
        inconsistency_mining,
        open_warehouse,
        per_as_artifact_rates,
        per_cause_onset_rates,
        route_change_history,
        tool_artifact_deltas,
        vantage_disagreements,
    )

    if args.limit < 0:
        print(f"--limit must not be negative, got {args.limit}",
              file=sys.stderr)
        return 2
    # A missing or unreadable warehouse is an operational failure, not
    # a usage error: it propagates to main()'s handler and exits 1.
    with open_warehouse(args.warehouse, must_exist=True) as warehouse:
        if args.name == "route-changes":
            rows = route_change_history(warehouse,
                                        destination=args.destination,
                                        tool=args.tool)
        elif args.name == "prevalence":
            rows = anomaly_prevalence(warehouse, bucket=args.bucket)
        elif args.name == "as-rates":
            rows = per_as_artifact_rates(warehouse)
        elif args.name == "cause-rates":
            rows = per_cause_onset_rates(warehouse)
        elif args.name == "tool-deltas":
            rows = tool_artifact_deltas(warehouse)
        elif args.name == "inconsistency":
            rows = inconsistency_mining(warehouse, tool=args.tool)
        else:
            rows = vantage_disagreements(warehouse)
        count = 0
        for row in rows:
            if count == 0:
                print("\t".join(row._fields))
            print("\t".join(str(value) for value in row))
            count += 1
            if args.limit and count >= args.limit:
                break
        print(f"# {args.name}: {count} row(s)", file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.warehouse import open_warehouse, warehouse_report

    with open_warehouse(args.warehouse, must_exist=True) as warehouse:
        print(warehouse_report(warehouse, as_limit=args.as_limit,
                               bucket=args.bucket))
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.analysis import run_fault_sensitivity
    from repro.faults import FAULT_PROFILE_NAMES

    for flag, value in (("--rounds", args.rounds), ("--dests", args.dests)):
        if value is not None and value < 1:
            print(f"{flag} must be at least 1, got {value}",
                  file=sys.stderr)
            return 2
    if args.profiles == "all":
        profiles = list(FAULT_PROFILE_NAMES)
    else:
        profiles = [p.strip() for p in args.profiles.split(",") if p.strip()]
        if not profiles:
            print("--profiles names no profile; choose from "
                  f"{', '.join(FAULT_PROFILE_NAMES)} (or 'all')",
                  file=sys.stderr)
            return 2
        unknown = [p for p in profiles if p not in FAULT_PROFILE_NAMES]
        if unknown:
            print(f"unknown fault profile(s) {unknown}; choose from "
                  f"{', '.join(FAULT_PROFILE_NAMES)}", file=sys.stderr)
            return 2
    internet = demo_internet_config(args.seed, vantages=1)
    sweep = run_fault_sensitivity(
        internet, profiles=profiles, rounds=args.rounds,
        engine=args.engine, max_destinations=args.dests, mda=args.mda)
    print(f"# fault sensitivity: seed={args.seed}, "
          f"{len(sweep.destinations)} destination(s), "
          f"{args.rounds} round(s), engine={args.engine}")
    print()
    print(sweep.format_report())
    return 0


HANDLERS = {
    "figures": cmd_figures,
    "trace": cmd_trace,
    "mda": cmd_mda,
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
    "census": cmd_census,
    "campaign": cmd_campaign,
    "monitor": cmd_monitor,
    "faults": cmd_faults,
    "ingest": cmd_ingest,
    "query": cmd_query,
    "report": cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch one invocation under the exit-code discipline.

    Handlers return 0 (success) or 2 (usage error) themselves; every
    operational failure — any :class:`repro.errors.ReproError` from
    the stack, or an OS-level I/O error — lands here, prints one
    ``error: ...`` line to stderr, and exits 1.  Tracebacks are for
    bugs, not for predictable failures.
    """
    args = build_parser().parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

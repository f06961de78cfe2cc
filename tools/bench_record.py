#!/usr/bin/env python3
"""Record (or check) the walk-batching perf trajectory.

Runs the two smoke legs of ``benchmarks/test_bench_walk_batching.py``
— the multi-destination campaign and the adversarial-fault fleet —
plus the monitor, warehouse, MDA-Lite and runtime legs, and writes the
measurements to ``BENCH_walk.json`` at the repository root, so the perf
trajectory survives across PRs (CI uploads the file as a build
artifact; the committed copy is the recorded baseline).

Wall-clock numbers are machine-dependent and recorded for trend
reading only; the LPM lookup counts are *deterministic* for a given
seed and round count, which makes them CI-gateable::

    python tools/bench_record.py                 # rewrite BENCH_walk.json
    python tools/bench_record.py --check         # compare against it

``--check`` fails (exit 1) when the batched plane's lookup count
regresses by more than 25 % against the recorded baseline, or when the
aggregation no longer achieves 2x fewer lookups than the distinct
(router, destination) pairs it resolved, or when the campaign's routes
stop matching the per-packet oracle's, or when the fleet determinism
signature stops matching between single-process and sharded
execution, or when the metrics snapshot of an instrumented campaign
stops agreeing with the uninstrumented probe count — among the
per-leg gates listed below.

Schema 2 adds ``probes_per_sec`` per leg (throughput trend, machine-
dependent like the walls) and an ``instrumented`` campaign leg with
its ``probes_match`` cross-check.  ``--check`` gates only on fields
shared with the baseline, so a schema-1 baseline still gates lookups
and determinism.

Schema 3 adds a ``monitor`` leg
(``benchmarks/test_bench_monitor_rounds.py``): a bounded monitor-
service run whose ``rounds_per_sec`` is the recorded throughput trend
and whose single-vs-sharded result signature is a new deterministic
gate.  The onset and alert counts are seed-deterministic and recorded
for drift reading.

Schema 4 adds a ``warehouse`` leg
(``benchmarks/test_bench_warehouse.py``), reusing the monitor leg's
results: ingest throughput (``rows_per_sec``) and the canned-query
sweep's wall cost are the recorded trends; the deterministic gates are
the single-vs-sharded warehouse content digest and the ingested row
census, which must not drift for a fixed seed.

Schema 5 adds an ``mda_lite`` leg
(``benchmarks/test_bench_mda_lite.py``): exact vs MDA-Lite wire-probe
counts on the census-scale topology (gated at 2x savings with at most
a 5 % missed-link rate), the hop-parallel ip-id claim path's simulated
time against the legacy cross-hop flow exclusion (gated strictly
faster at byte-identical discovery), and single-vs-sharded fleet
censuses of both strategies (gated byte-identical).  The probe and
link censuses are seed-deterministic and drift-gated.

Schema 6 adds a ``runtime`` leg
(``benchmarks/test_bench_runtime_recovery.py``): the supervised
executor's overhead over the same shard plan run unsupervised
(``run_shard`` per task, then ``FleetResult.merge``; gated at <= 5 %
on the median *paired* ratio over interleaved timing rounds, recorded
with its quartiles ``overhead_q1``/``overhead_q3``; the walls are the
per-mode medians), the wall cost of recovering one seeded worker crash
(``time_to_recover_s``, trend only), and a new deterministic gate —
bare, supervised, and crash-recovered runs must all produce the same
result signature.

Schema 7 rebases the campaign and fleet legs on the one remaining
cohort walker.  ``campaign.oracle`` is the same campaign (seed,
rounds, 32 workers) on the sequential engine, which walks every probe
through ``Network.inject``; ``campaign.routes_match`` compares the
batched leg's inferences against it.  Its probe count differs by
design (the pipelined window sends past the halt), and
``campaign.wall_ratio`` now reads oracle over batched (trend only).
``campaign.resolutions`` and ``fleet.resolutions`` count the distinct
(router, destination) pairs the batched leg resolved (the routers'
per-destination memos), and each ``lookup_ratio`` is resolutions over
the leg's LPM lookups.  ``fleet.legacy`` and ``fleet.wall_ratio`` are
gone.

Environment: ``REPRO_BENCH_SEED`` / ``REPRO_BENCH_ROUNDS`` as for the
benchmark suite — the recorded baseline is made with the defaults the
CI smoke tier uses (seed 42, rounds 2), and ``--check`` refuses to
compare apples to oranges when seed or rounds differ.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

#: Allowed relative growth of the batched plane's lookup count before
#: the check fails (the CI regression gate).
LOOKUP_REGRESSION_TOLERANCE = 0.25

#: Allowed supervised-over-bare wall overhead (median paired ratio over
#: interleaved timing rounds).
SUPERVISOR_OVERHEAD_TOLERANCE = 0.05

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_walk.json"


def measure(seed: int, rounds: int) -> dict:
    """Run every leg; return the JSON-ready record."""
    from benchmarks.test_bench_mda_lite import run_mda_lite_leg
    from benchmarks.test_bench_monitor_rounds import run_monitor_leg
    from benchmarks.test_bench_runtime_recovery import run_runtime_leg
    from benchmarks.test_bench_warehouse import run_warehouse_leg
    from benchmarks.test_bench_walk_batching import (
        run_campaign_leg,
        run_fleet_leg,
        route_signature,
    )
    from repro.vantage.campaign import FleetResult

    def strip(leg: dict) -> dict:
        return {
            "wall_s": round(leg["wall_s"], 3),
            "lookups": leg["lookups"],
            "probes": leg["probes"],
            "probes_per_sec": round(leg["probes"] / leg["wall_s"], 1),
        }

    campaign_oracle = run_campaign_leg(seed=seed, rounds=rounds,
                                       engine="sequential")
    campaign_batched = run_campaign_leg(seed=seed, rounds=rounds)
    routes_match = (
        sorted(route_signature(r) for r in campaign_oracle["result"].routes)
        == sorted(route_signature(r)
                  for r in campaign_batched["result"].routes))

    # Observability cross-check: a metrics-enabled batched campaign
    # must count exactly the probes the uninstrumented run reports,
    # and must infer byte-identical routes.
    campaign_metrics = run_campaign_leg(seed=seed, rounds=rounds,
                                        metrics="on")
    snapshot = campaign_metrics["snapshot"]
    probes_match = (
        snapshot is not None
        and snapshot.total("repro_probes_sent_total")
        == campaign_batched["probes"]
        and sorted(route_signature(r)
                   for r in campaign_metrics["result"].routes)
        == sorted(route_signature(r)
                  for r in campaign_batched["result"].routes))

    fleet_batched = run_fleet_leg(seed=seed)
    shard_a = run_fleet_leg(seed=seed, vantage_ids=[0, 2])
    shard_b = run_fleet_leg(seed=seed, vantage_ids=[1, 3])
    merged = FleetResult.merge([shard_a["result"], shard_b["result"]])
    single_signature = fleet_batched["result"].signature()
    sharded_signature = merged.signature()

    monitor_single = run_monitor_leg(seed=seed)
    monitor_sharded = run_monitor_leg(seed=seed, shards=2)
    monitor_signature = monitor_single["result"].signature()
    monitor_sharded_signature = monitor_sharded["result"].signature()
    monitor_deterministic = (
        monitor_signature == monitor_sharded_signature
        and monitor_single["result"].alerts.to_jsonl()
        == monitor_sharded["result"].alerts.to_jsonl())

    warehouse_single = run_warehouse_leg(result=monitor_single["result"],
                                         seed=seed)
    warehouse_sharded = run_warehouse_leg(
        result=monitor_sharded["result"], seed=seed)

    mda_lite = run_mda_lite_leg(seed=seed)

    runtime = run_runtime_leg(seed=seed, rounds=rounds)

    simulated = campaign_batched["result"].rounds[-1].finished_at
    return {
        "schema": 7,
        "bench": "walk_batching",
        "seed": seed,
        "rounds": rounds,
        "campaign": {
            "oracle": strip(campaign_oracle),
            "batched": strip(campaign_batched),
            "instrumented": strip(campaign_metrics),
            "resolutions": campaign_batched["resolutions"],
            "lookup_ratio": round(
                campaign_batched["resolutions"]
                / campaign_batched["lookups"], 2),
            "wall_ratio": round(
                campaign_oracle["wall_s"] / campaign_batched["wall_s"], 2),
            "simulated_s": round(simulated, 1),
            "routes_match": routes_match,
            "probes_match": probes_match,
        },
        "fleet": {
            "batched": strip(fleet_batched),
            "resolutions": fleet_batched["resolutions"],
            "lookup_ratio": round(
                fleet_batched["resolutions"] / fleet_batched["lookups"], 2),
            "single_signature": single_signature,
            "sharded_signature": sharded_signature,
            "deterministic": single_signature == sharded_signature,
        },
        "monitor": {
            "wall_s": round(monitor_single["wall_s"], 3),
            "target_rounds": monitor_single["target_rounds"],
            "rounds_per_sec": round(
                monitor_single["target_rounds"]
                / monitor_single["wall_s"], 1),
            "onsets": monitor_single["onsets"],
            "alerts": monitor_single["alerts"],
            "single_signature": monitor_signature,
            "sharded_signature": monitor_sharded_signature,
            "deterministic": monitor_deterministic,
        },
        "warehouse": {
            "rows": warehouse_single["rows"],
            "ingest_wall_s": round(warehouse_single["ingest_wall_s"], 3),
            "rows_per_sec": round(warehouse_single["rows_per_sec"], 1),
            "query_wall_s": round(warehouse_single["query_wall_s"], 3),
            "query_rows": warehouse_single["query_rows"],
            "single_digest": warehouse_single["digest"],
            "sharded_digest": warehouse_sharded["digest"],
            "deterministic": (warehouse_single["digest"]
                              == warehouse_sharded["digest"]),
        },
        "mda_lite": {
            "exact_wire_probes": mda_lite["exact_wire_probes"],
            "lite_wire_probes": mda_lite["lite_wire_probes"],
            "probe_savings": round(mda_lite["probe_savings"], 2),
            "links": mda_lite["links"],
            "missed_links": mda_lite["missed_links"],
            "miss_rate": round(mda_lite["miss_rate"], 3),
            "ipid_sim_s": round(mda_lite["ipid_sim_s"], 3),
            "exclusion_sim_s": round(mda_lite["exclusion_sim_s"], 3),
            "hop_parallel_agrees": mda_lite["hop_parallel_agrees"],
            "fleet_deterministic": mda_lite["fleet_deterministic"],
            "wall_s": round(mda_lite["lite_wall_s"], 3),
        },
        "runtime": {
            "bare_wall_s": round(runtime["bare_wall_s"], 3),
            "supervised_wall_s": round(runtime["supervised_wall_s"], 3),
            "overhead_ratio": round(runtime["overhead_ratio"], 3),
            "overhead_q1": round(runtime["overhead_q1"], 3),
            "overhead_q3": round(runtime["overhead_q3"], 3),
            "recovered_wall_s": round(runtime["recovered_wall_s"], 3),
            "time_to_recover_s": round(runtime["time_to_recover_s"], 3),
            "incidents": runtime["incidents"],
            "signature_match": runtime["signature_match"],
        },
    }


def check(record: dict, baseline: dict) -> list[str]:
    """Regression findings of ``record`` against ``baseline`` (empty = ok)."""
    problems: list[str] = []
    if (record["seed"] != baseline.get("seed")
            or record["rounds"] != baseline.get("rounds")):
        problems.append(
            f"baseline was recorded with seed={baseline.get('seed')} "
            f"rounds={baseline.get('rounds')}, this run used "
            f"seed={record['seed']} rounds={record['rounds']} — "
            "re-record the baseline instead of comparing")
        return problems
    for leg in ("campaign", "fleet"):
        recorded = baseline[leg]["batched"]["lookups"]
        current = record[leg]["batched"]["lookups"]
        ceiling = recorded * (1.0 + LOOKUP_REGRESSION_TOLERANCE)
        if current > ceiling:
            problems.append(
                f"{leg}: batched lookups regressed {recorded} -> {current} "
                f"(> {LOOKUP_REGRESSION_TOLERANCE:.0%} over baseline)")
        if record[leg]["lookup_ratio"] < 2.0:
            problems.append(
                f"{leg}: aggregation ratio fell below 2x "
                f"({record[leg]['lookup_ratio']:.2f}x resolutions per "
                "lookup)")
    if not record["campaign"]["routes_match"]:
        problems.append("campaign: the batched plane no longer infers the "
                        "per-packet oracle's routes")
    if not record["campaign"]["probes_match"]:
        problems.append(
            "campaign: the metrics snapshot no longer agrees with the "
            "uninstrumented probe count (or instrumentation changed the "
            "inferred routes)")
    if not record["fleet"]["deterministic"]:
        problems.append("fleet: sharded signature diverged from single-"
                        "process — the determinism guarantee broke")
    if not record["monitor"]["deterministic"]:
        problems.append("monitor: sharded run no longer merges to the "
                        "single-process signature and alert bytes")
    if "monitor" in baseline:
        recorded = baseline["monitor"]["onsets"]
        current = record["monitor"]["onsets"]
        if current != recorded:
            problems.append(
                f"monitor: onset census drifted {recorded} -> {current} "
                "for the same seed — the detection stream is no longer "
                "reproducible")
    if not record["warehouse"]["deterministic"]:
        problems.append("warehouse: sharded ingest digest diverged from "
                        "single-process — the canonical-writer "
                        "guarantee broke")
    if "warehouse" in baseline:
        for field in ("rows", "query_rows"):
            recorded = baseline["warehouse"][field]
            current = record["warehouse"][field]
            if current != recorded:
                problems.append(
                    f"warehouse: {field} census drifted "
                    f"{recorded} -> {current} for the same seed — "
                    "ingest or the canned queries are no longer "
                    "reproducible")
    mda_lite = record["mda_lite"]
    if mda_lite["probe_savings"] < 2.0:
        problems.append(
            f"mda_lite: probe savings fell below 2x "
            f"({mda_lite['probe_savings']:.2f}x)")
    if mda_lite["miss_rate"] > 0.05:
        problems.append(
            f"mda_lite: missed-link rate exceeded 5% "
            f"({mda_lite['miss_rate']:.1%})")
    if not mda_lite["hop_parallel_agrees"]:
        problems.append("mda_lite: ip-id and exclusion claim paths no "
                        "longer infer identical interface sets")
    if mda_lite["ipid_sim_s"] >= mda_lite["exclusion_sim_s"]:
        problems.append(
            f"mda_lite: the ip-id claim path is no longer strictly "
            f"faster than the flow exclusion "
            f"({mda_lite['ipid_sim_s']:.3f}s vs "
            f"{mda_lite['exclusion_sim_s']:.3f}s simulated)")
    for name, ok in mda_lite["fleet_deterministic"].items():
        if not ok:
            problems.append(
                f"mda_lite: sharded {name} census signature diverged "
                "from single-process")
    if "mda_lite" in baseline:
        for field in ("exact_wire_probes", "lite_wire_probes", "links",
                      "missed_links"):
            recorded = baseline["mda_lite"][field]
            current = mda_lite[field]
            if current != recorded:
                problems.append(
                    f"mda_lite: {field} drifted {recorded} -> {current} "
                    "for the same seed — the census is no longer "
                    "reproducible")
    runtime = record["runtime"]
    if not runtime["signature_match"]:
        problems.append(
            "runtime: supervised or crash-recovered execution no "
            "longer reproduces the unsupervised shard plan's "
            "signature — recovery stopped being invisible in the "
            "output")
    ceiling = 1.0 + SUPERVISOR_OVERHEAD_TOLERANCE
    if runtime["overhead_ratio"] > ceiling:
        problems.append(
            f"runtime: supervisor overhead "
            f"{runtime['overhead_ratio']:.3f}x exceeded the "
            f"{SUPERVISOR_OVERHEAD_TOLERANCE:.0%} budget "
            "(median paired ratio over interleaved rounds)")
    if runtime["incidents"] != 1:
        problems.append(
            f"runtime: expected exactly 1 injected incident in the "
            f"recovery leg, saw {runtime['incidents']} — the chaos "
            "plan is no longer biting")
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    import os

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=pathlib.Path,
                        default=DEFAULT_OUTPUT,
                        help="where to write the record "
                             "(default: BENCH_walk.json at the repo root)")
    parser.add_argument("--check", action="store_true",
                        help="compare a fresh run against the recorded "
                             "baseline instead of rewriting it")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=DEFAULT_OUTPUT,
                        help="baseline file for --check")
    args = parser.parse_args(argv)

    seed = int(os.environ.get("REPRO_BENCH_SEED", "42"))
    rounds = int(os.environ.get("REPRO_BENCH_ROUNDS", "2"))
    record = measure(seed, rounds)

    for leg in ("campaign", "fleet"):
        stats = record[leg]
        print(f"{leg}: resolutions {stats['resolutions']} -> lookups "
              f"{stats['batched']['lookups']} "
              f"({stats['lookup_ratio']:.2f}x fewer), wall "
              f"{stats['batched']['wall_s']:.2f}s, "
              f"{stats['batched']['probes_per_sec']:.0f} probes/s")
    campaign = record["campaign"]
    print(f"campaign routes vs per-packet oracle: "
          f"{'ok' if campaign['routes_match'] else 'BROKEN'} (oracle "
          f"{campaign['oracle']['wall_s']:.2f}s, "
          f"{campaign['wall_ratio']:.2f}x the batched wall)")
    print(f"campaign metrics cross-check: "
          f"{'ok' if record['campaign']['probes_match'] else 'BROKEN'} "
          f"({record['campaign']['instrumented']['probes_per_sec']:.0f} "
          f"probes/s instrumented)")
    print(f"fleet determinism: "
          f"{'ok' if record['fleet']['deterministic'] else 'BROKEN'}")
    monitor = record["monitor"]
    print(f"monitor: {monitor['target_rounds']} target-rounds in "
          f"{monitor['wall_s']:.2f}s "
          f"({monitor['rounds_per_sec']:.0f} rounds/s), "
          f"{monitor['onsets']} onsets -> {monitor['alerts']} alerts, "
          f"determinism "
          f"{'ok' if monitor['deterministic'] else 'BROKEN'}")
    warehouse = record["warehouse"]
    print(f"warehouse: {warehouse['rows']} rows in "
          f"{warehouse['ingest_wall_s']:.3f}s "
          f"({warehouse['rows_per_sec']:.0f} rows/s), query sweep "
          f"{warehouse['query_rows']} rows in "
          f"{warehouse['query_wall_s']:.3f}s, digest determinism "
          f"{'ok' if warehouse['deterministic'] else 'BROKEN'}")

    mda_lite = record["mda_lite"]
    fleet_ok = all(mda_lite["fleet_deterministic"].values())
    print(f"mda-lite: {mda_lite['exact_wire_probes']} -> "
          f"{mda_lite['lite_wire_probes']} wire probes "
          f"({mda_lite['probe_savings']:.2f}x fewer), "
          f"{mda_lite['missed_links']}/{mda_lite['links']} links missed "
          f"({mda_lite['miss_rate']:.1%}), hop-parallel "
          f"{mda_lite['ipid_sim_s']:.3f}s vs "
          f"{mda_lite['exclusion_sim_s']:.3f}s sim, fleet determinism "
          f"{'ok' if fleet_ok else 'BROKEN'}")

    runtime = record["runtime"]
    print(f"runtime: supervised {runtime['supervised_wall_s']:.3f}s vs "
          f"bare {runtime['bare_wall_s']:.3f}s "
          f"({runtime['overhead_ratio']:.3f}x overhead, quartiles "
          f"{runtime['overhead_q1']:.3f}-{runtime['overhead_q3']:.3f}), "
          f"crash "
          f"recovery +{runtime['time_to_recover_s']:.3f}s, signatures "
          f"{'ok' if runtime['signature_match'] else 'BROKEN'}")

    if args.check:
        if not args.baseline.exists():
            print(f"no baseline at {args.baseline}; record one first",
                  file=sys.stderr)
            return 1
        baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
        problems = check(record, baseline)
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)

    # One measurement serves both the gate and the artifact: the fresh
    # record is written even when --check fails, so a red CI run still
    # uploads the numbers that tripped it.  A check never silently
    # overwrites its own baseline — point --output elsewhere for that.
    if args.check and args.output == args.baseline:
        print(f"(not rewriting the baseline {args.baseline} in --check "
              "mode; pass --output to save this run)")
    else:
        args.output.write_text(json.dumps(record, indent=2, sort_keys=True)
                               + "\n", encoding="utf-8")
        print(f"recorded {args.output}")
    if args.check:
        if problems:
            return 1
        print("perf trajectory OK against recorded baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The byte-identity matrix: every way of executing a sharded run
merges to the single-process bytes.

Shard results are pure functions of their tasks, so the unsupervised
single-process reference (``run_fleet`` / ``run_monitor``) is the
oracle for every cell of

- kind: fleet, monitor;
- execution: K=2 inline, K=4 worker processes;
- schedule: clean, one seeded crash that is retried, or an inline
  abort followed by a journal resume;

plus one K=4 process cell per kind with a seeded crash *and* a hang.
One 4-vantage internet serves every cell: routing dynamics, a diurnal
rate-limit schedule layered over the adversarial fault profile, and
metrics on.  Each cell must equal its kind's reference on the result
signature and the client-scope metrics signature; monitor cells also
on the alert JSONL, the rolling windows, and the warehouse content
digest of an ingest.  The warehouse stamps a run's degradation report
(retries, resumes) into its ``runs`` row by design, so the digest
compares the measurements with that operational report set aside.
"""

from dataclasses import replace

import pytest

from repro.faults import diurnal_rate_limit_phases, make_fault_profile
from repro.runtime import BackoffPolicy, ChaosPlan, RunAborted, RuntimeOptions
from repro.service import MonitorConfig, run_monitor, run_monitor_sharded
from repro.topology import InternetConfig, generate_internet
from repro.vantage import FleetConfig, plan_shards, run_fleet, run_fleet_sharded
from repro.warehouse import Warehouse, ingest_monitor

INTERNET = InternetConfig(
    seed=5, n_tier1=3, n_transit=4, n_stub=8, dests_per_stub=2,
    n_loop_stub_diamonds=2, n_cycle_stub_diamonds=1, n_nat_dests=1,
    n_zero_ttl_dests=1, response_loss_rate=0.0, p_per_packet=0.0,
    n_vantages=4, dynamics_horizon=120.0, route_changes_per_hour=90.0,
    forwarding_loops_per_hour=30.0, event_duration=45.0,
    fault_profile=make_fault_profile("adversarial", seed=5),
    fault_phases=diurnal_rate_limit_phases(period=40.0, cycles=1))

FLEET = FleetConfig(rounds=2, workers=2, seed=5)
MONITOR = MonitorConfig(duration=120.0, periods=(30.0, 40.0),
                        max_rounds=3, fleet=FleetConfig(workers=2))
TARGETS = 6

KINDS = ("fleet", "monitor")
#: Execution name -> (shards, worker processes).
EXECUTIONS = {"k2-inline": (2, False), "k4-process": (4, True)}
SCHEDULES = ("clean", "crash", "abort-resume")


def runtime(**overrides):
    """Fast supervision: tiny deterministic backoff, no inline sleep."""
    return RuntimeOptions(**{
        "backoff": BackoffPolicy(base=0.01, cap=0.05),
        "sleep": lambda seconds: None, **overrides})


def shard_keys(shards):
    """The supervisor's shard keys for this plan, in plan order."""
    return ["shard-v" + "-".join(str(v) for v in ids)
            for ids in plan_shards(INTERNET.n_vantages, shards)]


def run_kind(kind, shards, processes, **kwargs):
    """One sharded run of ``kind`` with metrics on."""
    if kind == "fleet":
        return run_fleet_sharded(INTERNET, FLEET, shards=shards,
                                 processes=processes,
                                 max_destinations=TARGETS, metrics=True,
                                 **kwargs)
    return run_monitor_sharded(INTERNET, MONITOR, shards=shards,
                               processes=processes,
                               max_destinations=TARGETS, metrics=True,
                               **kwargs)


def warehouse_digest(result):
    """Content digest of a fresh in-memory warehouse holding
    ``result``'s measurements (its degradation report left out)."""
    warehouse = Warehouse(":memory:")
    ingest_monitor(warehouse, replace(result, degradation=None),
                   asmap=generate_internet(INTERNET).asmap)
    return warehouse.content_digest()


@pytest.fixture(scope="module")
def references():
    """Per kind: the single-process result (and the monitor's digest)."""
    monitor = run_monitor(INTERNET, MONITOR, max_destinations=TARGETS,
                          metrics=True)
    return {
        "fleet": (run_fleet(INTERNET, FLEET, max_destinations=TARGETS,
                            metrics=True), None),
        "monitor": (monitor, warehouse_digest(monitor)),
    }


def assert_matches_reference(kind, cell, references):
    reference, digest = references[kind]
    assert cell.signature() == reference.signature()
    fleet = cell if kind == "fleet" else cell.fleet
    reference_fleet = reference if kind == "fleet" else reference.fleet
    assert (fleet.metrics.deterministic_signature()
            == reference_fleet.metrics.deterministic_signature())
    if kind == "monitor":
        assert cell.alerts.to_jsonl() == reference.alerts.to_jsonl()
        assert cell.windows == reference.windows
        assert warehouse_digest(cell) == digest


def test_reference_exercises_every_layer(references):
    """The oracle is not vacuous: routes, metrics, all three onset
    causes, and alerts are there to be compared."""
    fleet, __ = references["fleet"]
    monitor, __ = references["monitor"]
    assert [v.index for v in fleet.vantages] == [0, 1, 2, 3]
    assert fleet.metrics.total("repro_probes_sent_total") > 0
    assert {o.cause for o in monitor.onsets} == {
        "real-routing", "fault-artifact", "probe-artifact"}
    assert monitor.alerts.alerts


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("execution", list(EXECUTIONS))
@pytest.mark.parametrize("kind", KINDS)
def test_cell_matches_reference(kind, execution, schedule, references,
                                tmp_path):
    shards, processes = EXECUTIONS[execution]
    keys = shard_keys(shards)
    if schedule == "clean":
        cell = run_kind(kind, shards, processes)
        assert cell.degradation is None
    elif schedule == "crash":
        chaos = ChaosPlan.of((keys[-1], 0, "crash"))
        cell = run_kind(kind, shards, processes,
                        runtime=runtime(chaos=chaos))
        assert [(i.shard, i.kind, i.resolution)
                for i in cell.degradation.incidents] == \
            [(keys[-1], "crash", "retried")]
    else:
        # The abort lands before the last shard's first attempt, after
        # every earlier shard has checkpointed; the resume (in the
        # cell's execution) computes only the last shard.
        journal = tmp_path / f"{kind}.journal"
        with pytest.raises(RunAborted):
            run_kind(kind, shards, False, journal_path=journal,
                     runtime=runtime(
                         chaos=ChaosPlan.of((keys[-1], 0, "abort"))))
        cell = run_kind(kind, shards, processes, journal_path=journal)
        assert cell.degradation.resumed_shards == keys[:-1]
        assert not cell.degradation.incidents
    assert not (cell.degradation and cell.degradation.degraded)
    assert_matches_reference(kind, cell, references)


@pytest.mark.parametrize("kind", KINDS)
def test_process_crash_and_hang_cell(kind, references):
    keys = shard_keys(4)
    chaos = ChaosPlan.of((keys[1], 0, "crash"), (keys[3], 0, "hang"))
    cell = run_kind(kind, 4, True,
                    runtime=runtime(chaos=chaos, shard_timeout=5.0))
    report = cell.degradation
    assert {(i.shard, i.kind) for i in report.incidents} == \
        {(keys[1], "crash"), (keys[3], "hang")}
    assert all(i.resolution == "retried" for i in report.incidents)
    assert not report.degraded
    assert_matches_reference(kind, cell, references)

"""Fault tolerance on real fleet shards, proven with the chaos harness.

The shared matrix (``tests/runtime/test_identity_matrix.py``) proves
that clean, crash-retried, crash+hang, and abort+resume runs of both
kinds merge to the single-process bytes.  Pinned here, end to end:

- a **hard-killed** worker and a **lost** result are recovered;
- a journal **refuses to resume** any run other than its own;
- an exhausted multi-vantage shard is **reassigned** vantage by
  vantage to the identical signature;
- a shard that exhausts its retries yields a **merged partial result**
  whose bytes equal the merge of the surviving shards, with an
  accurate :class:`repro.runtime.DegradationReport`.

Everything rests on the repo's standing invariant: shard results are
pure functions of their tasks, so *any* recovery schedule must land on
the single-scheduler signature.
"""

from dataclasses import replace

import pytest

from repro.runtime import (
    BackoffPolicy,
    ChaosPlan,
    JournalError,
    RunAborted,
    RuntimeOptions,
)
from repro.topology import InternetConfig
from repro.vantage import (
    FleetConfig,
    FleetResult,
    mda_strategy_builder,
    run_fleet,
    run_fleet_sharded,
)
from repro.vantage.sharding import FleetShardTask, run_shard

TINY4 = InternetConfig(
    seed=9, n_tier1=2, n_transit=2, n_stub=3, dests_per_stub=1,
    n_loop_stub_diamonds=1, n_cycle_stub_diamonds=0, n_nat_dests=0,
    n_zero_ttl_dests=0, response_loss_rate=0.0, p_per_packet=0.0,
    n_vantages=4)

FLEET = FleetConfig(rounds=2, workers=2, seed=5)


def runtime(**overrides):
    """Fast supervision defaults: tiny deterministic backoff, no real
    sleeping in the inline backend."""
    defaults = dict(backoff=BackoffPolicy(base=0.01, cap=0.05),
                    sleep=lambda s: None)
    defaults.update(overrides)
    return RuntimeOptions(**defaults)


@pytest.fixture(scope="module")
def single():
    """The unfaulted single-process reference (the byte oracle)."""
    return run_fleet(TINY4, FLEET)


class TestProcessPoolRecovery:
    """K=4 worker processes: silent deaths and dropped results."""

    def test_hard_kill_and_lost_result_recover(self, single):
        # 'kill' dies without a word (os._exit) and must surface as a
        # dead worker; 'lost' computes the result then drops it.
        chaos = ChaosPlan.of(("shard-v0", 0, "kill"),
                             ("shard-v2", 0, "lost"))
        recovered = run_fleet_sharded(
            TINY4, FLEET, shards=4, processes=True,
            runtime=runtime(chaos=chaos, shard_timeout=5.0))
        assert recovered.signature() == single.signature()
        kinds = {(i.shard, i.kind)
                 for i in recovered.degradation.incidents}
        assert kinds == {("shard-v0", "died"), ("shard-v2", "lost")}


class TestJournalResume:
    """A journal resumes only the run that wrote it."""

    @pytest.fixture(scope="class")
    def interrupted(self, tmp_path_factory):
        """A journal left by an aborted K=2 run of TINY4/FLEET."""
        journal = tmp_path_factory.mktemp("resume") / "fleet.journal"
        aborting = runtime(
            chaos=ChaosPlan.of(("shard-v1-3", 0, "abort")))
        with pytest.raises(RunAborted):
            run_fleet_sharded(TINY4, FLEET, shards=2, runtime=aborting,
                              journal_path=journal)
        return journal

    @pytest.mark.parametrize("change", [
        {"max_destinations": 3},
        {"destination_seed": 11},
        {"strategy_builder": mda_strategy_builder},
        {"shards": 4},
    ], ids=["max_destinations", "destination_seed", "strategy_builder",
            "shard_plan"])
    def test_journal_refuses_a_changed_run_knob(self, interrupted,
                                                change):
        with pytest.raises(JournalError, match="different run"):
            run_fleet_sharded(TINY4, FLEET,
                              **{"shards": 2, **change},
                              journal_path=interrupted)

    def test_journal_refuses_a_different_run(self, interrupted):
        other = replace(TINY4, seed=10)
        with pytest.raises(JournalError, match="different run"):
            run_fleet_sharded(other, FLEET, shards=2,
                              journal_path=interrupted)


class TestReassignment:
    """An exhausted multi-vantage shard is recovered one vantage at a
    time — full coverage, same bytes, nothing degraded."""

    def test_exhausted_group_reassigned_byte_identical(self, single):
        chaos = ChaosPlan.of(("shard-v0-2", 0, "crash"),
                             ("shard-v0-2", 1, "crash"))
        recovered = run_fleet_sharded(
            TINY4, FLEET, shards=2,
            runtime=runtime(max_retries=1, chaos=chaos))
        assert recovered.signature() == single.signature()
        report = recovered.degradation
        assert report.incidents[-1].resolution == "reassigned"
        assert not report.degraded


class TestGracefulDegradation:
    """Acceptance: exhausted shard -> accurate partial merge."""

    def test_partial_merge_matches_surviving_shards(self, single):
        # shard-v2 fails every attempt (initial + 1 retry) and, being a
        # singleton, cannot be reassigned: it is excluded.
        chaos = ChaosPlan.of(("shard-v2", 0, "crash"),
                             ("shard-v2", 1, "crash"))
        degraded = run_fleet_sharded(
            TINY4, FLEET, shards=4,
            runtime=runtime(max_retries=1, chaos=chaos))
        report = degraded.degradation
        assert report.degraded
        assert report.excluded_vantages == [2]
        assert report.exclusions[0].shard == "shard-v2"
        assert report.exclusions[0].attempts == 2
        # The partial merge is exactly the surviving shards' bytes.
        survivors = [
            FleetShardTask(internet=TINY4, fleet=FLEET,
                           vantage_ids=[v]) for v in (0, 1, 3)]
        reference = FleetResult.merge(
            [run_shard(task) for task in survivors])
        assert degraded.signature() == reference.signature()
        assert degraded.signature() != single.signature()
        # Degradation rides outside the signed payload.
        assert "degradation" not in degraded.to_dict()

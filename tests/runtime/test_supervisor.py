"""ShardSupervisor unit behavior on toy work functions.

The acceptance-level proofs (byte-identity through real fleet shards,
process-pool crash+hang recovery, journal resume) live in
``test_chaos_recovery.py``; here each supervision mechanism is pinned
in isolation: retry scheduling under the seeded backoff, reassignment
splitting, exclusion accounting, wrong-shard rejection, journal
integration, and the runtime metrics.
"""

import pytest

from repro.errors import CampaignError
from repro.obs import MetricsRegistry
from repro.runtime import (
    BackoffPolicy,
    ChaosPlan,
    RunAborted,
    RunJournal,
    RuntimeOptions,
    ShardSpec,
    ShardSupervisor,
    run_identity,
)


def work(task):
    return {"task": task, "value": task * 10}


def validate(task, result):
    if result["task"] != task:
        raise CampaignError("result belongs to a different task")


def specs(n=4):
    return [ShardSpec(key=f"s{i}", task=i, vantage_ids=[i])
            for i in range(n)]


def split(spec):
    return [ShardSpec(key=f"{spec.key}/v{v}", task=spec.task,
                      vantage_ids=[v]) for v in spec.vantage_ids]


def options(**overrides):
    defaults = dict(max_retries=2,
                    backoff=BackoffPolicy(base=0.01, cap=0.05),
                    sleep=lambda s: None)
    defaults.update(overrides)
    return RuntimeOptions(**defaults)


class TestCleanRuns:
    def test_results_in_spec_order_with_no_report(self):
        run = ShardSupervisor(specs(), work, options=options()).execute()
        assert [r["value"] for r in run.results] == [0, 10, 20, 30]
        assert run.report is None
        assert run.stats["attempts"] == 4
        assert run.stats["retries"] == 0

    def test_duplicate_keys_rejected(self):
        bad = [ShardSpec("same", 0, [0]), ShardSpec("same", 1, [1])]
        with pytest.raises(CampaignError, match="duplicate"):
            ShardSupervisor(bad, work)

    def test_empty_specs_rejected(self):
        with pytest.raises(CampaignError, match="at least one"):
            ShardSupervisor([], work)


class TestRetries:
    def test_injected_crash_retried_to_success(self):
        run = ShardSupervisor(
            specs(), work,
            options=options(chaos=ChaosPlan.of(("s1", 0, "crash"))),
        ).execute()
        assert [r["value"] for r in run.results] == [0, 10, 20, 30]
        incident = run.report.incidents[0]
        assert (incident.shard, incident.kind, incident.resolution) == \
            ("s1", "crash", "retried")
        assert not run.report.degraded

    def test_retry_sleeps_follow_the_backoff_schedule(self):
        sleeps = []
        policy = BackoffPolicy(base=0.02, cap=1.0, seed=5)
        run = ShardSupervisor(
            specs(), work,
            options=options(sleep=sleeps.append, backoff=policy,
                            chaos=ChaosPlan.of(("s2", 0, "crash"),
                                               ("s2", 1, "crash"))),
        ).execute()
        assert sleeps == policy.delays("s2", 2)
        assert run.stats["retries"] == 2

    def test_genuine_exception_is_contained_and_retried(self):
        calls = {"n": 0}

        def flaky(task):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("worker bug")
            return work(task)

        run = ShardSupervisor(specs(1), flaky,
                              options=options()).execute()
        assert run.results[0]["value"] == 0
        assert run.report.incidents[0].kind == "crash"
        assert "ValueError" in run.report.incidents[0].detail

    def test_lost_result_recomputed(self):
        run = ShardSupervisor(
            specs(), work,
            options=options(chaos=ChaosPlan.of(("s0", 0, "lost"))),
        ).execute()
        assert [r["value"] for r in run.results] == [0, 10, 20, 30]
        assert run.report.incidents[0].kind == "lost"


class TestReassignment:
    def test_exhausted_shard_splits_to_fresh_singletons(self):
        spec = [ShardSpec(key="g", task=7, vantage_ids=[0, 1, 2])]
        run = ShardSupervisor(
            spec, work, split=split,
            options=options(max_retries=1,
                            chaos=ChaosPlan.of(("g", 0, "crash"),
                                               ("g", 1, "crash"))),
        ).execute()
        # The group failed out, but every vantage was recovered via
        # per-vantage reassignment: full coverage, not degraded.
        assert len(run.results) == 3
        assert run.report.incidents[-1].resolution == "reassigned"
        assert not run.report.degraded
        assert run.stats["reassigned"] == 1

    def test_singleton_shard_cannot_reassign(self):
        run = ShardSupervisor(
            specs(2), work, split=split,
            options=options(max_retries=0,
                            chaos=ChaosPlan.of(("s0", 0, "crash"))),
        ).execute()
        assert run.report.degraded
        assert run.report.excluded_vantages == [0]

    def test_reassignment_disabled_excludes_the_group(self):
        # No ``split`` means no reassignment: the group is excluded.
        spec = [ShardSpec(key="g", task=7, vantage_ids=[0, 1]),
                ShardSpec(key="ok", task=1, vantage_ids=[2])]
        run = ShardSupervisor(
            spec, work,
            options=options(max_retries=0,
                            chaos=ChaosPlan.of(("g", 0, "crash"))),
        ).execute()
        assert run.report.excluded_vantages == [0, 1]
        assert len(run.results) == 1


class TestDegradation:
    def test_exclusion_records_attempts_and_reason(self):
        run = ShardSupervisor(
            specs(2), work,
            options=options(max_retries=2,
                            chaos=ChaosPlan.of(("s1", 0, "crash"),
                                               ("s1", 1, "crash"),
                                               ("s1", 2, "crash"))),
        ).execute()
        exclusion = run.report.exclusions[0]
        assert exclusion.shard == "s1"
        assert exclusion.vantage_ids == [1]
        assert exclusion.attempts == 3
        assert "retries exhausted" in exclusion.reason
        resolutions = [i.resolution for i in run.report.incidents]
        assert resolutions == ["retried", "retried", "excluded"]

    def test_all_shards_failing_is_fatal(self):
        def always_broken(task):
            raise ValueError("no shard survives")

        with pytest.raises(CampaignError, match="every shard failed"):
            ShardSupervisor(specs(2), always_broken,
                            options=options(max_retries=0)).execute()


class TestValidation:
    def test_wrong_shard_result_rejected_and_retried(self):
        calls = {"n": 0}

        def confused(task):
            calls["n"] += 1
            if calls["n"] == 1:
                return {"task": task + 1, "value": -1}  # someone else's
            return work(task)

        registry = MetricsRegistry()
        run = ShardSupervisor(specs(1), confused, validate=validate,
                              registry=registry,
                              options=options()).execute()
        assert run.results[0]["value"] == 0
        assert run.report.incidents[0].kind == "invalid"
        # One invalid attempt + one ok retry — not double-counted.
        assert run.stats["attempts"] == 2
        assert registry.snapshot().value(
            "repro_runtime_shard_attempts_total", "s0", "invalid") == 1

    def test_persistently_wrong_results_excluded_not_merged(self):
        def confused_on_zero(task):
            if task == 0:
                return {"task": task + 1, "value": -1}
            return work(task)

        run = ShardSupervisor(specs(2), confused_on_zero,
                              validate=validate,
                              options=options(max_retries=1),
                              ).execute()
        # The wrong-shard result is never merged: only s1 survives.
        assert [r["value"] for r in run.results] == [10]
        assert run.report.exclusions[0].shard == "s0"

    def test_everything_invalid_is_fatal(self):
        def always_confused(task):
            return {"task": task + 1, "value": -1}

        with pytest.raises(CampaignError, match="every shard failed"):
            ShardSupervisor(specs(1), always_confused,
                            validate=validate,
                            options=options(max_retries=1)).execute()


class TestJournalIntegration:
    IDENT = run_identity({"suite": "supervisor"})

    def test_abort_checkpoints_then_resume_skips_completed(self, tmp_path):
        path = tmp_path / "run.journal"
        aborting = options(chaos=ChaosPlan.of(("s2", 0, "abort")))
        with pytest.raises(RunAborted):
            ShardSupervisor(specs(), work, options=aborting,
                            journal=RunJournal(path, self.IDENT),
                            ).execute()
        journal = RunJournal(path, self.IDENT)
        assert sorted(journal.completed) == ["s0", "s1"]
        counted = {"n": 0}

        def counting(task):
            counted["n"] += 1
            return work(task)

        run = ShardSupervisor(specs(), counting, options=options(),
                              journal=journal).execute()
        assert [r["value"] for r in run.results] == [0, 10, 20, 30]
        assert counted["n"] == 2  # only s2 and s3 recomputed
        assert run.report.resumed_shards == ["s0", "s1"]
        assert run.stats["resumed"] == 2

    def test_journaled_subshard_survives_reassignment_on_resume(
            self, tmp_path):
        # First run: the group shard exhausts retries, reassigns,
        # checkpoints subshard g/v0, then the coordinator dies.
        group = [ShardSpec(key="g", task=7, vantage_ids=[0, 1, 2])]
        first = options(max_retries=0,
                        chaos=ChaosPlan.of(("g", 0, "crash"),
                                           ("g/v1", 0, "abort")))
        with pytest.raises(RunAborted):
            ShardSupervisor(group, work, split=split, options=first,
                            journal=RunJournal(tmp_path / "j",
                                               self.IDENT)).execute()
        journal = RunJournal(tmp_path / "j", self.IDENT)
        assert sorted(journal.completed) == ["g/v0"]
        # Resume: the primary fails and reassigns *again*.  The
        # journaled subshard result must enter the merge as resumed,
        # not be silently dropped.
        rerun = options(max_retries=0,
                        chaos=ChaosPlan.of(("g", 0, "crash")))
        run = ShardSupervisor(group, work, split=split, options=rerun,
                              journal=journal).execute()
        assert [r["value"] for r in run.results] == [70, 70, 70]
        assert run.report.resumed_shards == ["g/v0"]
        assert run.stats["resumed"] == 1
        assert not run.report.degraded
        assert sorted(journal.completed) == ["g/v0", "g/v1", "g/v2"]


class TestMetrics:
    def test_runtime_series_are_process_scope(self):
        registry = MetricsRegistry()
        ShardSupervisor(
            specs(2), work, registry=registry,
            options=options(chaos=ChaosPlan.of(("s0", 0, "crash"))),
        ).execute()
        snapshot = registry.snapshot()
        assert snapshot.value("repro_runtime_shard_attempts_total",
                              "s0", "crash") == 1
        assert snapshot.value("repro_runtime_shard_attempts_total",
                              "s0", "ok") == 1
        assert snapshot.value("repro_runtime_shard_attempts_total",
                              "s1", "ok") == 1
        assert snapshot.value("repro_runtime_retries_total", "s0") == 1
        attempts = snapshot.families[
            "repro_runtime_shard_attempts_total"]
        assert attempts["scope"] == "process"
        # None of it may leak into the deterministic (client) view.
        assert not any(name.startswith("repro_runtime")
                       for name in snapshot.deterministic_view())


class TestProcessGuards:
    def test_hang_chaos_without_timeout_rejected_in_process_mode(self):
        with pytest.raises(CampaignError, match="shard_timeout"):
            ShardSupervisor(
                specs(1), work, processes=True,
                options=options(chaos=ChaosPlan.of(("s0", 0, "hang"))))

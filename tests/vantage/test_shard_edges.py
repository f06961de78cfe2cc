"""Shard-planning edge cases: degenerate partitions and wrong-shard
results.

``plan_shards`` reuses the paper's destination round-robin
(``split_among_workers``); these tests pin the corners the happy-path
determinism suite never exercises — more shards than vantages,
empty shares, and the shard runner's validation, which refuses to
merge a result belonging to another shard.
"""

import pytest

from repro.errors import CampaignError
from repro.measurement.destinations import split_among_workers
from repro.runtime import RuntimeOptions
from repro.topology import InternetConfig
from repro.vantage import (
    FleetConfig,
    FleetResult,
    plan_shards,
    run_fleet,
    run_fleet_sharded,
)
from repro.vantage.sharding import FleetShardTask, run_shard, run_sharded

TINY = InternetConfig(
    seed=9, n_tier1=2, n_transit=2, n_stub=3, dests_per_stub=1,
    n_loop_stub_diamonds=1, n_cycle_stub_diamonds=0, n_nat_dests=0,
    n_zero_ttl_dests=0, response_loss_rate=0.0, p_per_packet=0.0,
    n_vantages=2)

FLEET = FleetConfig(rounds=1, workers=2, seed=5)


def run_fleet_tasks(tasks, run=run_shard, **kwargs):
    """Fleet shard tasks through the shared runner."""
    return run_sharded("fleet", tasks, run, FleetResult.merge,
                       lambda result: result, **kwargs)


class TestSplitAmongWorkers:
    def test_round_robin_partition(self):
        assert split_among_workers([10, 11, 12, 13, 14], 2) == \
            [[10, 12, 14], [11, 13]]

    def test_more_workers_than_items_leaves_empty_shares(self):
        assert split_among_workers([1, 2], 4) == [[1], [2], [], []]

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="at least one worker"):
            split_among_workers([1], 0)


class TestPlanShards:
    def test_empty_shards_are_dropped(self):
        # 5 shards over 2 vantages: only the two non-empty shares
        # survive — no shard task ever carries zero vantages.
        assert plan_shards(2, 5) == [[0], [1]]

    def test_zero_shards_rejected(self):
        with pytest.raises(CampaignError, match="at least one shard"):
            plan_shards(2, 0)

    def test_specs_never_wrap_empty_shards(self, tmp_path):
        tasks = [FleetShardTask(internet=TINY, fleet=FLEET,
                                vantage_ids=ids)
                 for ids in plan_shards(2, 8)]
        seen = []

        def recording(task):
            seen.append(list(task.vantage_ids))
            return run_shard(task)

        journal = tmp_path / "plan.journal"
        run_fleet_tasks(tasks, recording, journal_path=journal)
        # The rerun resumes every shard, which names the shard keys.
        resumed = run_fleet_tasks(tasks, recording, journal_path=journal)
        assert resumed.degradation.resumed_shards == \
            ["shard-v0", "shard-v1"]
        assert seen == [[0], [1]]


class TestOversharding:
    def test_more_shards_than_vantages_matches_single(self):
        single = run_fleet(TINY, FLEET)
        oversharded = run_fleet_sharded(TINY, FLEET, shards=8)
        assert oversharded.signature() == single.signature()


class TestWrongShardResults:
    def test_foreign_result_rejected(self):
        mine = FleetShardTask(internet=TINY, fleet=FLEET,
                              vantage_ids=[0])
        theirs = FleetShardTask(internet=TINY, fleet=FLEET,
                                vantage_ids=[1])
        stray = run_shard(theirs)
        # Rejected on every attempt, never merged: nothing survives.
        with pytest.raises(CampaignError, match="wrong-shard"):
            run_fleet_tasks([mine], lambda task: stray,
                            runtime=RuntimeOptions(max_retries=0))

    def test_own_result_accepted(self):
        task = FleetShardTask(internet=TINY, fleet=FLEET,
                              vantage_ids=[0, 1])
        result = run_fleet_tasks([task])
        assert result.degradation is None
        assert [v.index for v in result.vantages] == [0, 1]

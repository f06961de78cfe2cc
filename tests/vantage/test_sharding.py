"""Sharded fleet execution: determinism and lossless merging.

The acceptance bar: a 4-vantage fleet campaign on the Sec. 3 topology
is byte-identical — same signature over the full serialized result,
timestamps and forensics included — whether it runs on one scheduler
or sharded K=2 / K=4 over seeded topology replicas.
"""

from dataclasses import replace

import pytest

from repro.errors import CampaignError
from repro.faults import make_fault_profile
from repro.measurement import merge_campaign_results
from repro.measurement.campaign import CampaignResult, StrategyOutcome
from repro.topology import InternetConfig
from repro.vantage import (
    FleetResult,
    FleetConfig,
    mda_lite_strategy_builder,
    mda_strategy_builder,
    plan_shards,
    run_fleet,
    run_fleet_sharded,
)

SEC3_INTERNET = InternetConfig(
    seed=5, n_tier1=3, n_transit=4, n_stub=8, dests_per_stub=2,
    n_loop_stub_diamonds=2, n_cycle_stub_diamonds=1, n_nat_dests=1,
    n_zero_ttl_dests=1, response_loss_rate=0.0, p_per_packet=0.0,
    n_vantages=4)

TINY_INTERNET = InternetConfig(
    seed=9, n_tier1=2, n_transit=2, n_stub=3, dests_per_stub=1,
    n_loop_stub_diamonds=1, n_cycle_stub_diamonds=0, n_nat_dests=0,
    n_zero_ttl_dests=0, response_loss_rate=0.0, p_per_packet=0.0,
    n_vantages=2)


class TestShardDeterminism:
    """The 4-vantage acceptance criterion."""

    @pytest.fixture(scope="class")
    def fleet_config(self):
        return FleetConfig(rounds=2, workers=4, seed=5)

    @pytest.fixture(scope="class")
    def single(self, fleet_config):
        return run_fleet(SEC3_INTERNET, fleet_config)

    def test_sharded_k2_byte_identical(self, single, fleet_config):
        sharded = run_fleet_sharded(SEC3_INTERNET, fleet_config, shards=2)
        assert sharded.signature() == single.signature()

    def test_sharded_k4_byte_identical(self, single, fleet_config):
        sharded = run_fleet_sharded(SEC3_INTERNET, fleet_config, shards=4)
        assert sharded.signature() == single.signature()

    def test_all_vantages_present_after_merge(self, single):
        assert [v.index for v in single.vantages] == [0, 1, 2, 3]
        assert single.labels == ["S", "S1", "S2", "S3"]

    def test_sharded_byte_identical_under_fault_profile(self, single,
                                                       fleet_config):
        """The PR 3 guarantee with the adversarial fault profile on:
        jitter, spikes, duplication, rate limiting, and loss bursts are
        all keyed per probing client, so fault timelines are vantage-
        local and sharding still reproduces the single-process bytes."""
        internet = replace(SEC3_INTERNET,
                           fault_profile=make_fault_profile("adversarial",
                                                            seed=5))
        faulted = run_fleet(internet, fleet_config)
        sharded = run_fleet_sharded(internet, fleet_config, shards=2)
        assert sharded.signature() == faulted.signature()
        # And the faults actually bit: the adversarial run differs from
        # the clean topology's run.
        assert faulted.signature() != single.signature()

    def test_process_pool_matches_inline(self, fleet_config):
        inline = run_fleet_sharded(TINY_INTERNET,
                                   FleetConfig(rounds=1, workers=2, seed=9),
                                   shards=2)
        pooled = run_fleet_sharded(TINY_INTERNET,
                                   FleetConfig(rounds=1, workers=2, seed=9),
                                   shards=2, processes=True)
        assert pooled.signature() == inline.signature()


class TestStrategyResultsThroughShards:
    """Regression: strategy products survive the shard merge losslessly."""

    @pytest.fixture(scope="class")
    def results(self):
        config = FleetConfig(rounds=1, workers=2, seed=9)
        single = run_fleet(TINY_INTERNET, config,
                           strategy_builder=mda_strategy_builder)
        sharded = run_fleet_sharded(TINY_INTERNET, config, shards=2,
                                    strategy_builder=mda_strategy_builder)
        return single, sharded

    def test_signatures_match_with_strategies(self, results):
        single, sharded = results
        assert sharded.signature() == single.signature()

    def test_strategy_results_present_per_vantage(self, results):
        __, sharded = results
        for vantage in sharded.vantages:
            outcomes = vantage.result.strategy_results
            assert len(outcomes) == len(vantage.destinations)
            assert {str(o.destination) for o in outcomes} \
                == {str(d) for d in vantage.destinations}

    def test_stop_reason_carried_without_loss(self, results):
        single, sharded = results
        for result in (single, sharded):
            reasons = [
                hop.stop_reason
                for vantage in result.vantages
                for outcome in vantage.result.strategy_results
                for hop in outcome.result.hops
            ]
            assert reasons, "MDA produced no hop discoveries"
            assert all(r in ("confident", "flow-budget") for r in reasons)
        # Hop-for-hop identical forensics across execution modes.
        def forensics(result):
            return [
                (vantage.index, outcome.round_index,
                 str(outcome.destination), hop.ttl, hop.probes_sent,
                 hop.stop_reason, sorted(str(a) for a in hop.interfaces))
                for vantage in result.vantages
                for outcome in vantage.result.strategy_results
                for hop in outcome.result.hops
            ]
        assert forensics(sharded) == forensics(single)

    def test_merged_campaign_result_keeps_strategy_results(self, results):
        __, sharded = results
        merged = sharded.merged()
        expected = sum(len(v.result.strategy_results)
                       for v in sharded.vantages)
        assert len(merged.strategy_results) == expected
        assert merged.probes_sent == sum(v.result.probes_sent
                                         for v in sharded.vantages)


#: A 4-vantage world with the adversarial fault profile biting, small
#: enough that running six MDA fleets in one class stays cheap.
ADVERSARIAL_TINY4 = replace(
    TINY_INTERNET, n_vantages=4,
    fault_profile=make_fault_profile("adversarial", seed=9))

MDA_BUILDERS = {
    "exact": mda_strategy_builder,
    "lite": mda_lite_strategy_builder,
}


class TestMdaAlgorithmsThroughShards:
    """Both MDA algorithms shard byte-identically under faults.

    The census regression: exact and Lite multipath strategies, run
    from four vantages with jitter, spikes, duplication, rate limiting
    and loss bursts all active, must merge K=2 and K=4 shards back to
    the single-scheduler bytes — timestamps and hop forensics included.
    """

    @pytest.fixture(scope="class")
    def config(self):
        return FleetConfig(rounds=1, workers=4, seed=9)

    @pytest.fixture(scope="class")
    def runs(self, config):
        return {
            name: {
                shards: (run_fleet(ADVERSARIAL_TINY4, config,
                                   strategy_builder=builder)
                         if shards == 1 else
                         run_fleet_sharded(ADVERSARIAL_TINY4, config,
                                           shards=shards,
                                           strategy_builder=builder))
                for shards in (1, 2, 4)
            }
            for name, builder in MDA_BUILDERS.items()
        }

    @pytest.mark.parametrize("algorithm", list(MDA_BUILDERS))
    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_byte_identical_under_faults(self, runs, algorithm,
                                                 shards):
        assert (runs[algorithm][shards].signature()
                == runs[algorithm][1].signature())

    @staticmethod
    def _total_probes(fleet_result):
        return sum(
            outcome.result.total_probes
            for vantage in fleet_result.vantages
            for outcome in vantage.result.strategy_results)

    def test_lite_census_is_cheaper_than_exact(self, runs):
        # The builders really wire distinct algorithms through the
        # shard boundary: Lite's stopping rule spends fewer probes on
        # the same destinations, and never more.
        exact = self._total_probes(runs["exact"][1])
        lite = self._total_probes(runs["lite"][1])
        assert 0 < lite < exact

    def test_lite_stop_reasons_include_scout(self, runs):
        reasons = {
            hop.stop_reason
            for vantage in runs["lite"][1].vantages
            for outcome in vantage.result.strategy_results
            for hop in outcome.result.hops}
        assert "scout" in reasons


class TestMergeValidation:
    def test_duplicate_vantage_rejected(self):
        part = run_fleet(TINY_INTERNET, FleetConfig(rounds=1, workers=2,
                                                    seed=9))
        with pytest.raises(CampaignError):
            FleetResult.merge([part, part])

    def test_destination_disagreement_rejected(self):
        part = run_fleet(TINY_INTERNET, FleetConfig(rounds=1, workers=2,
                                                    seed=9))
        other = FleetResult(destinations=list(part.destinations[:1]))
        with pytest.raises(CampaignError):
            FleetResult.merge([part, other])

    def test_empty_merge_rejected(self):
        with pytest.raises(CampaignError):
            FleetResult.merge([])

    def test_merge_campaign_results_concatenates_everything(self):
        a = CampaignResult(probes_sent=3, responses_received=2)
        a.strategy_results.append(StrategyOutcome(
            round_index=0, worker=1, destination="10.0.0.9",
            result="left"))
        b = CampaignResult(probes_sent=5, responses_received=4)
        b.strategy_results.append(StrategyOutcome(
            round_index=1, worker=0, destination="10.0.0.9",
            result="right"))
        merged = merge_campaign_results([a, b])
        assert merged.probes_sent == 8
        assert merged.responses_received == 6
        assert [o.result for o in merged.strategy_results] \
            == ["left", "right"]


class TestShardPlanning:
    def test_round_robin_partition(self):
        assert plan_shards(4, 2) == [[0, 2], [1, 3]]
        assert plan_shards(4, 4) == [[0], [1], [2], [3]]

    def test_more_shards_than_vantages_drops_empties(self):
        assert plan_shards(2, 4) == [[0], [1]]

    def test_bad_shard_count_rejected(self):
        with pytest.raises(CampaignError):
            plan_shards(4, 0)

"""The fleet campaign: N vantages, one clock, per-vantage results."""

import pytest

from repro.errors import CampaignError
from repro.measurement import Campaign, CampaignConfig
from repro.measurement.destinations import select_pingable_destinations
from repro.measurement.storage import route_to_dict
from repro.obs.registry import MetricsRegistry
from repro.topology import InternetConfig, generate_internet
from repro.vantage import FleetCampaign, FleetConfig


def deterministic_internet(seed=5, vantages=3):
    """A Sec. 3-style internet without order-sensitive randomness."""
    return generate_internet(InternetConfig(
        seed=seed, n_tier1=2, n_transit=3, n_stub=8, dests_per_stub=2,
        n_loop_stub_diamonds=2, n_cycle_stub_diamonds=1, n_nat_dests=1,
        n_zero_ttl_dests=1, response_loss_rate=0.0, p_per_packet=0.0,
        n_vantages=vantages))


def run_fleet_campaign(vantages=3, rounds=2, workers=4, seed=5,
                       **config_kwargs):
    topo = deterministic_internet(seed, vantages)
    dests = select_pingable_destinations(
        topo.network, topo.source, topo.destination_addresses, seed=seed)
    campaign = FleetCampaign(
        topo.network, topo.sources, dests,
        FleetConfig(rounds=rounds, workers=workers, seed=seed,
                    **config_kwargs))
    return campaign.run(), dests


def inference_signature(route):
    """Route identity without timestamps (engine-schedule independent)."""
    return (route.round_index, str(route.destination), route.tool,
            route.halt_reason,
            tuple((h.ttl, str(h.address), h.probe_ttl, h.response_ttl,
                   h.unreachable_flag, str(h.kind)) for h in route.hops))


class TestFleetCampaignShape:
    @pytest.fixture(scope="class")
    def fleet(self):
        return run_fleet_campaign()

    def test_every_vantage_ran_every_destination(self, fleet):
        result, dests = fleet
        assert result.labels == ["S", "S1", "S2"]
        for vantage in result.vantages:
            # replicate assignment: 2 rounds x 2 tools x all destinations
            assert len(vantage.result.routes) == 2 * 2 * len(dests)
            assert vantage.destinations == dests

    def test_routes_carry_each_vantages_source_address(self, fleet):
        result, __ = fleet
        for vantage in result.vantages:
            assert all(r.source == vantage.address
                       for r in vantage.result.routes)

    def test_paired_tools_per_round_and_destination(self, fleet):
        result, dests = fleet
        for vantage in result.vantages:
            seen = {}
            for route in vantage.result.routes:
                key = (route.round_index, str(route.destination))
                seen.setdefault(key, set()).add(
                    route.tool.split("-")[0])
            assert all(tools == {"paris", "classic"}
                       for tools in seen.values())
            assert len(seen) == 2 * len(dests)

    def test_round_records_cover_all_rounds(self, fleet):
        result, dests = fleet
        for vantage in result.vantages:
            assert [r.index for r in vantage.result.rounds] == [0, 1]
            for record in vantage.result.rounds:
                assert record.traces == 2 * len(dests)
                assert record.finished_at > record.started_at

    def test_per_vantage_probe_counters(self, fleet):
        result, __ = fleet
        for vantage in result.vantages:
            assert vantage.result.probes_sent > 0
            assert (0 < vantage.result.responses_received
                    <= vantage.result.probes_sent)

    def test_vantages_see_different_access_paths(self, fleet):
        result, __ = fleet
        first_hops = set()
        for vantage in result.vantages:
            hops = {str(r.hops[0].address) for r in vantage.result.routes
                    if r.hops and r.hops[0].address is not None}
            first_hops |= {(vantage.name, hop) for hop in hops}
        # Each vantage enters the core through its own university stub.
        addresses = {hop for __, hop in first_hops}
        assert len(addresses) >= len(result.vantages)


class TestSingleVantageEquivalence:
    @pytest.mark.parametrize("rounds", [1, 2])
    def test_one_vantage_fleet_matches_pipelined_campaign(self, rounds):
        """The pipelined campaign is a one-vantage fleet.

        Both replicas are pre-screened alike, so their routers' IP-ID
        streams agree.  The campaign is the fleet in its round-barrier
        shape: each round's lanes start together when the previous
        round's last lane is done, while a plain fleet's lanes cycle
        from one round into the next.  At one round the two shapes
        coincide, so routes (timestamps and IP-IDs included), counters
        and the metrics signature must match.  Over two rounds the
        second round starts at different instants, so every (round,
        destination, tool) inference — addresses, forensics, halt —
        must match, but not the timestamps.
        """
        replicas = []
        for __ in range(2):
            topo = deterministic_internet(vantages=1)
            dests = select_pingable_destinations(
                topo.network, topo.source, topo.destination_addresses,
                seed=5)
            topo.network.metrics = MetricsRegistry()
            replicas.append((topo, dests))
        (fleet_topo, dests), (campaign_topo, campaign_dests) = replicas
        assert campaign_dests == dests
        fleet = FleetCampaign(
            fleet_topo.network, fleet_topo.sources, dests,
            FleetConfig(rounds=rounds, workers=4, seed=5)).run()
        fleet_result = fleet.vantages[0].result
        campaign_result = Campaign(
            campaign_topo.network, campaign_topo.source, dests,
            CampaignConfig(rounds=rounds, workers=4, seed=5,
                           engine="pipelined")).run()
        if rounds == 1:
            assert ([route_to_dict(r) for r in fleet_result.routes]
                    == [route_to_dict(r) for r in campaign_result.routes])
            assert fleet_result.probes_sent == campaign_result.probes_sent
            assert (fleet_result.responses_received
                    == campaign_result.responses_received)
            assert (fleet.metrics.deterministic_signature()
                    == campaign_result.metrics.deterministic_signature())
        else:
            assert (sorted(inference_signature(r)
                           for r in fleet_result.routes)
                    == sorted(inference_signature(r)
                              for r in campaign_result.routes))


class TestAssignmentModes:
    def test_shard_assignment_partitions_destinations(self):
        result, dests = run_fleet_campaign(assignment="shard", rounds=1)
        shares = [v.destinations for v in result.vantages]
        flattened = [d for share in shares for d in share]
        assert sorted(str(d) for d in flattened) \
            == sorted(str(d) for d in dests)
        for vantage, share in zip(result.vantages, shares):
            assert {str(r.destination) for r in vantage.result.routes} \
                == {str(d) for d in share}

    def test_adaptive_timeout_policy_runs(self):
        result, dests = run_fleet_campaign(
            rounds=1, timeout_policy="adaptive", adaptive_floor=0.5)
        for vantage in result.vantages:
            assert len(vantage.result.routes) == 2 * len(dests)


class TestFleetConfigValidation:
    def test_unknown_assignment_rejected(self):
        with pytest.raises(CampaignError):
            FleetConfig(assignment="broadcast")

    def test_unknown_timeout_policy_rejected(self):
        with pytest.raises(CampaignError):
            FleetConfig(timeout_policy="psychic")

    def test_nonpositive_window_rejected(self):
        with pytest.raises(CampaignError):
            FleetConfig(window=0)

    def test_nonpositive_rounds_rejected(self):
        with pytest.raises(CampaignError):
            FleetConfig(rounds=0)

    def test_vantage_ids_out_of_range_rejected(self):
        topo = deterministic_internet(vantages=2)
        with pytest.raises(CampaignError):
            FleetCampaign(topo.network, topo.sources,
                          topo.destination_addresses[:2],
                          vantage_ids=[5])

    def test_empty_destinations_rejected(self):
        topo = deterministic_internet(vantages=2)
        with pytest.raises(CampaignError):
            FleetCampaign(topo.network, topo.sources, [])


class TestFleetCoverage:
    """Acceptance: k vantages discover strictly more than any one."""

    @pytest.fixture(scope="class")
    def coverage(self):
        from repro.core import coverage_report
        from repro.topology import generate_internet

        topo = generate_internet(InternetConfig(
            seed=5, n_tier1=3, n_transit=4, n_stub=8, dests_per_stub=2,
            n_loop_stub_diamonds=2, n_cycle_stub_diamonds=1,
            n_nat_dests=1, n_zero_ttl_dests=1,
            response_loss_rate=0.0, p_per_packet=0.0, n_vantages=4))
        dests = select_pingable_destinations(
            topo.network, topo.source, topo.destination_addresses, seed=5)
        result = FleetCampaign(
            topo.network, topo.sources, dests,
            FleetConfig(rounds=4, workers=4, seed=5)).run()
        return coverage_report(result.routes_by_vantage())

    def test_union_links_strictly_exceed_every_single_vantage(
            self, coverage):
        assert all(coverage.union_links > links
                   for links in coverage.links_per_vantage.values())

    def test_union_diamonds_strictly_exceed_every_single_vantage(
            self, coverage):
        assert all(coverage.union_diamonds > diamonds
                   for diamonds in coverage.diamonds_per_vantage.values())

    def test_union_grows_monotonically_with_k(self, coverage):
        links = coverage.union_links_by_k
        assert links == sorted(links)
        diamonds = coverage.union_diamonds_by_k
        assert diamonds == sorted(diamonds)

    def test_report_renders(self, coverage):
        text = coverage.format()
        assert "union of 4 vantages" in text
        assert f"{coverage.union_links} links" in text

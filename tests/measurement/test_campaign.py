"""Tests for destination selection, the campaign driver, and storage."""

import pytest

from repro.errors import CampaignError, StorageError
from repro.measurement import (
    Campaign,
    CampaignConfig,
    load_routes,
    save_routes,
    select_pingable_destinations,
)
from repro.measurement.destinations import is_pingable, split_among_workers
from repro.measurement.storage import route_from_dict, route_to_dict
from repro.topology import InternetConfig, generate_internet

from tests.core.helpers import route_from


def tiny_internet(**overrides):
    defaults = dict(seed=5, n_tier1=2, n_transit=2, n_stub=4,
                    dests_per_stub=2, n_loop_stub_diamonds=1,
                    n_cycle_stub_diamonds=1, n_nat_dests=1,
                    n_zero_ttl_dests=1)
    defaults.update(overrides)
    return generate_internet(InternetConfig(**defaults))


class TestDestinationSelection:
    def test_pingable_detection(self):
        topo = tiny_internet()
        assert is_pingable(topo.network, topo.source,
                           topo.destination_addresses[0])

    def test_unpingable_excluded(self):
        topo = tiny_internet()
        victim = topo.destinations[0]
        victim.pingable = False
        chosen = select_pingable_destinations(
            topo.network, topo.source, topo.destination_addresses)
        assert victim.address not in chosen

    def test_duplicates_removed(self):
        topo = tiny_internet()
        twice = topo.destination_addresses + topo.destination_addresses
        chosen = select_pingable_destinations(topo.network, topo.source,
                                              twice)
        assert len(chosen) == len(set(chosen))

    def test_count_truncates(self):
        topo = tiny_internet()
        chosen = select_pingable_destinations(
            topo.network, topo.source, topo.destination_addresses, count=3)
        assert len(chosen) == 3

    def test_shuffle_is_seeded(self):
        topo = tiny_internet()
        a = select_pingable_destinations(topo.network, topo.source,
                                         topo.destination_addresses, seed=1)
        b = select_pingable_destinations(topo.network, topo.source,
                                         topo.destination_addresses, seed=1)
        assert a == b

    def test_worker_split_covers_everything(self):
        shares = split_among_workers(list(range(10)), 3)
        assert sorted(x for share in shares for x in share) == list(range(10))
        assert len(shares) == 3

    def test_worker_split_validation(self):
        with pytest.raises(ValueError):
            split_among_workers([1], 0)


class TestCampaign:
    def test_runs_paired_traces(self):
        topo = tiny_internet()
        dests = topo.destination_addresses[:4]
        campaign = Campaign(topo.network, topo.source, dests,
                            CampaignConfig(rounds=2, workers=2, seed=1))
        result = campaign.run()
        # 2 rounds x 4 destinations x 2 tools
        assert len(result.routes) == 16
        tools = {r.tool for r in result.routes}
        assert tools == {"paris-udp", "classic-udp"}

    def test_round_indexes_recorded(self):
        topo = tiny_internet()
        dests = topo.destination_addresses[:2]
        result = Campaign(topo.network, topo.source, dests,
                          CampaignConfig(rounds=3, seed=1)).run()
        assert {r.round_index for r in result.routes} == {0, 1, 2}
        assert len(result.rounds) == 3

    def test_min_ttl_two(self):
        # The campaign skips the university network, as in the paper.
        topo = tiny_internet()
        dests = topo.destination_addresses[:1]
        result = Campaign(topo.network, topo.source, dests,
                          CampaignConfig(rounds=1, seed=1)).run()
        assert all(r.hops[0].ttl == 2 for r in result.routes)

    def test_rounds_advance_clock(self):
        topo = tiny_internet()
        dests = topo.destination_addresses[:4]
        result = Campaign(topo.network, topo.source, dests,
                          CampaignConfig(rounds=2, seed=1)).run()
        first, second = result.rounds
        assert second.started_at >= first.finished_at
        assert result.mean_round_duration > 0

    def test_paris_then_classic_ordering(self):
        topo = tiny_internet()
        dests = topo.destination_addresses[:1]
        result = Campaign(topo.network, topo.source, dests,
                          CampaignConfig(rounds=1, seed=1)).run()
        assert result.routes[0].tool.startswith("paris")
        assert result.routes[1].tool.startswith("classic")

    def test_needs_destinations(self):
        topo = tiny_internet()
        with pytest.raises(CampaignError):
            Campaign(topo.network, topo.source, [],
                     CampaignConfig(rounds=1))

    def test_counters_exposed(self):
        topo = tiny_internet()
        dests = topo.destination_addresses[:2]
        result = Campaign(topo.network, topo.source, dests,
                          CampaignConfig(rounds=1, seed=1)).run()
        assert result.probes_sent > 0
        assert result.responses_received > 0
        assert result.responses_received <= result.probes_sent

    def test_progress_callback(self):
        topo = tiny_internet()
        seen, clocks = [], []

        def progress(record):
            seen.append(record)
            clocks.append(topo.network.clock.now)

        Campaign(topo.network, topo.source,
                 topo.destination_addresses[:2],
                 CampaignConfig(rounds=2, seed=1)).run(progress=progress)
        assert [r.index for r in seen] == [0, 1]
        # Each round is reported as it ends, not after the whole run.
        assert clocks == [r.finished_at for r in seen]


class TestStorage:
    def test_roundtrip_dict(self):
        route = route_from([1, None, 3], tool="paris-udp", round_index=7)
        rebuilt = route_from_dict(route_to_dict(route))
        assert rebuilt.tool == "paris-udp"
        assert rebuilt.round_index == 7
        assert rebuilt.addresses() == route.addresses()
        assert rebuilt.hops[1].is_star

    def test_roundtrip_file(self, tmp_path):
        routes = [route_from([1, 2, 2]), route_from([4, 5, 6])]
        path = tmp_path / "routes.jsonl"
        assert save_routes(routes, path) == 2
        loaded = list(load_routes(path))
        assert len(loaded) == 2
        assert loaded[0].addresses() == routes[0].addresses()

    def test_forensics_survive_roundtrip(self, tmp_path):
        route = route_from([1, 2, 2], probe_ttls={2: 0, 3: 1},
                           response_ttls={2: 250, 3: 249},
                           ip_ids={2: 9, 3: 10}, flags={3: "!H"})
        path = tmp_path / "one.jsonl"
        save_routes([route], path)
        loaded = next(load_routes(path))
        assert loaded.hops[1].probe_ttl == 0
        assert loaded.hops[2].unreachable_flag == "!H"
        assert loaded.hops[2].ip_id == 10

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(StorageError):
            list(load_routes(path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StorageError):
            list(load_routes(tmp_path / "absent.jsonl"))

    def test_malformed_record_raises(self):
        with pytest.raises(StorageError):
            route_from_dict({"source": "10.0.0.1"})

    def test_blank_lines_skipped(self, tmp_path):
        route = route_from([1, 2])
        path = tmp_path / "gaps.jsonl"
        import json
        from repro.measurement.storage import route_to_dict as td
        path.write_text("\n" + json.dumps(td(route)) + "\n\n")
        assert len(list(load_routes(path))) == 1


class TestSetupStats:
    def test_stats_from_small_campaign(self):
        from repro.measurement import compute_setup_statistics
        topo = tiny_internet()
        dests = topo.destination_addresses
        result = Campaign(topo.network, topo.source, dests,
                          CampaignConfig(rounds=2, seed=1)).run()
        tier1 = {s.asn for s in topo.sites if s.tier == 1}
        stats = compute_setup_statistics(result, topo.asmap, tier1)
        assert stats.rounds == 2
        assert stats.destinations == len(dests)
        assert stats.responses_valid > 0
        assert stats.ases_covered > 0
        assert stats.tier1_covered <= stats.tier1_total == len(tier1)
        assert "Measurement setup" in stats.format_table()

    def test_invalid_sources_counted(self):
        # NAT'd inner routers answer from the external address (valid);
        # fake-address responders map to nothing.
        from repro.measurement import compute_setup_statistics
        topo = tiny_internet()
        dests = topo.destination_addresses
        result = Campaign(topo.network, topo.source, dests,
                          CampaignConfig(rounds=1, seed=1)).run()
        stats = compute_setup_statistics(result, topo.asmap)
        assert stats.responses_invalid >= 0
        assert stats.responses_valid > stats.responses_invalid

    def test_mid_route_stars_subset_of_stars(self):
        from repro.measurement import compute_setup_statistics
        topo = tiny_internet()
        dests = topo.destination_addresses
        result = Campaign(topo.network, topo.source, dests,
                          CampaignConfig(rounds=1, seed=1)).run()
        stats = compute_setup_statistics(result, topo.asmap)
        assert stats.stars_mid_route <= stats.stars_total

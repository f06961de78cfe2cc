"""The pipelined campaign engine: same routes, less simulated time."""

import pytest

from repro.errors import CampaignError
from repro.measurement import Campaign, CampaignConfig
from repro.measurement.destinations import select_pingable_destinations
from repro.topology import InternetConfig, generate_internet


def deterministic_internet(seed=5):
    """A Sec. 3-style internet without order-sensitive randomness.

    Per-packet balancers and response loss draw from stateful RNGs, so
    their outcomes depend on global probe order — the one thing the two
    engines legitimately change.  With those at zero, routes are a pure
    function of each probe's bytes and both engines must agree.
    """
    return generate_internet(InternetConfig(
        seed=seed, n_tier1=2, n_transit=3, n_stub=8, dests_per_stub=2,
        n_loop_stub_diamonds=2, n_cycle_stub_diamonds=1, n_nat_dests=1,
        n_zero_ttl_dests=1, response_loss_rate=0.0, p_per_packet=0.0))


def run_campaign(engine, rounds=2, workers=4, seed=5):
    topo = deterministic_internet(seed)
    dests = select_pingable_destinations(
        topo.network, topo.source, topo.destination_addresses, seed=seed)
    campaign = Campaign(topo.network, topo.source, dests,
                        CampaignConfig(rounds=rounds, workers=workers,
                                       seed=seed, engine=engine))
    return campaign.run()


def route_signature(route):
    return (route.round_index, str(route.destination), route.tool,
            route.halt_reason,
            tuple((h.ttl, str(h.address), h.probe_ttl, h.response_ttl,
                   h.unreachable_flag, str(h.kind)) for h in route.hops))


class TestEngineEquivalence:
    @pytest.fixture(scope="class")
    def both(self):
        return (run_campaign("sequential"), run_campaign("pipelined"))

    def test_identical_route_inferences(self, both):
        sequential, pipelined = both
        assert (sorted(route_signature(r) for r in sequential.routes)
                == sorted(route_signature(r) for r in pipelined.routes))

    def test_fewer_simulated_seconds(self, both):
        sequential, pipelined = both
        assert (pipelined.rounds[-1].finished_at
                < sequential.rounds[-1].finished_at)
        for fast, slow in zip(pipelined.rounds, sequential.rounds):
            assert fast.duration < slow.duration

    def test_same_trace_counts(self, both):
        sequential, pipelined = both
        assert len(pipelined.routes) == len(sequential.routes)
        assert ([r.traces for r in pipelined.rounds]
                == [r.traces for r in sequential.rounds])


class TestPipelinedCampaignShape:
    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign("pipelined", rounds=2)

    def test_round_records_advance(self, result):
        first, second = result.rounds
        assert second.started_at >= first.finished_at
        assert result.mean_round_duration > 0

    def test_routes_ordered_paris_then_classic(self, result):
        assert result.routes[0].tool.startswith("paris")
        assert result.routes[1].tool.startswith("classic")
        assert (str(result.routes[0].destination)
                == str(result.routes[1].destination))

    def test_counters_exposed(self, result):
        assert result.probes_sent > 0
        assert 0 < result.responses_received <= result.probes_sent

    def test_min_ttl_respected(self, result):
        assert all(r.hops[0].ttl == 2 for r in result.routes if r.hops)

    def test_round_indexes_recorded(self, result):
        assert {r.round_index for r in result.routes} == {0, 1}


class TestConfigValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(CampaignError):
            CampaignConfig(engine="warp")

    def test_nonpositive_window_rejected(self):
        with pytest.raises(CampaignError):
            CampaignConfig(engine="pipelined", window=0)

    @pytest.mark.parametrize("name", ["rounds", "workers"])
    def test_nonpositive_count_rejected(self, name):
        with pytest.raises(CampaignError):
            CampaignConfig(**{name: 0})

    def test_progress_callback_fires_per_round(self):
        topo = deterministic_internet()
        dests = topo.destination_addresses[:2]
        seen, clocks = [], []

        def progress(record):
            seen.append(record)
            clocks.append(topo.network.clock.now)

        Campaign(topo.network, topo.source, dests,
                 CampaignConfig(rounds=2, seed=1, engine="pipelined")).run(
            progress=progress)
        assert [r.index for r in seen] == [0, 1]
        # Each round is reported as it ends, not after the whole run.
        assert clocks == [r.finished_at for r in seen]

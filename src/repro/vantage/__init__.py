"""Multi-vantage fleets: N measurement hosts on one simulated clock.

The paper measures from two vantage points and compares anomaly rates
per source (Sec. 3); this package makes that a first-class, scalable
workload:

- :mod:`repro.vantage.demux` — the reply demux that routes buffered
  network deliveries to per-host inboxes, and the per-vantage
  non-blocking socket over it;
- :mod:`repro.vantage.fleet` — :class:`VantageFleet`, the bundle of
  per-vantage sockets sharing one demux;
- :mod:`repro.vantage.campaign` — :class:`FleetCampaign`, which runs
  the Sec. 3 paired-trace protocol (or any strategy factory) from
  every vantage concurrently on one
  :class:`repro.engine.scheduler.ProbeScheduler`, producing a
  per-vantage :class:`FleetResult`;
- :mod:`repro.vantage.sharding` — sharded execution on seeded topology
  replicas (inline or worker processes) with deterministic merging,
  through :func:`repro.vantage.sharding.run_sharded`, the one
  supervised shard executor.

Cross-vantage analysis (union graphs, side-by-side anomaly tables,
coverage) lives in :mod:`repro.core.fleetview`.
"""

from repro.vantage.campaign import (
    FleetCampaign,
    FleetConfig,
    FleetResult,
    VantageOutcome,
)
from repro.vantage.demux import ReplyDemux, VantageSocket
from repro.vantage.fleet import VantageFleet
from repro.vantage.sharding import (
    FleetShardTask,
    materialize_shard,
    mda_lite_strategy_builder,
    mda_strategy_builder,
    plan_shards,
    run_fleet,
    run_fleet_sharded,
    run_shard,
)

__all__ = [
    "FleetCampaign",
    "FleetConfig",
    "FleetResult",
    "FleetShardTask",
    "ReplyDemux",
    "VantageFleet",
    "VantageOutcome",
    "VantageSocket",
    "materialize_shard",
    "mda_lite_strategy_builder",
    "mda_strategy_builder",
    "plan_shards",
    "run_fleet",
    "run_fleet_sharded",
    "run_shard",
]

"""Multipath detection with a statistical stopping rule.

The paper's Sec. 6 proposes "algorithms to automatically find all
interfaces of a given load balancer".  The line of work that followed
(the Multipath Detection Algorithm of Veitch, Augustin, Friedman and
Teixeira) formalized it; the rule itself — and the sans-I/O strategies
implementing it — live in :mod:`repro.probing.mda`, whose
``probes_needed``, ``HopDiscovery`` and ``MultipathResult`` are
re-exported here for backward compatibility.

:class:`MultipathDetector` runs those strategies against the
simulator's balancers (including widths up to Juniper's sixteen) on
either measurement substrate:

- ``engine="sequential"`` (default) — the stop-and-wait regime: one
  probe in flight, hop after hop, exactly the published per-hop MDA;
- ``engine="pipelined"`` — the event engine: ``hop_concurrency`` hops
  under enumeration at once, each with up to ``window`` flows in
  flight, discovering identical interface sets in a fraction of the
  simulated time.

``algorithm`` selects the stopping rule: ``"exact"`` (default) or
``"lite"`` for MDA-Lite's census-scale budget
(:mod:`repro.probing.mdalite`).  ``method="mda-lite"`` is accepted as
shorthand for UDP probing under the lite rule, so every catalogued
``--method`` surface gains MDA-Lite for free.
"""

from __future__ import annotations

from repro.errors import TracerError
from repro.net.inet import IPv4Address
from repro.probing.executor import run_strategy
from repro.probing.mda import (
    HopDiscovery,
    MdaHopStrategy,
    MdaStrategy,
    MultipathResult,
    probes_needed,
)
from repro.probing.mdalite import MdaLiteHopStrategy, MdaLiteStrategy
from repro.probing.strategy import ProbeStrategy
from repro.sim.socketapi import ProbeSocket
from repro.tracer.paris import ParisTraceroute

__all__ = [
    "HopDiscovery",
    "MultipathDetector",
    "MultipathResult",
    "probes_needed",
]

#: Per-hop in-flight window under the pipelined engine.
DEFAULT_MDA_WINDOW = 8

#: Hops enumerated concurrently under the pipelined engine.
DEFAULT_HOP_CONCURRENCY = 8


class MultipathDetector:
    """Hop-by-hop interface enumeration with the MDA stopping rule."""

    def __init__(
        self,
        socket: ProbeSocket,
        method: str = "udp",
        alpha: float = 0.05,
        max_flows_per_hop: int = 128,
        seed: int = 0,
        engine: str = "sequential",
        window: int = DEFAULT_MDA_WINDOW,
        hop_concurrency: int = DEFAULT_HOP_CONCURRENCY,
        algorithm: str = "exact",
        scout_flows: int = 3,
        disambiguation: str = "auto",
    ) -> None:
        if not 0 < alpha < 1:
            raise TracerError("alpha must be in (0, 1)")
        if engine not in ("sequential", "pipelined"):
            raise TracerError(
                f"engine must be 'sequential' or 'pipelined', "
                f"not {engine!r}"
            )
        if window < 1:
            raise TracerError(f"window must be at least 1, got {window}")
        if hop_concurrency < 1:
            raise TracerError(
                f"hop_concurrency must be at least 1, got {hop_concurrency}"
            )
        if method == "mda-lite":
            # Shorthand: UDP probing under the lite stopping rule.
            method, algorithm = "udp", "lite"
        if algorithm not in ("exact", "lite"):
            raise TracerError(
                f"algorithm must be 'exact' or 'lite', not {algorithm!r}")
        self.socket = socket
        self.alpha = alpha
        self.max_flows_per_hop = max_flows_per_hop
        self.engine = engine
        self.window = window
        self.hop_concurrency = hop_concurrency
        self.algorithm = algorithm
        self.scout_flows = scout_flows
        self.disambiguation = disambiguation
        self._paris = ParisTraceroute(socket, method=method, seed=seed)
        self._event_socket = None

    # -- strategy plumbing ----------------------------------------------
    def _flow_builders(self, destination: IPv4Address):
        """flow index -> fresh Paris builder pinning that flow."""
        return lambda flow_index: self._paris.make_builder(
            destination, flow_index=flow_index)

    def _run(self, strategy: ProbeStrategy):
        """Drive ``strategy`` on the configured engine.

        Either way the caller's socket counters account for every probe:
        the pipelined path sends through one long-lived async socket and
        mirrors its per-run deltas onto the blocking socket, so probing
        cost reads the same across engines.
        """
        if self.engine == "pipelined":
            from repro.engine.asyncsocket import AsyncProbeSocket
            from repro.engine.scheduler import ProbeScheduler, StrategySpec

            if self._event_socket is None:
                self._event_socket = AsyncProbeSocket(
                    self.socket.network, self.socket.host,
                    timeout=self.socket.timeout)
            sent_before = self._event_socket.probes_sent
            received_before = self._event_socket.responses_received
            scheduler = ProbeScheduler(self.socket.network, self.socket.host,
                                       socket=self._event_socket,
                                       timeout=self.socket.timeout)
            scheduler.add_lane([StrategySpec(lambda __: strategy)])
            result = scheduler.run()[0].result
            self.socket.probes_sent += (
                self._event_socket.probes_sent - sent_before)
            self.socket.responses_received += (
                self._event_socket.responses_received - received_before)
            return result
        return run_strategy(self.socket, strategy)

    # -- the published algorithm ----------------------------------------
    def probe_hop(self, destination: IPv4Address, ttl: int) -> HopDiscovery:
        """Enumerate interfaces at one hop until the rule says stop."""
        destination = IPv4Address(destination)
        window = self.window if self.engine == "pipelined" else 1
        if self.algorithm == "lite":
            strategy = MdaLiteHopStrategy(
                make_builder=self._flow_builders(destination),
                ttl=ttl,
                alpha=self.alpha,
                max_flows_per_hop=self.max_flows_per_hop,
                window=window,
                scout_flows=self.scout_flows,
            )
        else:
            strategy = MdaHopStrategy(
                make_builder=self._flow_builders(destination),
                ttl=ttl,
                alpha=self.alpha,
                max_flows_per_hop=self.max_flows_per_hop,
                window=window,
            )
        return self._run(strategy)

    def trace(self, destination: IPv4Address | str,
              max_ttl: int = 30) -> MultipathResult:
        """Full multipath trace: MDA at every hop until the destination.

        Stops extending when a hop discovers the destination itself or
        yields nothing at all (beyond-the-end silence).  Under the
        pipelined engine, up to ``hop_concurrency`` hops enumerate
        concurrently; the interface sets are identical to the
        sequential detector's on deterministic topologies.
        """
        destination = IPv4Address(destination)
        pipelined = self.engine == "pipelined"
        kwargs = dict(
            make_builder=self._flow_builders(destination),
            destination=destination,
            alpha=self.alpha,
            max_flows_per_hop=self.max_flows_per_hop,
            max_ttl=max_ttl,
            window=self.window if pipelined else 1,
            hop_concurrency=self.hop_concurrency if pipelined else 1,
            started_at=self.socket.network.clock.now,
            disambiguation=self.disambiguation,
        )
        if self.algorithm == "lite":
            strategy = MdaLiteStrategy(scout_flows=self.scout_flows,
                                       **kwargs)
        else:
            strategy = MdaStrategy(**kwargs)
        return self._run(strategy)

"""The delivery-path fault plane: jitter, spikes, and duplication.

Router-level faults (:class:`repro.sim.faults.FaultProfile`) decide
whether a response is *generated*; the fault plane decides what the
network does to it *in flight*.  A :class:`DeliveryFaultPlane` attached
to :attr:`repro.sim.network.Network.fault_plane` post-processes every
walk's deliveries:

- **jitter** — each delivery gains a uniform extra delay in
  ``[0, jitter)`` seconds.  Under the pipelined engine's windows this
  scrambles arrival order (a TTL-5 response regularly lands before the
  TTL-3 one); under the stop-and-wait engine it merely stretches RTTs.
- **spikes** — with probability ``spike_rate`` a delivery is held for
  ``spike_delay`` extra seconds, long enough to cross the paper's
  2-second wait: the response exists, the tracer prints a star.  This
  is the heavy tail real reordering studies observe (Viger et al.).
- **duplication** — with probability ``duplication`` a delivery is
  cloned, the copy trailing by ``duplication_lag`` seconds (plus the
  copy's own jitter), modelling duplicating middleboxes and retransmit
  bugs.  Engines must claim exactly one copy per probe.

Every draw comes from a *per-recipient* stream seeded by
``(seed, recipient address)`` and consumed in that recipient's own
delivery order.  A vantage point's fault timeline is therefore a pure
function of its own traffic — the property that keeps sharded fleet
campaigns byte-identical to single-process ones
(:mod:`repro.vantage.sharding`) even with the plane installed.

``sources`` restricts the plane to deliveries whose packets were
*sent* by one of the given addresses — the per-router attachment:
resolve a router's interface addresses and only its responses get
jittered or duplicated.  None means network-wide.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from repro.net.inet import IPv4Address
from repro.sim.network import Delivery, WalkResult


class DeliveryFaultPlane:
    """Seeded, composable in-flight faults over a walk's deliveries."""

    def __init__(
        self,
        seed: int = 0,
        jitter: float = 0.0,
        spike_rate: float = 0.0,
        spike_delay: float = 2.5,
        duplication: float = 0.0,
        duplication_lag: float = 0.002,
        sources: Optional[Iterable[IPv4Address]] = None,
    ) -> None:
        if jitter < 0.0:
            raise ValueError(f"jitter must be >= 0: {jitter}")
        if not 0.0 <= spike_rate <= 1.0:
            raise ValueError(f"spike_rate must be in [0,1]: {spike_rate}")
        if spike_delay < 0.0:
            raise ValueError(f"spike_delay must be >= 0: {spike_delay}")
        if not 0.0 <= duplication <= 1.0:
            raise ValueError(f"duplication must be in [0,1]: {duplication}")
        if duplication_lag <= 0.0:
            raise ValueError(
                f"duplication_lag must be positive: {duplication_lag}"
            )
        self.seed = seed
        self.jitter = jitter
        self.spike_rate = spike_rate
        self.spike_delay = spike_delay
        self.duplication = duplication
        self.duplication_lag = duplication_lag
        self.sources = (None if sources is None
                        else frozenset(IPv4Address(a) for a in sources))
        self._streams: dict[IPv4Address, random.Random] = {}
        #: Diagnostics: how many deliveries were delayed / duplicated.
        self.delayed = 0
        self.duplicated = 0
        # Per-recipient (jitter, spike, duplicate) counter children,
        # bound when the plane first sees a recipient and keyed on the
        # registry identity so a replaced registry rebinds.
        self._m_registry = None
        self._m_family = None
        self._m_children: dict[IPv4Address, tuple] = {}

    def _stream(self, recipient: IPv4Address) -> random.Random:
        """The recipient's private draw stream (stable across processes:
        string seeding hashes via SHA-512, never the salted builtin)."""
        stream = self._streams.get(recipient)
        if stream is None:
            stream = random.Random(f"{self.seed}:{recipient}")
            self._streams[recipient] = stream
        return stream

    def applies_to(self, delivery: Delivery) -> bool:
        """Scope check: is this delivery's sender under the plane?"""
        return self.sources is None or delivery.packet.src in self.sources

    def apply(self, result: WalkResult, metrics=None) -> None:
        """Mutate a walk's deliveries in place.

        Draw order per delivery is fixed (jitter, spike, duplication —
        each drawn whenever its feature is enabled), so a recipient's
        stream consumption is a pure function of its own delivery
        sequence and the plane's configuration.  ``metrics`` is the
        network's registry (or None): each fault action increments a
        per-recipient counter, which stays deterministic across shard
        compositions because the draws themselves are per-recipient.
        """
        bound = None
        if metrics is not None and metrics.enabled:
            if self._m_registry is not metrics:
                self._m_registry = metrics
                self._m_family = metrics.counter(
                    "repro_fault_delivery_total",
                    "In-flight delivery faults applied, per client and kind.",
                    ("client", "action"))
                self._m_children = {}
            bound = self._m_children
        copies: list[Delivery] = []
        for delivery in result.deliveries:
            if not self.applies_to(delivery):
                continue
            recipient = delivery.packet.dst
            rng = self._stream(recipient)
            trio = None
            if bound is not None:
                trio = bound.get(recipient)
                if trio is None:
                    # All three series, zero-valued ones included, for
                    # every recipient that traverses the plane.
                    trio = bound[recipient] = tuple(
                        self._m_family.labels(str(recipient), action)
                        for action in ("jitter", "spike", "duplicate"))
            extra = 0.0
            if self.jitter > 0.0:
                extra += rng.random() * self.jitter
                if trio is not None:
                    trio[0].inc()
            if self.spike_rate > 0.0 and rng.random() < self.spike_rate:
                extra += self.spike_delay
                if trio is not None:
                    trio[1].inc()
            if extra > 0.0:
                delivery.elapsed += extra
                self.delayed += 1
            if self.duplication > 0.0 and rng.random() < self.duplication:
                lag = self.duplication_lag
                if self.jitter > 0.0:
                    lag += rng.random() * self.jitter
                copies.append(Delivery(
                    node=delivery.node,
                    packet=delivery.packet,
                    elapsed=delivery.elapsed + lag,
                ))
                self.duplicated += 1
                if trio is not None:
                    trio[2].inc()
        result.deliveries.extend(copies)

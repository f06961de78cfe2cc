"""Router misbehaviour profiles.

Each non-load-balancing anomaly cause in the paper traces back to a
concrete router behaviour.  :class:`FaultProfile` bundles them so a
topology can mark any router with the quirks it should exhibit:

- ``silent`` — never answers probes (appears as ``*`` in traceroute;
  routers B and C in the paper's Fig. 1 behave this way).
- ``zero_ttl_forwarding`` — the Fig. 4 bug: forwards packets whose TTL
  reached zero instead of dropping them, so the *next* router answers
  with a quoted probe TTL of 0.
- ``fake_source_address`` — responds from an address that is not one of
  its interfaces (bogus/private), one of the suspected causes of
  residual cycles.
- ``response_loss_rate`` — fraction of generated responses that are
  lost, modelling rate limiting and transit loss (mid-route stars).
- ``icmp_rate_limit`` / ``icmp_burst`` / ``icmp_exhausted`` — a token
  bucket on ICMP generation: ``icmp_burst`` responses can go out back
  to back, then the bucket refills at ``icmp_rate_limit`` per second.
  An exhausted bucket either drops the response (``"drop"``, the
  Cisco/Linux behaviour — bursty silence) or defers its generation to
  the next token accrual (``"defer"`` — paced generation, the response
  arrives late but arrives).
- ``loss_burst_start`` / ``loss_burst_length`` — correlated response
  loss (a two-state Gilbert-Elliott channel): each answered probe may
  open a loss burst that then swallows a geometric run of subsequent
  responses, the signature of congested return paths.

The paper's "unreachability message" loops (a router that answers the
TTL-1 probe normally but deeper probes with Destination Unreachable,
Sec. 4.1.1) are *not* a fault flag: they are the normal behaviour of a
router holding a null route, modelled by
:meth:`repro.sim.router.Router.add_unreachable_route` or by dynamics
removing a route mid-campaign.  ``unreachable_code`` below only selects
the code used when a router has no matching table entry at all.

Determinism: the token bucket and the burst-loss channel keep their
state *per probing client* (the source address soliciting the
response), exactly like :meth:`repro.sim.node.Node.next_ip_id` keeps
IP-ID streams per recipient.  One vantage point's probing therefore
never perturbs the fault timeline another vantage observes, which is
what keeps sharded fleet campaigns byte-identical to single-process
ones even with these faults enabled (see :mod:`repro.vantage.sharding`).
The plain ``response_loss_rate`` draw keeps its original single shared
stream for backward compatibility with existing seeded topologies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.net.icmp import UnreachableCode
from repro.net.inet import IPv4Address

#: Token-bucket exhaustion behaviours.
ICMP_EXHAUSTED_MODES = ("drop", "defer")


@dataclass
class FaultProfile:
    """Behavioural quirks of one simulated router.

    The default profile is a fully well-behaved router.  Profiles are
    mutable configuration, not state: the random stream for response
    loss lives here so that each router misbehaves independently but
    reproducibly under a seed.
    """

    silent: bool = False
    zero_ttl_forwarding: bool = False
    unreachable_code: UnreachableCode = UnreachableCode.HOST_UNREACHABLE
    fake_source_address: IPv4Address | None = None
    response_loss_rate: float = 0.0
    loss_seed: int = 0
    #: ICMP token-bucket refill rate, responses per second.  0 disables
    #: the limit.  Real routers rate-limit ICMP generation, which is a
    #: major source of mid-route stars when several traceroutes transit
    #: one box closely in time.
    icmp_rate_limit: float = 0.0
    #: Token-bucket capacity: how many responses a cold router answers
    #: back to back before the limiter bites.  The default of 1
    #: reproduces the strict one-per-interval limiter.
    icmp_burst: int = 1
    #: What an exhausted bucket does: ``"drop"`` the response (silence,
    #: the common real-world behaviour) or ``"defer"`` its generation
    #: until the next token accrues (paced generation — the response
    #: arrives late, stretching the observed RTT).
    icmp_exhausted: str = "drop"
    #: Probability that an emitted response *opens* a correlated loss
    #: burst (evaluated per response while the channel is in its good
    #: state).  0 disables burst loss.
    loss_burst_start: float = 0.0
    #: Mean number of consecutive responses swallowed by one burst
    #: (geometric; the channel exits the bad state with probability
    #: ``1 / loss_burst_length`` per response).
    loss_burst_length: float = 4.0
    #: Extra seed mixed into the per-client burst-loss streams (the
    #: fault installer derives it from the profile seed and router
    #: name so no two routers share a burst calendar).
    burst_seed: int = 0
    _loss_rng: random.Random = field(init=False, repr=False, default=None)
    #: Per-client token bucket: client -> (tokens, last refill time).
    _buckets: dict = field(init=False, repr=False, default_factory=dict)
    #: Per-client burst-loss channel state: client -> in-burst flag.
    _burst_state: dict = field(init=False, repr=False, default_factory=dict)
    #: Per-client burst-loss RNG streams.
    _burst_rngs: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.fake_source_address is not None:
            # Responses carry it unvalidated (see Packet.reply), so a
            # dotted-quad string becomes an address here.
            self.fake_source_address = IPv4Address(self.fake_source_address)
        if not 0.0 <= self.response_loss_rate <= 1.0:
            raise ValueError(
                f"response_loss_rate must be in [0,1]: {self.response_loss_rate}"
            )
        if self.icmp_rate_limit < 0.0:
            raise ValueError(
                f"icmp_rate_limit must be >= 0: {self.icmp_rate_limit}"
            )
        if self.icmp_burst < 1:
            raise ValueError(f"icmp_burst must be >= 1: {self.icmp_burst}")
        if self.icmp_exhausted not in ICMP_EXHAUSTED_MODES:
            raise ValueError(
                f"icmp_exhausted must be one of {ICMP_EXHAUSTED_MODES}: "
                f"{self.icmp_exhausted!r}"
            )
        if not 0.0 <= self.loss_burst_start <= 1.0:
            raise ValueError(
                f"loss_burst_start must be in [0,1]: {self.loss_burst_start}"
            )
        if self.loss_burst_length < 1.0:
            raise ValueError(
                f"loss_burst_length must be >= 1: {self.loss_burst_length}"
            )
        self._loss_rng = random.Random(self.loss_seed)

    # ------------------------------------------------------------------
    # response loss (independent + correlated)
    # ------------------------------------------------------------------
    def response_is_lost(self, client: IPv4Address | None = None) -> bool:
        """Draw one loss decision for a generated response.

        The independent ``response_loss_rate`` draw comes first, from
        the profile's single shared stream (unchanged draw order for
        existing seeded topologies).  The correlated burst channel then
        gets its say, from a per-``client`` stream so each probing
        client rides its own burst calendar.
        """
        if self.response_loss_rate > 0.0:
            if self._loss_rng.random() < self.response_loss_rate:
                return True
        if self.loss_burst_start <= 0.0:
            return False
        rng = self._burst_rngs.get(client)
        if rng is None:
            rng = random.Random(f"{self.loss_seed}:{self.burst_seed}"
                                f":burst:{client}")
            self._burst_rngs[client] = rng
        if self._burst_state.get(client, False):
            # In a burst: this response is lost; geometric exit draw.
            if rng.random() < 1.0 / self.loss_burst_length:
                self._burst_state[client] = False
            return True
        if rng.random() < self.loss_burst_start:
            self._burst_state[client] = True
            return True
        return False

    # ------------------------------------------------------------------
    # ICMP rate limiting (token bucket)
    # ------------------------------------------------------------------
    def response_delay_at(self, now: float,
                          client: IPv4Address | None = None) -> float | None:
        """Token-bucket gate: may the router answer ``client`` at ``now``?

        Returns 0.0 when a token is available (answer immediately), a
        positive delay when the bucket is exhausted and the profile
        defers generation (the response leaves once the next token has
        accrued), or None when the exhausted bucket drops the response
        outright — a star.

        The campaign driver interleaves worker timelines by seeking the
        clock, so ``now`` may move backwards between calls; elapsed
        time is clamped at zero to keep the bucket deterministic under
        any visiting order.
        """
        if self.icmp_rate_limit <= 0.0:
            return 0.0
        tokens, last = self._buckets.get(client, (float(self.icmp_burst), now))
        elapsed = max(0.0, now - last)
        tokens = min(float(self.icmp_burst),
                     tokens + elapsed * self.icmp_rate_limit)
        refreshed = max(last, now)
        if tokens >= 1.0:
            self._buckets[client] = (tokens - 1.0, refreshed)
            return 0.0
        if self.icmp_exhausted == "drop":
            self._buckets[client] = (tokens, refreshed)
            return None
        # Defer: the response is generated the instant the bucket
        # accrues one full token, which that generation then spends.
        # ``refreshed`` may already sit in the future (earlier deferred
        # grants), so the delay is measured back to the caller's now.
        ready_at = refreshed + (1.0 - tokens) / self.icmp_rate_limit
        self._buckets[client] = (0.0, ready_at)
        return ready_at - now

    @property
    def well_behaved(self) -> bool:
        """True when no quirk is enabled."""
        return not (
            self.silent
            or self.zero_ttl_forwarding
            or self.fake_source_address is not None
            or self.response_loss_rate > 0.0
            or self.icmp_rate_limit > 0.0
            or self.loss_burst_start > 0.0
        )

"""Routers: TTL handling, ICMP generation, and load-balanced forwarding.

The behaviours the paper depends on are all here:

- TTL expiry produces a Time Exceeded quoting the probe *as received*,
  so the quoted "probe TTL" is 1 in normal operation and 0 downstream
  of a zero-TTL-forwarding router (Fig. 4);
- a router whose onward forwarding is broken answers TTL-1 probes
  normally but deeper probes with Destination Unreachable — the paper's
  "unreachability message" loops (Sec. 4.1.1);
- a route entry may list several equal-cost egress interfaces governed
  by a :class:`repro.sim.balancer.BalancerPolicy` — this is the load
  balancer ``L`` of Figs. 1, 3, and 6;
- dynamics can install timed overrides on the table (route changes and
  transient forwarding loops, Sec. 4.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import TopologyError
from repro.net.icmp import (
    ICMPDestinationUnreachable,
    ICMPTimeExceeded,
    UnreachableCode,
)
from repro.net.inet import IPv4Address, Prefix
from repro.net.packet import Packet
from repro.sim.balancer import BalancerPolicy
from repro.sim.node import Action, Drop, Interface, Node, Transmit

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.sim.network import Network


@dataclass
class RouteEntry:
    """One forwarding-table entry.

    ``egresses`` lists this router's own interfaces toward the next
    hops.  More than one egress makes this entry load-balanced and
    requires a ``balancer`` policy.

    An entry with ``unreachable=True`` is a null route: packets matching
    it draw a Destination Unreachable with ``unreachable_code``.  This
    models the paper's "router unable to forward probes" scenario — the
    TTL-1 probe is still answered normally (TTL handling precedes the
    lookup), so classic traceroute sees the same address twice, flagged
    ``!H``/``!N`` on the second appearance.
    """

    prefix: Prefix
    egresses: list[Interface]
    balancer: Optional[BalancerPolicy] = None
    unreachable: bool = False
    unreachable_code: UnreachableCode = UnreachableCode.HOST_UNREACHABLE

    def __post_init__(self) -> None:
        if self.unreachable:
            if self.egresses:
                raise TopologyError("an unreachable route cannot have egresses")
            return
        if not self.egresses:
            raise TopologyError(f"route {self.prefix} has no egress")
        if len(self.egresses) > 1 and self.balancer is None:
            raise TopologyError(
                f"route {self.prefix} has {len(self.egresses)} egresses "
                "but no balancer policy"
            )

    def choose_egress(self, packet: Packet) -> Interface:
        """Pick the egress interface for ``packet``."""
        if self.unreachable:
            raise TopologyError("unreachable route has no egress to choose")
        if len(self.egresses) == 1:
            return self.egresses[0]
        index = self.balancer.choose(packet, len(self.egresses))
        return self.egresses[index]


#: ``value & _MASKS[length]`` is the network part of ``value/length``.
_MASKS = tuple(((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF) if length
               else 0 for length in range(33))


class _FibNode:
    """One node of a router's binary FIB trie.

    ``entry`` is the table entry whose prefix ends exactly here (None on
    pass-through nodes); ``zero``/``one`` are the children by next bit.
    """

    __slots__ = ("zero", "one", "entry")

    def __init__(self) -> None:
        self.zero: Optional["_FibNode"] = None
        self.one: Optional["_FibNode"] = None
        self.entry: Optional[RouteEntry] = None


@dataclass
class TimedOverride:
    """A forwarding override active during ``[start, end)``.

    Used by the dynamics engine for route changes (``end`` = infinity)
    and transient forwarding loops (finite window).
    """

    prefix: Prefix
    entry: RouteEntry
    start: float
    end: float = float("inf")

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


class Router(Node):
    """A forwarding node with a longest-prefix-match table."""

    def __init__(self, name: str, **node_kwargs) -> None:
        super().__init__(name, **node_kwargs)
        self._table: list[RouteEntry] = []
        self._overrides: list[TimedOverride] = []
        # Destination -> (entry, covering prefix) memo for
        # lookup_cached(); invalidated on any table or override change,
        # bypassed while overrides exist.
        self._lookup_cache: dict[
            IPv4Address, tuple[Optional[RouteEntry], Prefix]] = {}
        # Lazily built binary trie over the static table, plus the
        # covering-prefix index it feeds: (length, network int) ->
        # memoised (entry, prefix) pair.  Covering prefixes are
        # *disjoint* by construction (see _fib_lookup), so at most one
        # length in _aggregate_lengths can match a destination.
        self._fib_root: Optional[_FibNode] = None
        self._aggregate: dict[
            tuple[int, int], tuple[Optional[RouteEntry], Prefix]] = {}
        self._aggregate_lengths: list[int] = []
        #: Full longest-prefix-match resolutions performed (linear table
        #: scans and FIB-trie walks alike; memo and covering-prefix hits
        #: are free and not counted).  The walk-batching benchmarks key
        #: off this counter.
        self.lookup_count = 0
        # Bound rate-limit counter children per (client, action), keyed
        # on the registry identity so a replaced registry rebinds — the
        # token bucket fires per expiring probe, too hot for family
        # lookups.
        self._rl_registry = None
        self._rl_children: dict = {}

    def reset_counters(self) -> None:
        """Zero the LPM resolution counter (memos stay warm).

        Part of the explicit :meth:`repro.sim.network.Network.reset_counters`
        path benches use between legs instead of relying on fresh
        network construction.
        """
        self.lookup_count = 0

    def _invalidate_lookup_state(self) -> None:
        """Drop every memo derived from the table / override set."""
        self._lookup_cache.clear()
        self._fib_root = None
        self._aggregate.clear()
        self._aggregate_lengths.clear()

    # ------------------------------------------------------------------
    # table management
    # ------------------------------------------------------------------
    def add_route(
        self,
        prefix: Prefix | str,
        egresses: Interface | list[Interface],
        balancer: BalancerPolicy | None = None,
    ) -> RouteEntry:
        """Install a static route; keeps the table sorted by specificity."""
        if isinstance(egresses, Interface):
            egresses = [egresses]
        entry = RouteEntry(
            prefix=prefix if isinstance(prefix, Prefix) else Prefix(prefix),
            egresses=list(egresses),
            balancer=balancer,
        )
        for iface in entry.egresses:
            if iface.node is not self:
                raise TopologyError(
                    f"egress {iface.label} does not belong to router {self.name}"
                )
        self._table.append(entry)
        self._table.sort(key=lambda e: e.prefix.length, reverse=True)
        self._invalidate_lookup_state()
        return entry

    def add_default_route(
        self,
        egresses: Interface | list[Interface],
        balancer: BalancerPolicy | None = None,
    ) -> RouteEntry:
        """Install the 0.0.0.0/0 route (the "up toward provider" path)."""
        return self.add_route(Prefix("0.0.0.0/0"), egresses, balancer)

    def replace_route(
        self,
        prefix: Prefix | str,
        egresses: Interface | list[Interface],
        balancer: BalancerPolicy | None = None,
    ) -> RouteEntry:
        """Drop any entry for exactly ``prefix`` and install a new one."""
        target = prefix if isinstance(prefix, Prefix) else Prefix(prefix)
        self._table = [e for e in self._table if e.prefix != target]
        self._invalidate_lookup_state()
        return self.add_route(target, egresses, balancer)

    def add_unreachable_route(
        self,
        prefix: Prefix | str,
        code: UnreachableCode = UnreachableCode.HOST_UNREACHABLE,
    ) -> RouteEntry:
        """Install a null route: matching packets draw Dest Unreachable."""
        entry = RouteEntry(
            prefix=prefix if isinstance(prefix, Prefix) else Prefix(prefix),
            egresses=[],
            unreachable=True,
            unreachable_code=code,
        )
        self._table.append(entry)
        self._table.sort(key=lambda e: e.prefix.length, reverse=True)
        self._invalidate_lookup_state()
        return entry

    def add_override(self, override: TimedOverride) -> None:
        """Register a timed forwarding override (dynamics hook)."""
        self._overrides.append(override)
        self._invalidate_lookup_state()

    def clear_overrides(self) -> None:
        """Remove all dynamics overrides (used between campaign runs)."""
        self._overrides.clear()
        self._invalidate_lookup_state()

    @property
    def table(self) -> list[RouteEntry]:
        """The static table, most-specific first (read-only view)."""
        return list(self._table)

    def lookup_cached(
        self, dst: IPv4Address, now: float,
    ) -> tuple[Optional[RouteEntry], Optional[Prefix]]:
        """Memoised lookup returning ``(entry, covering prefix)``.

        The covering prefix is the forwarding-equivalence region around
        ``dst``: every destination inside it resolves to the same entry,
        so the cohort walker can group probes toward *different*
        destinations behind one resolution.  A new destination first
        consults the covering-prefix index — a hit costs one dict probe
        per distinct cached prefix length and performs no LPM at all —
        and only then walks the FIB trie, registering the region it
        discovers.

        Memos are dropped whenever the table or the override set
        changes, and skipped entirely while overrides are installed
        (their activation depends on ``now``, not on table state).
        """
        if self._overrides:
            return self.lookup(dst, now), None
        pair = self._lookup_cache.get(dst)
        if pair is not None:
            return pair
        value = int(dst)
        for length in self._aggregate_lengths:
            pair = self._aggregate.get((length, value & _MASKS[length]))
            if pair is not None:
                self._lookup_cache[dst] = pair
                return pair
        pair = self._fib_lookup(dst)
        prefix = pair[1]
        self._aggregate[(prefix.length, int(prefix.network))] = pair
        if prefix.length not in self._aggregate_lengths:
            self._aggregate_lengths.append(prefix.length)
        self._lookup_cache[dst] = pair
        return pair

    def _fib_lookup(
        self, dst: IPv4Address
    ) -> tuple[Optional[RouteEntry], Prefix]:
        """One FIB-trie walk: the LPM entry and its covering prefix.

        The walk follows ``dst``'s bits until the trie has no child for
        the next bit (depth ``d``); the deepest entry passed on the way
        is the longest-prefix match — identical to what the linear scan
        of :meth:`lookup` returns on an override-free router.  The
        covering prefix is ``dst/(d+1)``: any address sharing those
        bits walks the same trie path to the same dead end, so it
        resolves to the same entry.  Two covering prefixes discovered
        this way can never partially overlap (containment would force
        the contained walk to stop at the container's dead end), which
        is what lets the covering-prefix index probe each cached length
        independently.
        """
        self.lookup_count += 1
        root = self._fib_root
        if root is None:
            root = self._build_fib()
        value = int(dst)
        node = root
        best = root.entry
        depth = 0
        while depth < 32:
            child = node.one if (value >> (31 - depth)) & 1 else node.zero
            if child is None:
                break
            node = child
            depth += 1
            if node.entry is not None:
                best = node.entry
        length = depth + 1 if depth < 32 else 32
        prefix = Prefix((IPv4Address(value & _MASKS[length]), length))
        return best, prefix

    def _build_fib(self) -> _FibNode:
        """Materialise the binary trie over the static table.

        Entries are inserted in table order (most-specific first,
        insertion-stable within a length), and the first entry to claim
        a trie node keeps it — the same winner the linear scan picks
        when a prefix appears twice.
        """
        root = _FibNode()
        for entry in self._table:
            node = root
            value = int(entry.prefix.network)
            for depth in range(entry.prefix.length):
                if (value >> (31 - depth)) & 1:
                    child = node.one
                    if child is None:
                        child = node.one = _FibNode()
                else:
                    child = node.zero
                    if child is None:
                        child = node.zero = _FibNode()
                node = child
            if node.entry is None:
                node.entry = entry
        self._fib_root = root
        return root

    def lookup(self, dst: IPv4Address, now: float) -> Optional[RouteEntry]:
        """Longest-prefix-match lookup, with active overrides first.

        Among active overrides, a more recent ``start`` wins at equal
        prefix length, so a route change fully shadows what it replaced.
        Returns None when no entry matches.
        """
        self.lookup_count += 1
        candidates: list[tuple[int, float, RouteEntry]] = []
        for override in self._overrides:
            if override.active(now) and override.prefix.contains(dst):
                candidates.append(
                    (override.prefix.length, override.start, override.entry)
                )
        if candidates:
            candidates.sort(key=lambda c: (c[0], c[1]), reverse=True)
            return candidates[0][2]
        for entry in self._table:
            if entry.prefix.contains(dst):
                return entry
        return None

    # ------------------------------------------------------------------
    # packet processing
    # ------------------------------------------------------------------
    def receive(
        self,
        packet: Packet,
        in_interface: Interface | None,
        network: "Network",
    ) -> list[Action]:
        """Forward, answer, or discard an arriving packet."""
        if packet.dst in self.addresses:
            return self.local_deliver(packet, in_interface)

        is_icmp_error = isinstance(
            packet.transport, (ICMPTimeExceeded, ICMPDestinationUnreachable)
        )

        # --- TTL handling -------------------------------------------------
        if packet.ttl == 0:
            # Arrived already expired: only possible downstream of a
            # zero-TTL-forwarding router.  Answer with a Time Exceeded
            # quoting TTL 0 — the Fig. 4 signature.
            if is_icmp_error or self.faults.silent:
                return [Drop(self, packet, "ttl 0, no response")]
            return self._rate_limited_time_exceeded(packet, in_interface,
                                                    network)
        if packet.ttl == 1 and not self.faults.zero_ttl_forwarding:
            if is_icmp_error or self.faults.silent:
                return [Drop(self, packet, "ttl expired, no response")]
            return self._rate_limited_time_exceeded(packet, in_interface,
                                                    network)

        # --- route lookup -------------------------------------------------
        entry = self.lookup(packet.dst, network.clock.now)
        if entry is None or entry.unreachable:
            if is_icmp_error or self.faults.silent:
                return [Drop(self, packet, "no route, no response")]
            code = (
                entry.unreachable_code
                if entry is not None
                else self.faults.unreachable_code
            )
            response = self.make_unreachable(packet, in_interface, code)
            return self._emit_response(response, packet)

        # --- forward ------------------------------------------------------
        egress = entry.choose_egress(packet)
        forwarded = packet.decremented()
        return [Transmit(egress, forwarded)]

    def _rate_limited_time_exceeded(
        self,
        packet: Packet,
        in_interface: Interface | None,
        network: "Network",
    ) -> list[Action]:
        """Generate a Time Exceeded through the ICMP token bucket.

        The bucket is keyed by the probing client (the offending
        packet's source), so one vantage point's probe bursts never
        perturb the silence pattern another vantage observes.  An
        exhausted bucket either stars the hop (``"drop"``) or paces the
        response out at the next token accrual (``"defer"``).
        """
        delay = self.faults.response_delay_at(network.clock.now, packet.src)
        metrics = getattr(network, "metrics", None)
        if metrics is not None and metrics.enabled:
            action = ("drop" if delay is None
                      else "defer" if delay > 0.0 else "pass")
            if self._rl_registry is not metrics:
                self._rl_registry = metrics
                self._rl_children = {}
            key = (packet.src, action)
            child = self._rl_children.get(key)
            if child is None:
                child = self._rl_children[key] = metrics.counter(
                    "repro_fault_rate_limit_total",
                    "ICMP token-bucket outcomes per router and client.",
                    ("router", "client", "action"),
                ).labels(self.name, str(packet.src), action)
            child.inc()
        if delay is None:
            return [Drop(self, packet, "icmp rate limited")]
        response = self.make_time_exceeded(packet, in_interface)
        return self._emit_response(response, packet, delay=delay)

    def dispatch(self, packet: Packet, network: "Network") -> list[Action]:
        """Route a locally-generated packet (no TTL decrement here)."""
        entry = self.lookup(packet.dst, network.clock.now)
        if entry is None or entry.unreachable:
            return [Drop(self, packet, "no route for locally generated packet")]
        egress = entry.choose_egress(packet)
        return [Transmit(egress, packet)]

"""Label-aware metrics registry with a no-op fast path.

The registry hands out metric *families* (Counter, Gauge, Histogram);
a family plus a tuple of label values names one *series* (a child).
Children are cached per label tuple so hot paths bind them once and
pay only an attribute increment per event.  The children are the only
place a count lives: components bump them where the event happens,
:meth:`MetricsRegistry.snapshot` copies them, and
:meth:`MetricsRegistry.reset` zeroes them.

Two scopes, one determinism contract:

``SCOPE_CLIENT``
    Series keyed (among other labels) by the probing client.  A
    vantage point's timeline is a pure function of its own traffic, so
    client-scope series are identical whether the client ran alone in
    a shard or alongside the whole fleet.  Shards never share a
    client, so :meth:`MetricsSnapshot.merge` unions disjoint series —
    no float re-summation — and the merged snapshot is bit-for-bit
    equal to the single-process one.  That subset is what
    :meth:`MetricsSnapshot.deterministic_view` exposes and what the
    acceptance test compares.

``SCOPE_PROCESS``
    Advisory, execution-shaped series (transit-plane cache
    effectiveness, cohort sizes).  Which vantage warms a segment memo
    depends on cohort composition, so these legitimately differ
    between sharded and single-process runs.  They appear in both
    exposition formats but never in the deterministic view.

When metrics are off, components bind :data:`NULL_REGISTRY` instead:
its family getters return a shared no-op singleton whose ``inc`` /
``set`` / ``observe`` do nothing, so instrumented call sites stay
branch-free.
"""

from __future__ import annotations

import hashlib
import json
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

SCOPE_CLIENT = "client"
SCOPE_PROCESS = "process"
_SCOPES = (SCOPE_CLIENT, SCOPE_PROCESS)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bounds — tuned for simulated-seconds timings.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0)


class _NullChild:
    """Shared do-nothing series: the disabled-path fast object."""

    __slots__ = ()

    def inc(self, amount=1):
        """Discard the increment."""

    def set(self, value):
        """Discard the value."""

    def observe(self, value, count=1):
        """Discard the observation."""

    def labels(self, *values):
        """Return self so family and child call sites interchange."""
        return self


NULL_CHILD = _NullChild()


class _NullFamily(_NullChild):
    """Family returned by a disabled registry; ``labels`` -> no-op."""

    __slots__ = ()


NULL_FAMILY = _NullFamily()


class _CounterChild:
    """Monotonically increasing series."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        """Add ``amount`` (must be >= 0) to the series."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class _GaugeChild:
    """Set-to-current-value series."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value):
        """Replace the series value."""
        self.value = value

    def inc(self, amount=1):
        """Adjust the series by ``amount`` (may be negative)."""
        self.value += amount


class _HistogramChild:
    """Cumulative-bucket histogram series."""

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]):
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value, count=1):
        """Record ``count`` observations of ``value``.

        ``bisect_left`` finds the first bound >= value, i.e. the
        smallest cumulative ``le`` bucket containing it; past the last
        bound it lands on the +Inf slot.
        """
        self.bucket_counts[bisect_left(self.bounds, value)] += count
        self.sum += value * count
        self.count += count


class _Family:
    """One named metric family: kind + labels + cached children."""

    __slots__ = ("name", "help", "kind", "scope", "labelnames",
                 "buckets", "_children")

    def __init__(self, name, help_text, kind, scope, labelnames,
                 buckets=None):
        self.name = name
        self.help = help_text
        self.kind = kind
        self.scope = scope
        self.labelnames = labelnames
        self.buckets = buckets
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, *values):
        """Child for the given label values (cached per tuple)."""
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            if len(key) != len(self.labelnames):
                raise ValueError(
                    f"{self.name}: expected {len(self.labelnames)} label "
                    f"values {self.labelnames}, got {len(key)}")
            if self.kind == "counter":
                child = _CounterChild()
            elif self.kind == "gauge":
                child = _GaugeChild()
            else:
                child = _HistogramChild(self.buckets)
            self._children[key] = child
        return child

    def inc(self, amount=1):
        """Increment the label-less series (labelnames must be empty)."""
        self.labels().inc(amount)

    def set(self, value):
        """Set the label-less series (labelnames must be empty)."""
        self.labels().set(value)

    def observe(self, value, count=1):
        """Observe into the label-less series (labelnames empty)."""
        self.labels().observe(value, count)


@dataclass
class MetricsSnapshot:
    """Picklable, mergeable point-in-time copy of a registry.

    ``families`` maps metric name to a plain dict::

        {"kind": "counter" | "gauge" | "histogram",
         "help": str, "scope": "client" | "process",
         "labelnames": (str, ...),
         "buckets": (float, ...) | None,        # histograms only
         "series": {(label values...): value}}

    where a counter/gauge value is a number and a histogram value is
    ``{"bucket_counts": [...], "sum": float, "count": int}``.
    """

    families: Dict[str, dict] = field(default_factory=dict)

    @classmethod
    def merge(cls, parts: Iterable["MetricsSnapshot"]) -> "MetricsSnapshot":
        """Union series across shard snapshots.

        Client-scope series are disjoint across shards (each client
        lives in exactly one shard), so their union involves no
        arithmetic and is bit-for-bit reproducible.  Colliding series
        (process scope, or re-run shards) sum counters/gauges and add
        histogram buckets element-wise.
        """
        merged = cls()
        for part in parts:
            for name, fam in part.families.items():
                target = merged.families.get(name)
                if target is None:
                    merged.families[name] = {
                        "kind": fam["kind"],
                        "help": fam["help"],
                        "scope": fam["scope"],
                        "labelnames": tuple(fam["labelnames"]),
                        "buckets": fam.get("buckets"),
                        "series": {k: _copy_value(v)
                                   for k, v in fam["series"].items()},
                    }
                    continue
                if (target["kind"] != fam["kind"]
                        or tuple(target["labelnames"])
                        != tuple(fam["labelnames"])):
                    raise ValueError(
                        f"snapshot merge: family {name!r} redefined with a "
                        "different kind or label set")
                for key, value in fam["series"].items():
                    if key not in target["series"]:
                        target["series"][key] = _copy_value(value)
                    else:
                        target["series"][key] = _add_values(
                            target["series"][key], value,
                            target.get("buckets"))
        return merged

    def deterministic_view(self) -> dict:
        """Canonical JSON-ready dict of the client-scope families only.

        This is the structure the sharded-equals-single acceptance
        test compares: process-scope families are excluded because
        cache-warming order depends on cohort composition.
        """
        view = {}
        for name in sorted(self.families):
            fam = self.families[name]
            if fam["scope"] != SCOPE_CLIENT:
                continue
            view[name] = _family_to_json(fam)
        return view

    def deterministic_signature(self) -> str:
        """sha256 over the canonical client-scope view."""
        payload = json.dumps(self.deterministic_view(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def value(self, name: str, *label_values) -> object:
        """Convenience lookup of one series value (None when absent)."""
        fam = self.families.get(name)
        if fam is None:
            return None
        return fam["series"].get(tuple(str(v) for v in label_values))

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family across all its series."""
        fam = self.families.get(name)
        if fam is None:
            return 0
        return sum(fam["series"].values())


def _copy_value(value):
    if isinstance(value, dict):
        return {"bucket_counts": list(value["bucket_counts"]),
                "sum": value["sum"], "count": value["count"]}
    return value


def _add_values(left, right, buckets):
    if isinstance(left, dict):
        return {
            "bucket_counts": [a + b for a, b in
                              zip(left["bucket_counts"],
                                  right["bucket_counts"])],
            "sum": left["sum"] + right["sum"],
            "count": left["count"] + right["count"],
        }
    return left + right


def _family_to_json(fam: dict) -> dict:
    series = {}
    for key in sorted(fam["series"]):
        label = ",".join(f"{n}={v}"
                         for n, v in zip(fam["labelnames"], key))
        series[label] = fam["series"][key]
    out = {"kind": fam["kind"], "scope": fam["scope"],
           "labels": list(fam["labelnames"]), "series": series}
    if fam.get("buckets") is not None:
        out["buckets"] = list(fam["buckets"])
    return out


class MetricsRegistry:
    """Factory and store for metric families.

    ``MetricsRegistry(enabled=False)`` behaves exactly like no
    registry at all: every getter returns the shared no-op singleton
    and :meth:`snapshot` is empty.  That property is what lets the
    micro-bench assert "disabled registry within noise of none".
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._families: Dict[str, _Family] = {}

    def counter(self, name, help_text="", labelnames=(),
                scope=SCOPE_CLIENT):
        """Get-or-create a counter family."""
        return self._family(name, help_text, "counter", scope,
                            labelnames)

    def gauge(self, name, help_text="", labelnames=(),
              scope=SCOPE_CLIENT):
        """Get-or-create a gauge family."""
        return self._family(name, help_text, "gauge", scope, labelnames)

    def histogram(self, name, help_text="", labelnames=(),
                  scope=SCOPE_CLIENT, buckets=DEFAULT_BUCKETS):
        """Get-or-create a histogram family with the given bounds."""
        return self._family(name, help_text, "histogram", scope,
                            labelnames, buckets=tuple(buckets))

    def _family(self, name, help_text, kind, scope, labelnames,
                buckets=None):
        if not self.enabled:
            return NULL_FAMILY
        family = self._families.get(name)
        if family is not None:
            if (family.kind != kind or family.scope != scope
                    or family.labelnames != tuple(labelnames)):
                raise ValueError(
                    f"metric {name!r} re-registered with a different "
                    "kind, scope, or label set")
            return family
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if scope not in _SCOPES:
            raise ValueError(f"unknown scope {scope!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        family = _Family(name, help_text, kind, scope, labelnames,
                         buckets=buckets)
        self._families[name] = family
        return family

    def snapshot(self) -> MetricsSnapshot:
        """Plain-data copy of every family (picklable across shards)."""
        snap = MetricsSnapshot()
        for name, family in self._families.items():
            series = {}
            for key, child in family._children.items():
                if family.kind == "histogram":
                    series[key] = {
                        "bucket_counts": list(child.bucket_counts),
                        "sum": child.sum, "count": child.count}
                else:
                    series[key] = child.value
            snap.families[name] = {
                "kind": family.kind, "help": family.help,
                "scope": family.scope, "labelnames": family.labelnames,
                "buckets": family.buckets, "series": series,
            }
        return snap

    def reset(self):
        """Zero every series in place (families and children stay bound)."""
        for family in self._families.values():
            for child in family._children.values():
                if family.kind == "histogram":
                    child.bucket_counts = [0] * len(child.bucket_counts)
                    child.sum = 0.0
                    child.count = 0
                else:
                    child.value = 0


#: Shared disabled registry — the object instrumented components bind
#: when the network carries no registry, keeping hot paths branch-free.
NULL_REGISTRY = MetricsRegistry(enabled=False)


def active_registry(network) -> Optional[MetricsRegistry]:
    """The network's enabled registry, or None.

    Components use this at construction time to decide between the
    instrumented and the zero-cost path.
    """
    metrics = getattr(network, "metrics", None)
    if metrics is not None and metrics.enabled:
        return metrics
    return None

"""Unit contract of the metrics registry: families, labels, scopes,
the disabled fast path, snapshots and resets of the live children, and
snapshot merging."""

import pytest

from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    MetricsSnapshot,
    SCOPE_CLIENT,
    SCOPE_PROCESS,
)
from repro.obs.registry import NULL_FAMILY


class TestFamilies:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", "help", ("client",))
        second = registry.counter("repro_x_total", "help", ("client",))
        assert first is second

    def test_children_cached_per_label_tuple(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_x_total", "", ("client",))
        assert family.labels("10.0.0.1") is family.labels("10.0.0.1")
        assert family.labels("10.0.0.1") is not family.labels("10.0.0.2")

    def test_label_values_coerced_to_str(self):
        registry = MetricsRegistry()
        family = registry.gauge("repro_x", "", ("shard",))
        family.labels(3).set(7)
        assert registry.snapshot().value("repro_x", "3") == 7

    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        child = registry.counter("repro_x_total").labels()
        with pytest.raises(ValueError):
            child.inc(-1)

    def test_gauge_set_and_signed_inc(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_depth")
        gauge.set(5)
        gauge.inc(-2)
        assert registry.snapshot().value("repro_depth") == 3

    def test_histogram_bucketing_is_first_bound_at_least_value(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_h", buckets=(1, 2, 4))
        histogram.observe(2)        # boundary lands in its own bucket
        histogram.observe(3)
        histogram.observe(99)       # past the last bound -> +Inf slot
        histogram.observe(0.5, count=4)
        series = registry.snapshot().families["repro_h"]["series"][()]
        assert series["bucket_counts"] == [4, 1, 1, 1]
        assert series["count"] == 7
        assert series["sum"] == pytest.approx(2 + 3 + 99 + 4 * 0.5)


class TestValidation:
    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("9starts_with_digit")

    def test_invalid_label_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("repro_x_total", "", ("le gal",))

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("repro_x_total", scope="galaxy")

    def test_reregistration_with_different_shape_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "", ("client",))
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total", "", ("client",))
        with pytest.raises(ValueError):
            registry.counter("repro_x_total", "", ("client", "action"))
        with pytest.raises(ValueError):
            registry.counter("repro_x_total", "", ("client",),
                             scope=SCOPE_PROCESS)

    def test_label_value_count_must_match(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_x_total", "", ("client",))
        with pytest.raises(ValueError):
            family.labels("10.0.0.1", "extra")


class TestDisabledRegistry:
    def test_getters_return_shared_noop(self):
        registry = MetricsRegistry(enabled=False)
        family = registry.counter("repro_x_total", "", ("client",))
        assert family is NULL_FAMILY
        # The no-op family absorbs the whole child API.
        child = family.labels("10.0.0.1")
        child.inc()
        child.set(3)
        child.observe(1.5)
        assert registry.snapshot().families == {}

    def test_shared_null_registry_is_disabled(self):
        assert not NULL_REGISTRY.enabled
        assert NULL_REGISTRY.snapshot().families == {}


class TestCollectOnScrape:
    """A snapshot copies the live children; a reset zeroes them."""

    def test_reset_zeroes_series_but_keeps_families(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_x_total", "", ("client",))
        family.labels("10.0.0.1").inc(4)
        registry.reset()
        snap = registry.snapshot()
        assert snap.value("repro_x_total", "10.0.0.1") == 0
        assert registry.counter("repro_x_total", "", ("client",)) is family

    def test_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_h", buckets=(1.0,))
        histogram.observe(0.5)
        snap = registry.snapshot()
        histogram.observe(0.5)
        registry.counter("repro_x_total").inc()
        assert snap.families["repro_h"]["series"][()]["count"] == 1
        assert "repro_x_total" not in snap.families


def _snapshot_with(series, scope=SCOPE_CLIENT):
    registry = MetricsRegistry()
    family = registry.counter("repro_x_total", "help", ("client",),
                              scope=scope)
    for client, value in series.items():
        family.labels(client).inc(value)
    return registry.snapshot()


class TestSnapshotMerge:
    def test_disjoint_client_series_union(self):
        merged = MetricsSnapshot.merge([
            _snapshot_with({"10.0.0.1": 2}),
            _snapshot_with({"10.0.1.1": 5}),
        ])
        fam = merged.families["repro_x_total"]
        assert fam["series"] == {("10.0.0.1",): 2, ("10.0.1.1",): 5}
        assert merged.total("repro_x_total") == 7

    def test_colliding_series_sum(self):
        merged = MetricsSnapshot.merge([
            _snapshot_with({"10.0.0.1": 2}),
            _snapshot_with({"10.0.0.1": 3}),
        ])
        assert merged.value("repro_x_total", "10.0.0.1") == 5

    def test_histograms_merge_element_wise(self):
        parts = []
        for value in (0.5, 3.0):
            registry = MetricsRegistry()
            registry.histogram("repro_h", buckets=(1, 2)).observe(value)
            parts.append(registry.snapshot())
        series = MetricsSnapshot.merge(parts).families["repro_h"][
            "series"][()]
        assert series["bucket_counts"] == [1, 0, 1]
        assert series["count"] == 2
        assert series["sum"] == pytest.approx(3.5)

    def test_value_and_total_absent_family(self):
        snap = MetricsSnapshot()
        assert snap.value("repro_missing_total", "x") is None
        assert snap.total("repro_missing_total") == 0


class TestDeterministicView:
    def test_process_scope_excluded(self):
        registry = MetricsRegistry()
        registry.counter("repro_client_total", "", ("client",)) \
            .labels("10.0.0.1").inc()
        registry.counter("repro_cache_total", "",
                         scope=SCOPE_PROCESS).inc(9)
        snap = registry.snapshot()
        view = snap.deterministic_view()
        assert "repro_client_total" in view
        assert "repro_cache_total" not in view
        # ...but both scopes stay visible in the raw snapshot.
        assert "repro_cache_total" in snap.families

    def test_signature_tracks_client_scope_values_only(self):
        base = _snapshot_with({"10.0.0.1": 2})
        same = _snapshot_with({"10.0.0.1": 2})
        different = _snapshot_with({"10.0.0.1": 3})
        process = _snapshot_with({"10.0.0.1": 2}, scope=SCOPE_PROCESS)
        assert base.deterministic_signature() \
            == same.deterministic_signature()
        assert base.deterministic_signature() \
            != different.deterministic_signature()
        assert process.deterministic_signature() \
            == MetricsSnapshot().deterministic_signature()

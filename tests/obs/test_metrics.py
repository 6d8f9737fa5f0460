"""Metric registry semantics: labels, buckets, monotonicity, snapshots."""

import math

import pytest

from repro.obs import Counter, Gauge, Histogram, Registry


# -- labels ------------------------------------------------------------------


def test_label_names_are_enforced_exactly():
    registry = Registry()
    counter = registry.counter("c_total", "help", ("session", "protocol"))
    counter.inc(session="s0", protocol="p")
    with pytest.raises(ValueError, match="takes labels"):
        counter.inc(session="s0")  # missing
    with pytest.raises(ValueError, match="takes labels"):
        counter.inc(session="s0", protocol="p", extra="x")  # surplus
    with pytest.raises(ValueError, match="takes labels"):
        counter.value(wrong="s0", protocol="p")  # misnamed


def test_label_cardinality_counts_series():
    registry = Registry()
    counter = registry.counter("c_total", "", ("session",))
    assert counter.cardinality == 0
    for session in ("s0", "s1", "s0", "s2"):
        counter.inc(session=session)
    assert counter.cardinality == 3
    counter.reset()
    assert counter.cardinality == 0


def test_label_values_are_stringified():
    registry = Registry()
    gauge = registry.gauge("g", "", ("index",))
    gauge.set(1.5, index=3)
    assert gauge.value(index="3") == 1.5


# -- counter -----------------------------------------------------------------


def test_bound_children_write_the_same_series_lazily():
    def populate(bound):
        registry = Registry()
        counter = registry.counter("c_total", "help", ("session", "kind"))
        gauge = registry.gauge("g", "help", ("session",))
        histogram = registry.histogram("h_seconds", "help", ("session",))
        if bound:
            child = counter.labels(session="s0", kind="a")
            counter.labels(session="s0", kind="never")  # bound, never used
            child.inc()
            child.inc(2.5)
            gauge.labels(session="s0").set(3)
            histogram.labels(session="s0").observe(0.3)
        else:
            counter.inc(session="s0", kind="a")
            counter.inc(2.5, session="s0", kind="a")
            gauge.set(3, session="s0")
            histogram.observe(0.3, session="s0")
        return registry

    bound, plain = populate(True), populate(False)
    # A child creates its series on the first update, not when bound.
    assert bound.snapshot() == plain.snapshot()
    assert bound.get("c_total").cardinality == 1


def test_bound_children_survive_reset_and_check_labels_once():
    registry = Registry()
    counter = registry.counter("c_total", "help", ("session",))
    child = counter.labels(session="s0")
    child.inc()
    registry.reset()
    assert counter.cardinality == 0
    child.inc(4.0)
    assert counter.value(session="s0") == 4.0
    with pytest.raises(ValueError, match="cannot decrease"):
        child.inc(-1.0)
    with pytest.raises(ValueError, match="takes labels"):
        counter.labels(session="s0", extra="x")


def test_counter_monotonicity():
    counter = Counter("c_total", "", ())
    counter.inc()
    counter.inc(2.5)
    counter.inc(0.0)
    assert counter.value() == 3.5
    with pytest.raises(ValueError, match="cannot decrease"):
        counter.inc(-1.0)
    assert counter.value() == 3.5  # failed inc left no trace


def test_counter_total_sums_all_series():
    registry = Registry()
    counter = registry.counter("c_total", "", ("k",))
    counter.inc(1.0, k="a")
    counter.inc(2.0, k="b")
    assert counter.total() == 3.0


# -- gauge -------------------------------------------------------------------


def test_gauge_last_write_wins():
    gauge = Gauge("g", "", ())
    gauge.set(1.0)
    gauge.set(-4.0)
    assert gauge.value() == -4.0


# -- histogram ---------------------------------------------------------------


def test_histogram_bucket_edges_are_inclusive_upper():
    histogram = Histogram("h", "", (), buckets=(1.0, 2.0, 5.0))
    for value in (0.5, 1.0, 1.0001, 2.0, 4.9, 5.0, 5.0001, 100.0):
        histogram.observe(value)
    series = histogram._series[()]
    # buckets: <=1.0, <=2.0, <=5.0, overflow
    assert series["buckets"] == [2, 2, 2, 2]
    assert series["count"] == 8
    assert series["sum"] == pytest.approx(0.5 + 1.0 + 1.0001 + 2.0 + 4.9 + 5.0 + 5.0001 + 100.0)


def test_histogram_mean_and_empty_mean():
    histogram = Histogram("h", "", ())
    assert math.isnan(histogram.mean())
    histogram.observe(1.0)
    histogram.observe(3.0)
    assert histogram.mean() == 2.0
    assert histogram.count() == 2


def test_histogram_requires_increasing_buckets():
    with pytest.raises(ValueError, match="strictly increasing"):
        Histogram("h", "", (), buckets=(1.0, 1.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        Histogram("h", "", (), buckets=(2.0, 1.0))
    with pytest.raises(ValueError, match="at least one bucket"):
        Histogram("h", "", (), buckets=())


# -- registry ----------------------------------------------------------------


def test_registration_is_idempotent_but_typed():
    registry = Registry()
    a = registry.counter("x_total", "", ("k",))
    assert registry.counter("x_total", "", ("k",)) is a
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("x_total", "", ("k",))
    with pytest.raises(ValueError, match="already registered"):
        registry.counter("x_total", "", ("other",))
    registry.histogram("h", "", (), buckets=(1.0,))
    with pytest.raises(ValueError, match="different buckets"):
        registry.histogram("h", "", (), buckets=(2.0,))


def test_snapshot_reset_round_trip():
    registry = Registry()
    counter = registry.counter("c_total", "", ("k",))
    histogram = registry.histogram("h_seconds", "", (), buckets=(1.0, 2.0))
    counter.inc(3.0, k="a")
    histogram.observe(0.5)
    before = registry.snapshot()

    registry.reset()
    empty = registry.snapshot()
    # Definitions survive a reset; series do not.
    assert set(empty) == set(before)
    assert all(entry["series"] == [] for entry in empty.values())

    registry.merge(before)
    assert registry.snapshot() == before


def test_merge_reconstructs_into_empty_registry():
    source = Registry()
    source.counter("c_total", "help!", ("k",)).inc(2.0, k="a")
    source.histogram("h", "", ("k",), buckets=(1.0,)).observe(0.5, k="a")
    source.gauge("g", "", ()).set(7.0)
    snapshot = source.snapshot()

    target = Registry()
    target.merge(snapshot)
    assert target.snapshot() == snapshot


def test_merge_is_additive_for_counters_and_histograms():
    def make(value):
        registry = Registry()
        registry.counter("c_total", "", ("k",)).inc(value, k="a")
        h = registry.histogram("h", "", (), buckets=(1.0, 2.0))
        h.observe(value)
        return registry.snapshot()

    merged = Registry()
    merged.merge(make(0.5))
    merged.merge(make(1.5))
    snap = merged.snapshot()
    assert snap["c_total"]["series"] == [{"labels": ["a"], "value": 2.0}]
    assert snap["h"]["series"][0]["value"] == {
        "count": 2,
        "sum": 2.0,
        "buckets": [1, 1, 0],
    }


def test_merge_fold_order_independent_for_sums():
    snapshots = []
    for value in (1.0, 2.0, 4.0):
        registry = Registry()
        registry.counter("c_total", "", ()).inc(value)
        snapshots.append(registry.snapshot())

    forward = Registry()
    for snapshot in snapshots:
        forward.merge(snapshot)
    backward = Registry()
    for snapshot in reversed(snapshots):
        backward.merge(snapshot)
    assert forward.snapshot() == backward.snapshot()


def test_snapshot_is_deterministically_ordered():
    registry = Registry()
    counter = registry.counter("zzz_total", "", ("k",))
    registry.counter("aaa_total", "", ())
    counter.inc(k="b")
    counter.inc(k="a")
    snapshot = registry.snapshot()
    assert list(snapshot) == ["aaa_total", "zzz_total"]
    assert [s["labels"] for s in snapshot["zzz_total"]["series"]] == [
        ["a"],
        ["b"],
    ]

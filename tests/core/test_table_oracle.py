"""The timer heap and the incremental meter against naive recomputation.

:class:`SoftStateTable` keeps expiry in a lazily invalidated deadline
heap and :class:`ConsistencyMeter` keeps matched counts from the
tables' change feeds.  The oracles here are the O(n) definitions they
replace: scan every record for lapsed timers, and walk subscribers x
live records for c(t).  Random operation sequences must agree with them
exactly -- same records, same order, same floats.
"""

import math
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConsistencyMeter, SoftStateTable
from repro.core import record as record_module

#: Times, lifetimes and hold times are multiples of 0.5, so deadlines
#: tie often and every comparison is exact.
STEP = 0.5
TIMERS = (math.inf, 0.5, 1.0, 1.5, 2.0, 3.0)
KEYS = 3
VALUES = 2


def deadline(table, record):
    if table.role == "publisher":
        return record.created_at + record.lifetime
    return record.last_refreshed + record.hold_time


def scan_lapsed(table, now):
    """The O(n) oracle: stored records whose timers have lapsed, in
    table insertion order."""
    return [record for record in table if deadline(table, record) <= now]


def naive_consistency(publisher, subscribers, now):
    """c(t) by walking subscribers x live records (Section 2.1)."""
    live = publisher.live_records(now)
    if not live:
        return None
    matched = 0
    total = 0
    for subscriber in subscribers:
        for record in live:
            total += 1
            mirror = subscriber.get(record.key)
            if (
                mirror is not None
                and mirror.is_subscriber_live(now)
                and mirror.value == record.value
            ):
                matched += 1
    return matched / total


def check_heap(table):
    """Heap bookkeeping: the stale count is exact, and every stored
    record with a finite deadline has one live entry no later than it."""
    entries = table._heap
    stale = [entry for entry in entries if entry[3]._gen != entry[2]]
    assert table._stale == len(stale)
    live = {}
    for due, _, gen, record in entries:
        if record._gen == gen:
            assert id(record) not in live
            live[id(record)] = due
    for record in table:
        due = deadline(table, record)
        if due < math.inf:
            assert live[id(record)] <= due
            assert record._due == live[id(record)]


def checked_expire(table, now, fired):
    expected = scan_lapsed(table, now)
    survivors = [record for record in table if record not in expected]
    fired.clear()
    result = table.expire(now)
    assert [id(record) for record in result] == [id(r) for r in expected]
    assert fired == [(record.key, now) for record in expected]
    assert [id(record) for record in table] == [id(r) for r in survivors]
    check_heap(table)


@contextmanager
def compaction_floor(floor):
    saved = record_module._COMPACT_FLOOR
    record_module._COMPACT_FLOOR = floor
    try:
        yield
    finally:
        record_module._COMPACT_FLOOR = saved


#: Operation names, repeated to weight the draw towards the operations
#: that build up state; the clears are further thinned in the test.
OPS = (
    ("advance",) * 3
    + ("publish",) * 3
    + ("revise", "withdraw", "crash_publisher")
    + ("announce",) * 3
    + ("refresh", "retime", "drop", "crash_subscriber")
    + ("expire_publisher", "expire_subscriber", "sample") * 2
)

operations = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(0, 7),
        st.integers(0, 7),
        st.integers(0, 7),
    ),
    # Short runs rarely build the state worth checking.
    min_size=20,
    max_size=100,
)


@settings(max_examples=500, deadline=None)
@given(operations, st.integers(1, 3), st.booleans(), st.booleans(), st.booleans())
def test_heap_and_meter_match_naive_recomputation(
    steps, n_subscribers, meter_first, eager_compaction, sample_always
):
    # Sampling settles the heap top, so only some runs sample after
    # every operation; the rest leave expire() unsettled heaps.
    with compaction_floor(0 if eager_compaction else 64):
        publisher = SoftStateTable("publisher")
        subscribers = [SoftStateTable("subscriber") for _ in range(n_subscribers)]
        fired = []
        for table in [publisher] + subscribers:
            table.on_expire(lambda record, now: fired.append((record.key, now)))
        meter = ConsistencyMeter(publisher, subscribers) if meter_first else None
        now = 0.0
        for op, a, b, c in steps:
            key = f"k{a % KEYS}"
            value = b % VALUES
            timer = TIMERS[c % len(TIMERS)]
            subscriber = subscribers[c % n_subscribers]
            if op == "advance":
                now += STEP * (a % 5)
            elif op == "publish":
                publisher.put(key, value, now=now, lifetime=timer)
            elif op == "revise":
                publisher.revise(key, value, now)
            elif op == "withdraw":
                publisher.delete(key)
            elif op == "crash_publisher" and a == 0:
                publisher.clear()
            elif op == "announce":
                # Versions below the stored one are stale announcements.
                subscriber.put(
                    key, value, now=now, version=b % 4,
                    hold_time=TIMERS[a % len(TIMERS)],
                )
            elif op == "refresh":
                subscriber.refresh(key, now)
            elif op == "retime":
                subscriber.refresh(key, now, hold_time=TIMERS[b % len(TIMERS)])
            elif op == "drop":
                subscriber.delete(key)
            elif op == "crash_subscriber" and a == 0:
                subscriber.clear()
            elif op == "expire_publisher":
                checked_expire(publisher, now, fired)
            elif op == "expire_subscriber":
                checked_expire(subscriber, now, fired)
            if op == "sample" or (
                meter is not None and (sample_always or op.startswith("expire"))
            ):
                if meter is None:
                    meter = ConsistencyMeter(publisher, subscribers)
                for table in [publisher] + subscribers:
                    stored = [id(record) for record in table]
                    assert sorted(map(id, table.lapsed(now))) == sorted(
                        map(id, scan_lapsed(table, now))
                    )
                    assert [id(record) for record in table] == stored
                assert meter.instantaneous(now) == naive_consistency(
                    publisher, subscribers, now
                )
            for table in [publisher] + subscribers:
                check_heap(table)
        if meter is None:
            meter = ConsistencyMeter(publisher, subscribers)
        for later in (now, now + STEP, now + 10.0):
            assert meter.instantaneous(later) == naive_consistency(
                publisher, subscribers, later
            )
        for table in [publisher] + subscribers:
            checked_expire(table, now + 10.0, fired)


def test_publisher_record_lapsing_at_the_sample_instant_is_excluded():
    publisher = SoftStateTable("publisher")
    subscriber = SoftStateTable("subscriber")
    meter = ConsistencyMeter(publisher, [subscriber])
    publisher.put("a", 1, now=0.0, lifetime=2.0)
    publisher.put("b", 1, now=0.0)
    subscriber.put("a", 1, now=0.0, hold_time=5.0)
    subscriber.put("b", 1, now=0.0, hold_time=5.0)
    assert meter.instantaneous(1.5) == 1.0
    # At t=2 "a" has lapsed but is still stored; the meter must leave it
    # there (its owner's expire fires the protocol callbacks) and count
    # only "b".
    assert meter.instantaneous(2.0) == naive_consistency(
        publisher, [subscriber], 2.0
    ) == 1.0
    assert "a" in publisher
    assert [record.key for record in publisher.expire(2.0)] == ["a"]


def test_lapsed_subscriber_copy_of_a_lapsed_publisher_record_counts_once():
    publisher = SoftStateTable("publisher")
    subscriber = SoftStateTable("subscriber")
    meter = ConsistencyMeter(publisher, [subscriber])
    for key in ("a", "b", "c"):
        publisher.put(key, 0, now=0.0, lifetime=2.0 if key == "a" else 9.0)
        subscriber.put(key, 0, now=0.0, hold_time=2.0 if key != "c" else 9.0)
    assert meter.instantaneous(2.0) == naive_consistency(
        publisher, [subscriber], 2.0
    ) == 0.5


def test_tied_deadlines_expire_in_insertion_order():
    table = SoftStateTable("subscriber")
    fired = []
    table.on_expire(lambda record, now: fired.append(record.key))
    for key in ("d", "c", "b", "a"):
        table.put(key, 0, now=0.0, hold_time=4.0)
    table.delete("c")
    table.put("c", 0, now=1.0, hold_time=3.0)  # re-inserted: now last
    table.refresh("b", now=1.0, hold_time=3.0)  # extended to the tie
    table.refresh("a", now=1.0, hold_time=1.0)  # shrunk below it
    assert [record.key for record in table.expire(2.0)] == ["a"]
    assert [record.key for record in table.expire(4.0)] == ["d", "b", "c"]
    assert fired == ["a", "d", "b", "c"]


def test_immortal_records_never_enter_the_heap():
    table = SoftStateTable("subscriber")
    for index in range(100):
        table.put(index, 0, now=0.0)
    for step in range(10):
        for index in range(100):
            table.refresh(index, now=float(step))
    assert table._heap == []
    assert table.expire(1e12) == []


def test_stale_entries_are_compacted():
    table = SoftStateTable("subscriber")
    table.put("k", 0, now=0.0, hold_time=1000.0)
    for step in range(1, 1000):
        # Each shrink pushes a fresh entry and strands the old one.
        table.refresh("k", now=0.0, hold_time=1000.0 - step)
    assert len(table._heap) <= 3 * (record_module._COMPACT_FLOOR + 1)
    check_heap(table)
    assert [record.key for record in table.expire(1.0)] == ["k"]

"""O(1) scheduler removal against eager removal.

``Scheduler.remove`` leaves a tombstone instead of scanning the queue.
The reference here is the eager removal it replaced: find the earliest
queued occurrence and excise it.  Any mix of enqueues, removals and
dequeues must serve the same items in the same order, with the same
backlogs, under every discipline.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import (
    DrrScheduler,
    FifoScheduler,
    LotteryScheduler,
    StrideScheduler,
    WfqScheduler,
)

DISCIPLINES = (
    lambda: LotteryScheduler(rng=random.Random(7)),
    StrideScheduler,
    WfqScheduler,
    DrrScheduler,
    FifoScheduler,
)


def eager(factory):
    """The same discipline with the old scanning, excising remove."""
    scheduler = factory()

    def remove(name, item):
        scheduler._require(name)
        queue = scheduler._queues[name]
        for index, entry in enumerate(queue):
            if entry[0] is item or entry[0] == item:
                del queue[index]
                scheduler._forget(name, item)
                return True
        return False

    scheduler.remove = remove
    return scheduler


operations = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 3)),
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, len(DISCIPLINES) - 1), operations)
def test_tombstone_removal_serves_like_eager_removal(which, steps):
    factory = DISCIPLINES[which]
    lazy, reference = factory(), eager(factory)
    for scheduler in (lazy, reference):
        scheduler.add_class("hot", weight=3.0)
        scheduler.add_class("cold", weight=1.0)
    for op, cls, item in steps:
        name = ("hot", "cold")[cls]
        if op == 0:
            lazy.enqueue(name, item, size=1.0 + item % 2)
            reference.enqueue(name, item, size=1.0 + item % 2)
        elif op == 1:
            assert lazy.remove(name, item) == reference.remove(name, item)
        else:
            assert lazy.dequeue() == reference.dequeue()
        for name in ("hot", "cold"):
            assert lazy.backlog(name) == reference.backlog(name)
            # Heads are always live, so the disciplines see what eager
            # removal would show them.
            if lazy._queues[name]:
                assert lazy._queues[name][0][0] == reference._queues[name][0][0]
            else:
                assert not reference._queues[name]
        assert len(lazy) == len(reference)
    while (served := lazy.dequeue()) is not None:
        assert served == reference.dequeue()
    assert reference.dequeue() is None


def test_remove_leaves_later_duplicates_queued():
    scheduler = FifoScheduler()
    for item in ("a", "b", "a", "c"):
        scheduler.enqueue("q", item)
    assert scheduler.remove("q", "a")
    assert scheduler.backlog("q") == 3
    assert [scheduler.dequeue()[1] for _ in range(3)] == ["b", "a", "c"]
    assert scheduler.dequeue() is None

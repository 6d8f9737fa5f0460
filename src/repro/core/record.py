"""The soft-state data model: an evolving table of {key, value} pairs.

Figure 1 of the paper: a publisher maintains a table of records and may
insert, update, or delete them at any time; each record has a bounded
lifetime after which it is eliminated.  Subscribers maintain a local
copy; each received announcement refreshes a per-record expiration
timer, and a record whose timer lapses is deleted (soft-state expiry).

:class:`SoftStateTable` serves both roles.  In publisher mode records
expire at ``created_at + lifetime``; in subscriber mode they expire at
``last_refreshed + hold_time``.  Expiry is lazy: callers advance the
table with :meth:`SoftStateTable.expire` (typically on every simulation
event), which fires the registered ``on_expire`` callbacks.

The table owns its timers in a deadline min-heap, so ``expire(now)``
costs O(1) when nothing is due and O(k log n) when k records lapse or
k entries go stale, never a scan of the table.  Every change to a
record's key set or value is published on a change feed
(:meth:`SoftStateTable.on_change`), which is what lets
:class:`~repro.core.consistency.ConsistencyMeter` keep c(t) up to date
incrementally.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import runtime as _obs
from repro.obs.trace import RECORD as _RECORD

@dataclass(slots=True)
class Record:
    """One {key, value} pair with lifetime/refresh bookkeeping.

    ``version`` increases on every update of the same key so receivers
    can distinguish stale announcements from fresh ones; value equality
    plus version equality defines per-key consistency.
    """

    key: Any
    value: Any
    version: int = 0
    created_at: float = 0.0
    lifetime: float = math.inf
    last_refreshed: float = 0.0
    hold_time: float = math.inf
    #: Number of times the publisher has announced this record.
    announcements: int = 0
    # Timer bookkeeping owned by the table (outside equality and repr):
    # insertion stamp, the generation its live heap entry carries, and
    # that entry's deadline (inf when it has none).
    _seq: int = field(default=0, init=False, repr=False, compare=False)
    _gen: int = field(default=0, init=False, repr=False, compare=False)
    _due: float = field(default=math.inf, init=False, repr=False, compare=False)

    @property
    def publisher_expiry(self) -> float:
        """When the publisher stops announcing and drops the record."""
        return self.created_at + self.lifetime

    @property
    def subscriber_expiry(self) -> float:
        """When a subscriber's soft-state timer for this record lapses."""
        return self.last_refreshed + self.hold_time

    def is_publisher_live(self, now: float) -> bool:
        return now < self.publisher_expiry

    def is_subscriber_live(self, now: float) -> bool:
        return now < self.subscriber_expiry


ExpiryCallback = Callable[[Record, float], None]
#: ``listener(kind, key, record)``: ``kind`` is one of ``insert``,
#: ``update``, ``revise``, ``delete``, ``expire`` or ``clear``; removals
#: pass the removed record, ``clear`` passes ``(None, None)``.
ChangeListener = Callable[[str, Any, Optional[Record]], None]
_Entry = Tuple[float, int, int, Record]

#: Stale heap entries are dropped in one pass once they outnumber live
#: ones by this factor (and exceed the floor below).
_COMPACT_RATIO = 2
_COMPACT_FLOOR = 64


class SoftStateTable:
    """A table of soft-state records with lazy timer-based expiry.

    Timers live in a min-heap of ``(deadline, seq, generation, record)``
    entries with lazy invalidation.  A record has at most one *live*
    entry: the one whose generation matches the record's.  Its deadline
    is a lower bound on the record's true deadline -- a refresh that
    only pushes the deadline later leaves the entry alone, and the entry
    is re-pushed at the true deadline when it surfaces.  Anything that
    pulls a deadline earlier pushes a fresh entry and bumps the
    generation; removal bumps it too.  Infinite deadlines are never
    pushed.
    """

    def __init__(self, role: str = "publisher") -> None:
        if role not in ("publisher", "subscriber"):
            raise ValueError(f"role must be publisher|subscriber, got {role!r}")
        self.role = role
        self._publisher = role == "publisher"
        #: Per-cell label disambiguating this table's trace rows from
        #: other tables' in the same run (it never feeds simulation).
        self.trace_id = _obs.next_trace_label("t")
        self._records: Dict[Any, Record] = {}
        self._on_expire: List[ExpiryCallback] = []
        self._listeners: List[ChangeListener] = []
        #: Ambient tracer, cached at construction (guarded attribute —
        #: hooks are no-ops unless tracing was installed via repro.obs).
        self._trace = _obs.current_tracer()
        self.inserts = 0
        self.updates = 0
        self.deletes = 0
        self.expirations = 0
        self._heap: List[_Entry] = []
        #: Heap entries whose generation no longer matches their record.
        self._stale = 0
        self._inserted = 0

    # -- timers ----------------------------------------------------------------
    def _deadline(self, record: Record) -> float:
        if self._publisher:
            return record.created_at + record.lifetime
        return record.last_refreshed + record.hold_time

    def _schedule(self, record: Record) -> None:
        """Keep the record's live heap entry no later than its deadline."""
        deadline = self._deadline(record)
        if deadline < record._due:
            if record._due < math.inf:
                self._stale += 1
            record._gen += 1
            record._due = deadline
            heapq.heappush(
                self._heap, (deadline, record._seq, record._gen, record)
            )
            self._maybe_compact()

    def _unschedule(self, record: Record) -> None:
        """Invalidate the heap entry of a record leaving the table."""
        if record._due < math.inf:
            self._stale += 1
            record._due = math.inf
        record._gen += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        stale = self._stale
        if stale > _COMPACT_FLOOR and stale > _COMPACT_RATIO * (
            len(self._heap) - stale
        ):
            # In place: expire() and lapsed() hold the list while they
            # may push (and so compact).
            heap = self._heap
            heap[:] = [entry for entry in heap if entry[3]._gen == entry[2]]
            heapq.heapify(heap)
            self._stale = 0

    def _settle(self, now: float) -> None:
        """Drop stale entries and re-push extended ones from the heap top
        until it is a record truly due by ``now`` or nothing due at all."""
        heap = self._heap
        while heap and heap[0][0] <= now:
            _, _, gen, record = heap[0]
            if record._gen != gen:
                heapq.heappop(heap)
                self._stale -= 1
                continue
            if self._deadline(record) <= now:
                return
            heapq.heappop(heap)
            record._due = math.inf
            self._schedule(record)

    # -- change feed -------------------------------------------------------------
    def on_change(self, listener: ChangeListener) -> None:
        """Register ``listener(kind, key, record)`` for key-set and value
        changes (timer-only changes -- refreshes, stale-version puts and
        hold-time changes -- are not published)."""
        self._listeners.append(listener)

    def _publish(self, kind: str, key: Any, record: Optional[Record]) -> None:
        for listener in self._listeners:
            listener(kind, key, record)

    # -- mutation ------------------------------------------------------------
    def put(
        self,
        key: Any,
        value: Any,
        now: float,
        lifetime: float = math.inf,
        hold_time: float = math.inf,
        version: Optional[int] = None,
    ) -> Record:
        """Insert or update a record.

        A publisher bumps the version on update; a subscriber stores the
        announced version and refreshes its expiry timer.
        """
        if lifetime <= 0:
            raise ValueError(f"lifetime must be positive, got {lifetime}")
        if hold_time <= 0:
            raise ValueError(f"hold_time must be positive, got {hold_time}")
        existing = self._records.get(key)
        if existing is None:
            record = Record(
                key=key,
                value=value,
                version=version if version is not None else 0,
                created_at=now,
                lifetime=lifetime,
                last_refreshed=now,
                hold_time=hold_time,
            )
            record._seq = self._inserted
            self._inserted += 1
            self._records[key] = record
            self.inserts += 1
            self._schedule(record)
            tr = self._trace
            if tr is not None and tr.record:
                tr.emit(
                    _RECORD,
                    "record_inserted",
                    now,
                    key=key,
                    role=self.role,
                    version=record.version,
                    table=self.trace_id,
                )
            if self._listeners:
                self._publish("insert", key, record)
            return record
        if version is None:
            existing.version += 1
        elif version < existing.version:
            # Stale announcement (reordered ADU): refresh the timer but
            # keep the newer value.
            existing.last_refreshed = now
            return existing
        else:
            existing.version = version
        existing.value = value
        existing.last_refreshed = now
        existing.hold_time = hold_time
        existing.lifetime = lifetime
        existing.created_at = (
            existing.created_at if self.role == "subscriber" else now
        )
        self.updates += 1
        self._schedule(existing)
        tr = self._trace
        if tr is not None and tr.record:
            tr.emit(
                _RECORD,
                "record_updated",
                now,
                key=key,
                role=self.role,
                version=existing.version,
                table=self.trace_id,
            )
        if self._listeners:
            self._publish("update", key, existing)
        return existing

    def revise(self, key: Any, value: Any, now: float) -> Optional[Record]:
        """Give a record a new value and version in place, keeping its
        lifetime (a publisher-side update of live data)."""
        record = self._records.get(key)
        if record is None:
            return None
        record.value = value
        record.version += 1
        record.last_refreshed = now
        self.updates += 1
        self._schedule(record)
        if self._listeners:
            self._publish("revise", key, record)
        return record

    def refresh(
        self, key: Any, now: float, hold_time: Optional[float] = None
    ) -> bool:
        """Reset a subscriber's expiry timer without changing the value,
        optionally granting a new ``hold_time`` (adaptive timers)."""
        record = self._records.get(key)
        if record is None:
            return False
        record.last_refreshed = now
        if hold_time is not None:
            record.hold_time = hold_time
            self._schedule(record)
        tr = self._trace
        if tr is not None and tr.record:
            tr.emit(
                _RECORD,
                "record_refreshed",
                now,
                key=key,
                role=self.role,
                table=self.trace_id,
            )
        return True

    def delete(self, key: Any) -> Optional[Record]:
        """Explicitly remove a record (publisher withdraw)."""
        record = self._records.pop(key, None)
        if record is not None:
            self.deletes += 1
            self._unschedule(record)
            tr = self._trace
            if tr is not None and tr.record:
                # Deletion is initiated outside the table (no clock in
                # scope), so the record carries no timestamp.
                tr.emit(
                    _RECORD,
                    "record_deleted",
                    None,
                    key=key,
                    role=self.role,
                    table=self.trace_id,
                )
            if self._listeners:
                self._publish("delete", key, record)
        return record

    def expire(self, now: float) -> List[Record]:
        """Drop every record whose timer has lapsed; fire callbacks.

        Pops due heap entries only: O(1) while nothing is due, else
        O(k log n) for k popped entries.  Lapsed records are returned,
        traced and handed to callbacks in table insertion order.
        """
        heap = self._heap
        if not heap or now < heap[0][0]:
            return []
        expired = []
        self._settle(now)
        while heap and heap[0][0] <= now:
            record = heapq.heappop(heap)[3]
            record._due = math.inf
            expired.append(record)
            self._settle(now)
        if not expired:
            return expired
        expired.sort(key=_insertion_order)
        records = self._records
        tr = self._trace
        trace_records = tr is not None and tr.record
        for record in expired:
            del records[record.key]
            # A callback may have re-timed a record still in this list.
            self._unschedule(record)
            self.expirations += 1
            if trace_records:
                # The timer deadline this expiry decision was based on;
                # a spec checker compares it against ``now`` and against
                # the refresh history to detect false expiries.
                tr.emit(
                    _RECORD,
                    "record_expired",
                    now,
                    key=record.key,
                    role=self.role,
                    version=record.version,
                    table=self.trace_id,
                    deadline=self._deadline(record),
                )
            if self._listeners:
                self._publish("expire", record.key, record)
            for callback in self._on_expire:
                callback(record, now)
        return expired

    def on_expire(self, callback: ExpiryCallback) -> None:
        """Register ``callback(record, now)`` for timer expirations."""
        self._on_expire.append(callback)

    def clear(self) -> None:
        """Drop everything (e.g. a subscriber crash losing its state)."""
        self._records.clear()
        self._heap.clear()
        self._stale = 0
        if self._listeners:
            self._publish("clear", None, None)

    # -- queries ---------------------------------------------------------------
    def get(self, key: Any) -> Optional[Record]:
        return self._records.get(key)

    def __contains__(self, key: Any) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(list(self._records.values()))

    def live_records(self, now: float) -> List[Record]:
        """The live data set L(t): records whose timers have not lapsed."""
        if self.role == "publisher":
            return [
                record
                for record in self._records.values()
                if now < record.created_at + record.lifetime
            ]
        return [
            record
            for record in self._records.values()
            if now < record.last_refreshed + record.hold_time
        ]

    def live_keys(self, now: float) -> List[Any]:
        return [record.key for record in self.live_records(now)]

    def lapsed(self, now: float) -> List[Record]:
        """Records still stored whose timers have lapsed by ``now``, in
        no particular order (those the next ``expire(now)`` would drop).

        Leaves the table's contents alone; costs O(1) when nothing is
        due and otherwise walks only heap entries due by ``now``.
        """
        self._settle(now)
        heap = self._heap
        if not heap or now < heap[0][0]:
            return []
        found = []
        size = len(heap)
        pending = [0]
        while pending:
            index = pending.pop()
            _, _, gen, record = heap[index]
            if record._gen == gen and self._deadline(record) <= now:
                found.append(record)
            for child in (2 * index + 1, 2 * index + 2):
                if child < size and heap[child][0] <= now:
                    pending.append(child)
        return found


def _insertion_order(record: Record) -> int:
    return record._seq

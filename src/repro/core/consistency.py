"""The paper's consistency metric.

Section 2.1 defines, for a live key k, c(k,t) = Pr[P.val(k) = Q.val(k)];
the instantaneous system consistency c(t) is the average of c(k,t) over
the live data set L(t), and the average system consistency E[c(t)] is
the long-run time average of c(t).  Empirically (in a single simulation
run) c(k,t) is the 0/1 indicator that subscriber and publisher agree on
k, so c(t) is simply the matched fraction of L(t), and E[c(t)] is its
time integral divided by the horizon — exactly how the paper says the
metric "provides us with a method to empirically compute" it.

The paper's closed forms implicitly count instants with an empty live
set as zero consistency (the busy-probability factor rho in E[c]).  The
meter makes that convention explicit and configurable:

* ``empty_policy="zero"``  — empty system counts as c(t) = 0 (paper);
* ``empty_policy="one"``   — vacuously consistent;
* ``empty_policy="skip"``  — empty intervals excluded from the average.

The meter is incremental.  It listens to the change feeds of the
publisher and subscriber tables and keeps, per subscriber, the set of
keys both sides hold with equal values, plus one integer count of all
such matches.  A sample subtracts the matches of records that have
lapsed but are still stored (found through each table's timer heap),
so it costs O(lapsed records), not O(subscribers x live records), and
c(t) is the same ratio of the same integers as a full recount.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterable, List, Optional, Tuple

from repro.core.record import Record, SoftStateTable

_POLICIES = ("zero", "one", "skip")
_REMOVALS = ("delete", "expire")


class ConsistencyMeter:
    """Time-weighted consistency between one publisher and subscribers.

    The meter samples c(t) lazily: call :meth:`observe` whenever system
    state may have changed (packet delivery, arrival, expiry).  Between
    observations c(t) is treated as constant, which is exact when every
    state change is followed by an observe() — the protocol simulators
    do exactly that.

    The meter never removes records: lapsed-but-stored records are left
    for their owners' ``expire`` calls (which fire protocol callbacks)
    and are only excluded from the sample.
    """

    def __init__(
        self,
        publisher: SoftStateTable,
        subscribers: Iterable[SoftStateTable],
        empty_policy: str = "zero",
        start_time: float = 0.0,
    ) -> None:
        if empty_policy not in _POLICIES:
            raise ValueError(
                f"empty_policy must be one of {_POLICIES}, got {empty_policy!r}"
            )
        self.publisher = publisher
        self.subscribers = list(subscribers)
        if not self.subscribers:
            raise ValueError("need at least one subscriber")
        if any(table.role != "subscriber" for table in self.subscribers):
            raise ValueError("subscriber tables must have role 'subscriber'")
        self.empty_policy = empty_policy
        self._last_time = start_time
        self._last_value: Optional[float] = None  # None = live set empty
        self._weighted_sum = 0.0
        self._observed_duration = 0.0
        self._total_duration = 0.0
        #: (time, c(t) or None for an empty live set) per observation.
        self._series: List[Tuple[float, Optional[float]]] = []
        self._record_series = False
        #: Per subscriber, the keys it holds with the publisher's value
        #: (timers aside); ``_matched`` is the sum of their sizes.
        self._matched_keys: List[set] = [set() for _ in self.subscribers]
        self._matched = 0
        for record in publisher:
            self._publisher_changed("insert", record.key, record)
        publisher.on_change(self._publisher_changed)
        for index, subscriber in enumerate(self.subscribers):
            subscriber.on_change(partial(self._subscriber_changed, index))

    # -- change feeds ---------------------------------------------------------
    def _mark(self, keys: set, key: Any, agree: bool) -> None:
        if agree:
            if key not in keys:
                keys.add(key)
                self._matched += 1
        elif key in keys:
            keys.discard(key)
            self._matched -= 1

    def _publisher_changed(
        self, kind: str, key: Any, record: Optional[Record]
    ) -> None:
        if kind == "clear":
            for keys in self._matched_keys:
                keys.clear()
            self._matched = 0
        elif kind in _REMOVALS:
            for keys in self._matched_keys:
                self._mark(keys, key, False)
        else:
            for keys, subscriber in zip(self._matched_keys, self.subscribers):
                mirror = subscriber.get(key)
                self._mark(
                    keys, key, mirror is not None and mirror.value == record.value
                )

    def _subscriber_changed(
        self, index: int, kind: str, key: Any, mirror: Optional[Record]
    ) -> None:
        keys = self._matched_keys[index]
        if kind == "clear":
            self._matched -= len(keys)
            keys.clear()
        elif kind in _REMOVALS:
            self._mark(keys, key, False)
        else:
            record = self.publisher.get(key)
            self._mark(
                keys, key, record is not None and mirror.value == record.value
            )

    # -- sampling -----------------------------------------------------------
    def instantaneous(self, now: float) -> Optional[float]:
        """c(t) right now, or None if the live set is empty."""
        matched = self._matched
        matched_keys = self._matched_keys
        live = len(self.publisher)
        dead = self.publisher.lapsed(now)
        if dead:
            live -= len(dead)
            for record in dead:
                for keys in matched_keys:
                    if record.key in keys:
                        matched -= 1
        if not live:
            return None
        dead_keys = {record.key for record in dead} if dead else ()
        for keys, subscriber in zip(matched_keys, self.subscribers):
            for mirror in subscriber.lapsed(now):
                if mirror.key in keys and mirror.key not in dead_keys:
                    matched -= 1
        return matched / (live * len(self.subscribers))

    def observe(self, now: float) -> None:
        """Fold the interval since the last observation into the average."""
        if now < self._last_time:
            raise ValueError(
                f"time went backwards: {now} < {self._last_time}"
            )
        interval = now - self._last_time
        if interval > 0:
            self._accumulate(interval)
            self._total_duration += interval
            self._last_time = now
        self._last_value = self.instantaneous(now)
        if self._record_series:
            self._series.append((now, self._last_value))

    def _accumulate(self, interval: float) -> None:
        value = self._last_value
        if value is None:
            if self.empty_policy == "skip":
                return
            value = 0.0 if self.empty_policy == "zero" else 1.0
        self._weighted_sum += value * interval
        self._observed_duration += interval

    def _effective_value(self, value: Optional[float]) -> float:
        if value is not None:
            return value
        if self.empty_policy == "one":
            return 1.0
        return 0.0

    # -- results --------------------------------------------------------------
    def average(self) -> float:
        """E[c(t)]: the time average of c(t) so far."""
        if self._observed_duration == 0:
            return 0.0
        return self._weighted_sum / self._observed_duration

    @property
    def duration(self) -> float:
        """Total time folded into the average (excludes skipped gaps)."""
        return self._observed_duration

    def enable_series(self) -> None:
        """Record a (time, c(t)) series at every observation (Figure 8)."""
        self._record_series = True

    @property
    def series(self) -> List[Tuple[float, float]]:
        """(time, c(t)) per observation, empty live sets valued as in the
        ``zero``/``one`` policies (``skip`` reports them as 0)."""
        return [(t, self._effective_value(value)) for t, value in self._series]

    def running_average_series(self) -> List[Tuple[float, float]]:
        """(time, running E[c]) pairs — what Figure 8 actually plots.

        Each point equals :meth:`average` as of that observation, so
        under ``empty_policy="skip"`` empty intervals are left out.
        """
        result = []
        weighted = 0.0
        duration = 0.0
        skip = self.empty_policy == "skip"
        for (t0, value), (t1, _) in zip(self._series, self._series[1:]):
            if value is None and skip:
                continue
            weighted += self._effective_value(value) * (t1 - t0)
            duration += t1 - t0
            if duration > 0:
                result.append((t1, weighted / duration))
        return result

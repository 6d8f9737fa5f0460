"""Common scheduler interface.

A scheduler multiplexes several named classes (queues) onto one link.
Items are enqueued into a class; ``dequeue()`` returns the next
``(class_name, item)`` pair according to the discipline, or ``None``
when everything is empty.  Weights express the proportional share each
class should receive when it is continuously backlogged.

``remove`` is O(1): it leaves the entry in its queue and counts a
tombstone for the item instead of scanning.  Tombstones always cover
the *earliest* live occurrences of an item -- exactly the entries an
eager removal would have excised -- and are purged from the head after
every remove and dequeue, so every non-empty queue has a live head and
the disciplines see the same heads, in the same order, as with eager
removal.  Items must therefore be hashable.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, Optional, Tuple


class SchedulerError(Exception):
    """Raised for scheduler API misuse (unknown class, bad weight)."""


class Scheduler:
    """Base class holding per-class FIFO queues and weights."""

    def __init__(self) -> None:
        #: Per class, queued ``(item, size, tag)`` entries; ``tag`` is the
        #: discipline's per-entry stamp (see :meth:`_tag`).
        self._queues: Dict[str, Deque[Tuple[Any, float, Any]]] = {}
        self._weights: Dict[str, float] = {}
        self.served: Dict[str, int] = {}
        self.served_size: Dict[str, float] = {}
        #: Per class: live entries, live occurrences of each item, and
        #: removed occurrences of each item still sitting in the queue.
        self._live: Dict[str, int] = {}
        self._counts: Dict[str, Dict[Any, int]] = {}
        self._tombstones: Dict[str, Dict[Any, int]] = {}

    # -- class management ---------------------------------------------------
    def add_class(self, name: str, weight: float = 1.0) -> None:
        """Register a traffic class with a proportional-share weight."""
        if name in self._queues:
            raise SchedulerError(f"class {name!r} already exists")
        if weight <= 0:
            raise SchedulerError(f"weight must be positive, got {weight}")
        self._queues[name] = deque()
        self._live[name] = 0
        self._counts[name] = {}
        self._tombstones[name] = {}
        self._weights[name] = float(weight)
        self.served[name] = 0
        self.served_size[name] = 0.0
        self._on_class_added(name)

    def set_weight(self, name: str, weight: float) -> None:
        """Change a class's share (e.g. the allocator re-tuning hot/cold)."""
        self._require(name)
        if weight <= 0:
            raise SchedulerError(f"weight must be positive, got {weight}")
        self._weights[name] = float(weight)
        self._on_weight_changed(name)

    def weight(self, name: str) -> float:
        self._require(name)
        return self._weights[name]

    @property
    def classes(self) -> Iterable[str]:
        return self._queues.keys()

    # -- queue operations -----------------------------------------------------
    def enqueue(self, name: str, item: Any, size: float = 1.0) -> None:
        """Append ``item`` (with a service ``size``) to class ``name``."""
        self._require(name)
        if size <= 0:
            raise SchedulerError(f"size must be positive, got {size}")
        self._queues[name].append((item, size, self._tag(name, size)))
        self._live[name] += 1
        counts = self._counts[name]
        counts[item] = counts.get(item, 0) + 1
        self._on_enqueue(name, item, size)

    def dequeue(self) -> Optional[Tuple[str, Any]]:
        """Pop the next item per the discipline; None if all queues empty."""
        name = self._select()
        if name is None:
            return None
        item, size, tag = self._queues[name].popleft()
        self._forget(name, item)
        self._purge(name)
        self.served[name] += 1
        self.served_size[name] += size
        self._on_dequeue(name, item, size, tag)
        return name, item

    def backlog(self, name: str) -> int:
        """Live (not removed) items queued in class ``name``."""
        self._require(name)
        return self._live[name]

    def remove(self, name: str, item: Any) -> bool:
        """Remove the earliest queued occurrence of ``item`` (e.g. a
        record that just died); False if none is queued."""
        self._require(name)
        if item not in self._counts[name]:
            return False
        self._forget(name, item)
        tombstones = self._tombstones[name]
        tombstones[item] = tombstones.get(item, 0) + 1
        self._purge(name)
        return True

    def _forget(self, name: str, item: Any) -> None:
        """One live occurrence of ``item`` leaves class ``name``."""
        self._live[name] -= 1
        counts = self._counts[name]
        left = counts[item] - 1
        if left:
            counts[item] = left
        else:
            del counts[item]

    def _purge(self, name: str) -> None:
        """Pop removed entries off the head of class ``name``."""
        tombstones = self._tombstones[name]
        if not tombstones:
            return
        queue = self._queues[name]
        while queue:
            item = queue[0][0]
            stale = tombstones.get(item)
            if not stale:
                return
            queue.popleft()
            if stale == 1:
                del tombstones[item]
            else:
                tombstones[item] = stale - 1

    def __len__(self) -> int:
        return sum(self._live.values())

    def __contains__(self, name: str) -> bool:
        return name in self._queues

    # -- discipline hooks ------------------------------------------------------
    def _select(self) -> Optional[str]:
        """Return the class to serve next, or None.  Must be overridden."""
        raise NotImplementedError

    def _on_class_added(self, name: str) -> None:
        """Discipline-specific per-class state initialisation."""

    def _on_weight_changed(self, name: str) -> None:
        """React to a weight update."""

    def _tag(self, name: str, size: float) -> Any:
        """Stamp a new entry (e.g. an arrival order or finish time)."""
        return None

    def _on_enqueue(self, name: str, item: Any, size: float) -> None:
        """React to an enqueue."""

    def _on_dequeue(self, name: str, item: Any, size: float, tag: Any) -> None:
        """React to a dequeue (e.g. advance virtual time)."""

    # -- helpers -----------------------------------------------------------------
    def _require(self, name: str) -> None:
        if name not in self._queues:
            raise SchedulerError(f"unknown class {name!r}")

    def _backlogged(self) -> list[str]:
        return [name for name, queue in self._queues.items() if queue]

    def share_of(self, name: str) -> float:
        """Fraction of total service (by size) this class has received."""
        total = sum(self.served_size.values())
        if total == 0:
            return 0.0
        return self.served_size[name] / total

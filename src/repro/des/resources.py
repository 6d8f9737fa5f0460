"""Shared resources for the simulation kernel.

:class:`Store` — an unbounded FIFO queue of arbitrary Python objects
with a blocking ``get``: the service queue in front of every channel,
link and the Section 3 queueing model.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.des.core import Environment, Event


class Store:
    """An unbounded FIFO queue of items; ``get`` blocks while empty."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        # A deque: channels can build deep backlogs, and every get is an
        # O(1) head removal.
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Store ``item``; the returned event is already triggered."""
        event = Event(self.env)
        self.items.append(item)
        event.succeed()
        self._serve_getters()
        return event

    def get(self) -> Event:
        """Return an event that triggers with the next item."""
        event = Event(self.env)
        self._getters.append(event)
        self._serve_getters()
        return event

    def _serve_getters(self) -> None:
        items = self.items
        getters = self._getters
        while items and getters:
            getters.popleft().succeed(items.popleft())

"""Deficit round robin (Shreedhar & Varghese).

Each class has a quantum proportional to its weight and a deficit
counter; the scheduler cycles over backlogged classes, adding the
quantum and serving heads while the deficit covers their size.  O(1)
per decision and a good practical alternative to WFQ for equal-size
announcement packets.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.sched.base import Scheduler


class DrrScheduler(Scheduler):
    """Deficit round robin proportional-share scheduler."""

    def __init__(self, quantum: float = 1.0) -> None:
        super().__init__()
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.quantum = quantum
        self._deficit: Dict[str, float] = {}
        self._round: list[str] = []
        self._cursor = 0
        #: True when the cursor just arrived at a class that has not yet
        #: received its quantum for this visit.
        self._fresh_visit = True

    def _on_class_added(self, name: str) -> None:
        self._deficit[name] = 0.0
        self._round.append(name)

    def _advance(self) -> None:
        self._cursor += 1
        self._fresh_visit = True

    def _select(self) -> Optional[str]:
        backlogged = set(self._backlogged())
        if not backlogged:
            return None
        # Walk the round-robin ring; each backlogged class receives its
        # quantum once per visit and is served while the deficit lasts.
        max_steps = max(
            len(self._round) + 1,
            int(
                max(self._queues[n][0][1] for n in backlogged)
                / (self.quantum * min(self._weights[n] for n in backlogged))
            )
            * len(self._round)
            + len(self._round)
            + 1,
        )
        for _ in range(max_steps):
            name = self._round[self._cursor % len(self._round)]
            if name not in backlogged:
                self._deficit[name] = 0.0  # idle classes keep no credit
                self._advance()
                continue
            if self._fresh_visit:
                self._deficit[name] += self.quantum * self._weights[name]
                self._fresh_visit = False
            head_size = self._queues[name][0][1]
            if self._deficit[name] >= head_size:
                return name
            self._advance()
        # Unreachable in practice; keep the system live regardless.
        name = next(iter(backlogged))
        self._deficit[name] = self._queues[name][0][1]
        return name

    def _on_dequeue(self, name: str, item: Any, size: float, tag: Any) -> None:
        self._deficit[name] -= size
        if not self._queues[name]:
            self._deficit[name] = 0.0
            self._advance()

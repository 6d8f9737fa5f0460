"""Stride scheduling (Waldspurger & Weihl, MIT/LCS/TM-528).

The deterministic counterpart of lottery scheduling: each class has a
``stride`` inversely proportional to its tickets and a ``pass`` value;
the backlogged class with the smallest pass is served and its pass
advances by stride x size.  A class that becomes backlogged re-enters at
the current global pass so it cannot hoard credit while idle.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.sched.base import Scheduler

#: Numerator used to derive strides from weights (large to limit
#: rounding skew, as in the original paper's stride1 constant).
STRIDE1 = 1 << 20


class StrideScheduler(Scheduler):
    """Deterministic proportional-share scheduler."""

    def __init__(self) -> None:
        super().__init__()
        self._pass: Dict[str, float] = {}
        self._global_pass = 0.0

    def _stride(self, name: str) -> float:
        return STRIDE1 / self._weights[name]

    def _on_class_added(self, name: str) -> None:
        self._pass[name] = self._global_pass

    def _on_enqueue(self, name: str, item: Any, size: float) -> None:
        # A queue waking from idle joins at the current global pass;
        # without this it would have accumulated unbounded credit.
        if self._live[name] == 1:
            self._pass[name] = max(self._pass[name], self._global_pass)

    def _select(self) -> Optional[str]:
        backlogged = self._backlogged()
        if not backlogged:
            return None
        return min(backlogged, key=lambda n: (self._pass[n], n))

    def _on_dequeue(self, name: str, item: Any, size: float, tag: Any) -> None:
        self._pass[name] += self._stride(name) * size
        self._global_pass = min(
            (self._pass[n] for n in self._backlogged()),
            default=self._pass[name],
        )

"""The fleet's global simulated clock and event queue.

A fleet run is a discrete-event simulation over *global* time: each
device session keeps its own session-local clock (exactly the
single-session ``OffloadSession.now()``), and the scheduler maps it to
the fleet timeline by adding the device's start offset.  The scheduler
pops events strictly in global-time order through an
:class:`EventQueue`; :class:`SimClock` tracks the high-water mark so a
misordered event (which would mean the simulation invariants broke)
fails loudly instead of silently corrupting the queueing model.  The
full API contract — including how to add a new event type — is
documented in docs/simulator.md.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple


class SimClock:
    """Monotonic global simulation time."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> float:
        """Move the clock forward to ``t``; rejects travel to the past
        (events must be served in nondecreasing global time)."""
        if t < self._now - 1e-12:
            raise RuntimeError(
                f"simulation clock moving backwards: {self._now} -> {t}")
        if t > self._now:
            self._now = t
        return self._now


class EventQueue:
    """A min-heap of ``(time, key)`` events with FIFO tie-breaking.

    ``key`` orders simultaneous events (the fleet uses the device index,
    so ties resolve by device id — deterministic and documented in
    docs/fleet.md); ``seq`` preserves insertion order beneath that.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, object]] = []
        self._seq = 0

    def push(self, t: float, key: int, payload: object = None) -> None:
        heapq.heappush(self._heap, (t, key, self._seq, payload))
        self._seq += 1

    def pop(self) -> Tuple[float, int, object]:
        t, key, _, payload = heapq.heappop(self._heap)
        return t, key, payload

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

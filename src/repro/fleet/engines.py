"""Pluggable placement engines: *where* an admitted invocation runs.

The :class:`~repro.fleet.pool.ServerPool` owns admission mechanics —
queue-room eligibility, the rejection quote, slot bookkeeping — but the
*ranking* of eligible servers is policy, extracted here behind the
:class:`DecisionEngine` interface (okec models placement exactly this
way: swappable decision engines over heterogeneous edge servers).

The pool hands an engine one :class:`Candidate` per eligible server
(queue-room already checked) plus the :class:`PlacementRequest`; the
engine returns the candidate to admit.  Engines never mutate anything —
selection is a pure function of the candidates, which is what keeps the
event-driven replay sound (docs/simulator.md) and the ``fifo`` engine
byte-identical to the historical admission arithmetic.

Four engines ship (docs/placement.md):

* ``fifo`` — the historical behavior and the default: least wait,
  server id as the tie-break.
* ``worst-fit`` — most free slots first; spreads load across the pool
  so no single server builds a deep queue.
* ``best-fit`` — least sufficient: the tightest server that can still
  start the invocation now, keeping big servers free for bursts.
* ``deadline-aware`` — minimizes the *expected finish time* (wait plus
  a per-server service estimate that reflects the server's speed),
  preferring servers that meet the request's deadline and refusing
  placement entirely (admission control) when none can.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class PlacementRequest:
    """One admission request as the engines see it."""

    target: str
    arrival_t: float
    #: Absolute global time the invocation should finish by (None =
    #: no deadline).  The pool computes it from the device's relative
    #: ``deadline_s`` at admission time.
    deadline_t: Optional[float] = None


@dataclass
class Candidate:
    """One eligible server, snapshotted at the request's arrival time.

    ``wait`` is the hindsight-exact queueing delay the request would
    face there; ``free_slots`` the number of idle execution slots at
    arrival (``wait > 0`` implies 0); ``queue_len`` the invocations
    already waiting.  ``spec``/``stats`` expose the server's
    :class:`~repro.fleet.pool.ServerSpec` and accumulated
    :class:`~repro.fleet.pool.ServerStats` for policy use.  ``server``
    is the pool-internal object the pool maps the choice back to —
    engines must treat it as opaque.
    """

    server_id: int
    wait: float
    free_slots: int
    queue_len: int
    spec: object
    stats: object
    slot_idx: int
    server: object


class DecisionEngine:
    """Ranks eligible servers for one admission request.

    ``select`` receives a non-empty candidate list in server-id order
    and returns the winner, or ``None`` to refuse placement outright —
    admission control: the pool then issues the same
    :class:`~repro.fleet.pool.Rejection` it would for a full pool and
    the device falls back to local execution.  Implementations must be
    deterministic and side-effect free; ties must break on
    ``server_id`` so two same-seed runs place identically
    (docs/fleet.md, "Determinism contract").
    """

    name = "engine"

    def select(self, candidates: Sequence[Candidate],
               request: PlacementRequest) -> Optional[Candidate]:
        raise NotImplementedError

    def select_gang(self, candidates: Sequence[Candidate],
                    request: PlacementRequest,
                    shards: int) -> List[Candidate]:
        """Place up to ``shards`` gang members for one scatter/gather
        plan (docs/parallel-offload.md) over zero-wait candidates.

        The default derives gang placement from ``select``: repeatedly
        pick the engine's best candidate, decrementing that server's
        free-slot count between picks, until the gang is full, the pool
        runs out of free slots, or the engine refuses — ending the gang
        early degrades the plan to fewer shards, never to a partial
        deadlock.  Deterministic because ``select`` is.  A returned
        member may name the same server several times; the pool maps
        each pick to a distinct free slot."""
        members: List[Candidate] = []
        live = list(candidates)
        while len(members) < shards and live:
            chosen = self.select(live, request)
            if chosen is None:
                break
            members.append(chosen)
            remaining = []
            for candidate in live:
                if candidate is chosen:
                    if candidate.free_slots > 1:
                        remaining.append(replace(
                            candidate,
                            free_slots=candidate.free_slots - 1))
                else:
                    remaining.append(candidate)
            live = remaining
        return members


class FifoEngine(DecisionEngine):
    """The historical policy: least wait, then lowest server id.

    Byte-identical to the pre-engine ``ServerPool.admit`` arithmetic —
    the differential test holds a ``fifo`` pool to the default pool's
    exact output (tests/test_fleet_differential.py)."""

    name = "fifo"

    def select(self, candidates, request):
        return min(candidates, key=lambda c: (c.wait, c.server_id))


class WorstFitEngine(DecisionEngine):
    """Most free slots first (okec's worst-fit): spread the load.

    Prefers the emptiest server, falling back to least wait once the
    pool is saturated (every candidate at 0 free slots)."""

    name = "worst-fit"

    def select(self, candidates, request):
        return min(candidates,
                   key=lambda c: (-c.free_slots, c.wait, c.server_id))


class BestFitEngine(DecisionEngine):
    """Least sufficient: the tightest server that can still serve now.

    Among servers with an idle slot, picks the one with the *fewest*
    idle slots (packing invocations tightly so large servers stay free
    for bursts); once everything is busy it degrades to least wait.
    ``wait > 0`` implies ``free_slots == 0``, so the composite key
    orders idle servers strictly before queued ones."""

    name = "best-fit"

    def select(self, candidates, request):
        return min(candidates,
                   key=lambda c: (c.wait, c.free_slots, c.server_id))


class DeadlineAwareEngine(DecisionEngine):
    """Minimize expected finish time; respect deadlines.

    The expected finish on a server is its queueing wait plus a service
    estimate — that server's mean observed service time when it has
    history, otherwise the pool-wide speed-normalized mean scaled by
    the server's speed multiplier, so a 4x cloud server is expected to
    finish in a quarter of the time even before its first admission.
    Candidates that meet ``request.deadline_t`` always outrank ones
    that miss it; within each group the earliest expected finish wins.
    When the request carries a deadline and *no* candidate is expected
    to meet it, the engine refuses placement (returns ``None``) — the
    request is rejected and the device falls back to local execution
    rather than queueing past its deadline.  That admission control is
    what bounds the queue-wait tail under overload
    (benchmarks/test_policy_comparison.py).  With no deadline and no
    history this degrades to ``fifo``.
    """

    name = "deadline-aware"

    @staticmethod
    def _service_estimate(candidate: Candidate,
                          candidates: Sequence[Candidate]) -> float:
        stats = candidate.stats
        if stats.admitted:
            return stats.busy_seconds / stats.admitted
        served = sum(c.stats.admitted for c in candidates)
        if served:
            # Speed-normalized pool mean: each server's observed
            # service times scaled back to speed 1.0, then rescaled to
            # this candidate's speed.
            normalized = sum(c.stats.busy_seconds * c.spec.speed
                             for c in candidates) / served
            return normalized / candidate.spec.speed
        return 0.0

    def select(self, candidates, request):
        def key(c):
            finish = (request.arrival_t + c.wait
                      + self._service_estimate(c, candidates))
            misses = (request.deadline_t is not None
                      and finish > request.deadline_t)
            return (misses, finish, c.server_id)
        chosen = min(candidates, key=key)
        if key(chosen)[0]:      # even the best candidate misses
            return None
        return chosen


#: Engine names accepted by :func:`make_engine` and the CLI's
#: ``--engine`` flag, in documentation order.  ``fifo`` is the default.
DECISION_ENGINES = ("fifo", "worst-fit", "best-fit", "deadline-aware")
DEFAULT_DECISION_ENGINE = "fifo"

_ENGINE_CLASSES = {
    "fifo": FifoEngine,
    "worst-fit": WorstFitEngine,
    "best-fit": BestFitEngine,
    "deadline-aware": DeadlineAwareEngine,
}


def make_engine(engine) -> DecisionEngine:
    """Resolve an engine name (or pass through an instance)."""
    if isinstance(engine, DecisionEngine):
        return engine
    cls = _ENGINE_CLASSES.get(engine)
    if cls is None:
        raise ValueError(
            f"unknown decision engine {engine!r}; "
            f"expected one of {DECISION_ENGINES}")
    return cls()

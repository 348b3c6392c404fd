"""Placement engines: *where* an admitted invocation runs.

The :class:`~repro.fleet.pool.ServerPool` owns admission mechanics —
queue-room eligibility, the rejection quote, slot bookkeeping and the
one loop that picks — but the *ranking* of eligible servers is policy,
and a policy here is nothing more than its ranking key (okec models
placement the same way: swappable decision engines over heterogeneous
edge servers).

:data:`ENGINES` maps each engine name to ``rank(candidate, request,
live)``: the key of one :class:`Candidate` for the
:class:`PlacementRequest`, given the ``live`` candidates it competes
with.  The pool admits the candidate with the least key; ``None`` means
the candidate is not acceptable, and when no candidate is, the pool
refuses placement.  Ranks never mutate anything — they are pure
functions of their arguments, which is what keeps the event-driven
replay sound (docs/simulator.md) and the ``fifo`` engine byte-identical
to the historical admission arithmetic.

Four engines ship (docs/placement.md):

* ``fifo`` — the historical behavior and the default: least wait,
  server id as the tie-break.
* ``worst-fit`` — most free slots first; spreads load across the pool
  so no single server builds a deep queue.
* ``best-fit`` — least sufficient: the tightest server that can still
  start the invocation now, keeping big servers free for bursts.
* ``deadline-aware`` — minimizes the *expected finish time* (wait plus
  a per-server service estimate that reflects the server's speed) and
  refuses placement entirely (admission control) when no server is
  expected to meet the request's deadline.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence


class PlacementRequest(NamedTuple):
    """One admission request as the engines see it (a tuple: the pool
    builds one per admission)."""

    target: str
    arrival_t: float
    #: Absolute global time the invocation should finish by (None =
    #: no deadline).  The pool computes it from the device's relative
    #: ``deadline_s`` at admission time.
    deadline_t: Optional[float] = None


class Candidate(NamedTuple):
    """One eligible server, snapshotted at the request's arrival time
    (an immutable tuple: the pool builds one per server per admission,
    and a pick's lost free slot is a ``_replace``d copy).

    ``wait`` is the hindsight-exact queueing delay the request would
    face there; ``free_slots`` the number of idle execution slots at
    arrival (``wait > 0`` implies 0).  ``spec``/``stats`` expose the
    server's :class:`~repro.fleet.pool.ServerSpec` and accumulated
    :class:`~repro.fleet.pool.ServerStats` for policy use.
    """

    server_id: int
    wait: float
    free_slots: int
    spec: object
    stats: object


def _fifo(c, request, live):
    """Least wait, then lowest server id — byte-identical to the
    pre-engine ``ServerPool.admit`` arithmetic (the differential test
    holds a ``fifo`` pool to the default pool's exact output)."""
    return (c.wait, c.server_id)


def _worst_fit(c, request, live):
    """Most free slots first (okec's worst-fit): spread the load;
    least wait once every candidate is at 0 free slots."""
    return (-c.free_slots, c.wait, c.server_id)


def _best_fit(c, request, live):
    """Least sufficient: among servers with an idle slot the one with
    the *fewest*, packing invocations so large servers stay free for
    bursts.  ``wait > 0`` implies ``free_slots == 0``, so idle servers
    order strictly before queued ones."""
    return (c.wait, c.free_slots, c.server_id)


def _service_estimate(c: Candidate, live: Sequence[Candidate]) -> float:
    """The server's mean observed service time when it has history,
    otherwise the pool-wide speed-normalized mean rescaled to its
    speed (a 4x cloud server is expected to finish in a quarter of the
    time before its first admission), otherwise zero."""
    stats = c.stats
    if stats.admitted:
        return stats.busy_seconds / stats.admitted
    served = sum(o.stats.admitted for o in live)
    if served:
        normalized = sum(o.stats.busy_seconds * o.spec.speed
                         for o in live) / served
        return normalized / c.spec.speed
    return 0.0


def _deadline_aware(c, request, live):
    """Earliest expected finish (arrival + wait + service estimate);
    ``None`` — not acceptable — when the request carries a deadline the
    finish misses.  A request no candidate can serve in time is refused
    and runs locally rather than queueing past its deadline: that
    admission control bounds the queue-wait tail under overload
    (benchmarks/test_policy_comparison.py).  With no deadline and no
    history this ranks like ``fifo``."""
    finish = request.arrival_t + c.wait + _service_estimate(c, live)
    if request.deadline_t is not None and finish > request.deadline_t:
        return None
    return (finish, c.server_id)


#: Engine name -> ``rank(candidate, request, live)``, in documentation
#: order; the CLI's ``--engine`` flag accepts exactly these names.
ENGINES = {
    "fifo": _fifo,
    "worst-fit": _worst_fit,
    "best-fit": _best_fit,
    "deadline-aware": _deadline_aware,
}
DECISION_ENGINES = tuple(ENGINES)
DEFAULT_DECISION_ENGINE = "fifo"

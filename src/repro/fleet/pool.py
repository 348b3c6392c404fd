"""The contended server pool: heterogeneous tiers, slots, bounded queues.

Replaces the paper's dedicated offload server with N servers described
by per-server :class:`ServerSpec` records (speed multiplier, capacity,
queue depth, tier, network profile).  Admission is hindsight-exact
because the fleet scheduler serves requests in global-arrival order
*after* the previous occupant's release has been recorded (the
event-driven core applies each admission's replayed release before
serving the next request — docs/simulator.md), so each slot's
``busy_until`` is an actual completion time, never a guess:

* ``admit`` and ``admit_gang`` snapshot every eligible server into a
  :class:`~repro.fleet.engines.Candidate` and place through one pick
  loop ranked by the pool's engine (``fifo`` — the default —
  reproduces the historical (wait, server-id)-least routing byte for
  byte), returning :class:`~repro.runtime.backend.Admission` grants whose
  ``queue_seconds`` the device charges to its timeline and battery
  exactly like link time;
* a request finding every eligible queue full, or no candidate the
  engine accepts, gets a
  :class:`~repro.runtime.backend.Rejection` quoting the wait it would
  have faced — the device degrades to local execution and the quote
  feeds the estimator's contention term (docs/fleet.md).

Tiers (docs/placement.md): an ``edge`` server is cheap-near — the
device keeps its own base :class:`~repro.runtime.network.NetworkModel`;
a ``cloud`` server is fast-far — its spec usually carries a higher
``speed`` and a WAN ``network`` override that the comm layer uses for
every byte of that invocation.  The :class:`~repro.fleet.autoscaler.
Autoscaler` may grow or shrink the pool mid-run via ``add_server`` /
``remove_server``; retired servers keep their stats for reporting.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from math import inf
from typing import Dict, List, Optional, Tuple, Union

from ..runtime.backend import Admission, Rejection
from ..runtime.network import NetworkModel
from .engines import (DECISION_ENGINES, DEFAULT_DECISION_ENGINE, ENGINES,
                      Candidate, PlacementRequest)
from .spec import MAX_COUNT

#: Valid ``ServerSpec.tier`` names: ``edge`` is cheap-near (device keeps
#: its own link), ``cloud`` is fast-far (spec carries a WAN override).
TIERS = ("edge", "cloud")


@dataclass(frozen=True)
class ServerSpec:
    """One server's shape: how fast, how wide, how far away.

    ``speed`` divides server-side compute time (2.0 = twice the
    reference server of the paper's Table 1).  ``network`` is the
    :class:`~repro.runtime.network.NetworkModel` an admitted device
    talks through for that invocation; None keeps the device's own
    link, which is what an edge-tier server means.
    """

    speed: float = 1.0
    capacity: int = 1              # concurrent invocations
    # Max invocations *waiting* (service not yet started); None =
    # unbounded.  0 is rejected at construction: use capacity to size
    # concurrency, not a queue nobody may join.
    queue_limit: Optional[int] = None
    tier: str = "edge"
    network: Optional[NetworkModel] = None

    def __post_init__(self) -> None:
        if self.speed <= 0.0:
            raise ValueError("server speed must be > 0")
        if self.capacity <= 0:
            raise ValueError("servers need at least one slot")
        if self.capacity > MAX_COUNT:
            raise ValueError(f"capacity must be at most {MAX_COUNT:,} "
                             f"slots; got {self.capacity}")
        if self.queue_limit is not None and self.queue_limit <= 0:
            raise ValueError("queue_limit must be positive (or None)")
        if self.tier not in TIERS:
            raise ValueError(
                f"unknown tier {self.tier!r}; expected one of {TIERS}")


@dataclass(frozen=True)
class PoolOptions:
    """Shape of the server pool.

    Two ways to describe it: the homogeneous knobs (``servers`` ×
    ``capacity`` identical edge servers, the historical form), or an
    explicit ``specs`` tuple of :class:`ServerSpec` for heterogeneous
    or tiered pools.  When ``specs`` is given it wins and the
    homogeneous knobs are ignored.
    """

    servers: int = 1
    capacity: int = 1              # concurrent invocations per server
    # Max invocations *waiting* (service not yet started) per server;
    # None = unbounded.
    queue_limit: Optional[int] = None
    specs: Optional[Tuple[ServerSpec, ...]] = None

    def __post_init__(self) -> None:
        # checked first: ``specs`` may be an iterable sized by it
        if self.servers > MAX_COUNT:
            raise ValueError(f"servers must be at most {MAX_COUNT:,}; "
                             f"got {self.servers}")
        if self.specs is not None:
            object.__setattr__(self, "specs", tuple(self.specs))
            if not self.specs:
                raise ValueError("specs must name at least one server")
        elif self.servers <= 0:
            raise ValueError("pool needs at least one server")
        if self.capacity <= 0:
            raise ValueError("servers need at least one slot")
        if self.queue_limit is not None and self.queue_limit <= 0:
            raise ValueError("queue_limit must be positive (or None)")

    def server_specs(self) -> Tuple[ServerSpec, ...]:
        """The per-server specs, expanding the homogeneous knobs."""
        if self.specs is not None:
            return self.specs
        return tuple(ServerSpec(capacity=self.capacity,
                                queue_limit=self.queue_limit)
                     for _ in range(self.servers))


@dataclass
class ServerStats:
    """Per-server accounting, reported by the fleet summary."""

    server_id: int
    admitted: int = 0
    rejected: int = 0
    busy_seconds: float = 0.0       # slot-seconds actually in service
    queue_delay_total: float = 0.0  # sum of admitted waits
    queued_admissions: int = 0      # admissions that had to wait
    max_queue_depth: int = 0        # peak waiting invocations
    # Admissions that were members of a scatter/gather gang
    # (docs/parallel-offload.md) — a subset of ``admitted``, surfaced
    # in servers_detail so shard fan-out is visible per server.
    shard_admissions: int = 0

    def utilization(self, horizon_s: float, capacity: int) -> float:
        if horizon_s <= 0.0:
            return 0.0
        return min(1.0, self.busy_seconds / (horizon_s * capacity))


class _Server:
    def __init__(self, server_id: int, spec: ServerSpec):
        self.id = server_id
        self.spec = spec
        self.slots = [0.0] * spec.capacity  # busy_until, actual releases
        # The same slot times as ``(busy_until, index)`` pairs, kept
        # ascending by ``occupy`` so ``outlook`` never sorts.
        self.order = [(0.0, i) for i in range(spec.capacity)]
        self.pending_starts: List[float] = []
        self.stats = ServerStats(server_id=server_id)
        self.active = True              # autoscaler may retire a server

    def purge(self, arrival_t: float) -> None:
        if self.pending_starts:
            self.pending_starts = [s for s in self.pending_starts
                                   if s > arrival_t]

    def occupy(self, slot_idx: int, busy_until: float) -> None:
        """Set one slot's ``busy_until`` — the only write to a slot
        time, so ``slots`` and ``order`` never disagree."""
        order = self.order
        del order[bisect_left(order, (self.slots[slot_idx], slot_idx))]
        insort(order, (busy_until, slot_idx))
        self.slots[slot_idx] = busy_until

    def outlook(self, arrival_t: float):
        """What a request arriving now finds here: the slot that frees
        first — lowest ``busy_until``, then lowest index, the head of
        ``order`` — the wait it would face on that slot, and how many
        slots are free (one bisection of ``order``).

        Asked once per server per admit, so it never visits every
        slot: admission cost must not grow with capacity."""
        order = self.order
        busy_until, slot_idx = order[0]
        return (slot_idx, max(0.0, busy_until - arrival_t),
                bisect_right(order, (arrival_t, inf)))


class ServerPool:
    """Admission control for a fleet of devices sharing N servers."""

    def __init__(self, options: Optional[PoolOptions] = None,
                 engine: str = DEFAULT_DECISION_ENGINE):
        if engine not in ENGINES:
            raise ValueError(
                f"unknown decision engine {engine!r}; "
                f"expected one of {DECISION_ENGINES}")
        self.options = options or PoolOptions()
        self.engine_name = engine
        self._rank = ENGINES[engine]
        self._servers = [_Server(i, spec) for i, spec
                         in enumerate(self.options.server_specs())]
        self._outstanding = 0
        self.total_rejected = 0

    # -- admission -----------------------------------------------------
    def admit(self, target_name: str, arrival_t: float,
              deadline_s: Optional[float] = None,
              ) -> Union[Admission, Rejection]:
        """Route one offload request arriving at global ``arrival_t``.

        Must be called in nondecreasing arrival order with every prior
        admission already released (both fleet engines guarantee this
        admit/release interleaving — docs/fleet.md, "Scheduling
        model"; direct users replay history the same way).
        ``deadline_s`` is the request's relative deadline; the engine
        sees it as the absolute ``arrival_t + deadline_s``.
        """
        outcome = self._place(target_name, arrival_t, deadline_s, 1)
        return outcome if isinstance(outcome, Rejection) else outcome[0]

    def admit_gang(self, target_name: str, arrival_t: float,
                   shards: int, deadline_s: Optional[float] = None,
                   ) -> Union[List[Admission], Rejection]:
        """Atomically place up to ``shards`` gang members for one
        scatter/gather plan (docs/parallel-offload.md).

        All-or-degrade-to-fewer: only slots free *now* are eligible —
        a queued shard would serialize the plan behind another device's
        invocation, so gang members never wait — and servers whose spec
        carries a network override are excluded (the session has one
        link; a plan cannot speak two).  Fewer free slots than shards
        means a smaller gang; none at all, or an engine that places
        nobody, degrades to one classic admission (which may queue or
        be rejected).  Partial admission can never deadlock: every
        granted member holds a slot that was free at ``arrival_t``, so
        no member ever waits on another.
        """
        return self._place(target_name, arrival_t, deadline_s, shards)

    def _place(self, target_name: str, arrival_t: float,
               deadline_s: Optional[float], width: int,
               ) -> Union[List[Admission], Rejection]:
        """Both admissions: a gang of up to ``width`` zero-wait members
        when ``width > 1``, else — or when no member was placed — one
        classic admission, else a rejection."""
        if self._outstanding:
            raise RuntimeError(
                "admit() with an unreleased admission outstanding — "
                "requests must be served in discrete-event order "
                "(docs/fleet.md, 'Scheduling model')")
        candidates, first_slot, min_wait = self._snapshot(arrival_t)
        request = PlacementRequest(
            target_name, arrival_t,
            None if deadline_s is None else arrival_t + deadline_s)
        if width > 1:
            members = self._pick(
                [c for c in candidates
                 if c.free_slots and c.spec.network is None],
                request, width)
            if members:
                # A gang takes each server's free slots in index order;
                # the picks name a server at most once per free slot.
                free = {sid: [i for i, busy_until
                              in enumerate(self._servers[sid].slots)
                              if busy_until <= arrival_t]
                        for sid in {c.server_id for c in members}}
                return [self._grant(c, free[c.server_id].pop(0),
                                    arrival_t, deadline_s, shard=True)
                        for c in members]
        picks = self._pick(candidates, request, 1)
        if not picks:
            return self._refuse(candidates, arrival_t, min_wait)
        chosen = picks[0]
        return [self._grant(chosen, first_slot[chosen.server_id],
                            arrival_t, deadline_s, shard=False)]

    def _snapshot(self, arrival_t: float):
        """The one eligibility snapshot: a :class:`Candidate` per active
        server with queue room, the slot that frees first on each (the
        one a classic admission takes), and the least wait on any
        active server (the rejection quote)."""
        candidates: List[Candidate] = []
        first_slot: Dict[int, int] = {}
        min_wait = None
        for server in self._servers:
            if not server.active:
                continue
            server.purge(arrival_t)
            slot_idx, wait, free_slots = server.outlook(arrival_t)
            if min_wait is None or wait < min_wait:
                min_wait = wait
            limit = server.spec.queue_limit
            if (wait > 0.0 and limit is not None
                    and len(server.pending_starts) >= limit):
                continue            # this queue is full
            candidates.append(Candidate(server.id, wait, free_slots,
                                        server.spec, server.stats))
            first_slot[server.id] = slot_idx
        return candidates, first_slot, min_wait

    def _pick(self, candidates: List[Candidate],
              request: PlacementRequest, width: int) -> List[Candidate]:
        """The one place a placement is decided: up to ``width`` picks,
        each the live candidate with the least engine rank.  A pick
        costs its server one free slot, and a server out of free slots
        leaves ``live``; the picks end early when every live candidate
        ranks ``None`` (the engine refuses them all) — for a gang that
        means fewer shards, for a classic admission a rejection."""
        rank = self._rank
        picks: List[Candidate] = []
        live = candidates
        while live:
            chosen = least = None
            for candidate in live:
                key = rank(candidate, request, live)
                if key is not None and (least is None or key < least):
                    chosen, least = candidate, key
            if chosen is None:
                break
            picks.append(chosen)
            if len(picks) == width:
                break
            live = [c._replace(free_slots=c.free_slots - 1)
                    if c is chosen else c
                    for c in live if c is not chosen or c.free_slots > 1]
        return picks

    def _grant(self, chosen: Candidate, slot_idx: int, arrival_t: float,
               deadline_s: Optional[float], shard: bool) -> Admission:
        """Reserve ``slot_idx`` on the chosen server from ``arrival_t``
        plus its wait, and account for it."""
        server = self._servers[chosen.server_id]
        wait = chosen.wait
        start = arrival_t + wait
        server.occupy(slot_idx, start)   # resolved by release()
        stats = server.stats
        stats.admitted += 1
        stats.queue_delay_total += wait
        if wait > 0.0:
            server.pending_starts.append(start)
            stats.queued_admissions += 1
            stats.max_queue_depth = max(stats.max_queue_depth,
                                        len(server.pending_starts))
        if shard:
            stats.shard_admissions += 1
        self._outstanding += 1
        spec = server.spec
        return Admission(server.id, wait, start,
                         (server.id, slot_idx, start), spec.speed,
                         spec.network, spec.tier, deadline_s)

    def _refuse(self, candidates: List[Candidate], arrival_t: float,
                min_wait: Optional[float]) -> Rejection:
        """Reject the request, charging the refusal to the eligible
        server closest to free — or, when every queue is full, to the
        closest server — and quoting the least wait anywhere.  An
        engine refusal (e.g. ``deadline-aware`` with no candidate
        expected to meet the deadline) ends like a full pool: the
        device falls back to local."""
        self.total_rejected += 1
        if candidates:
            stats = min(candidates,
                        key=lambda c: (c.wait, c.server_id)).stats
        else:
            stats = min((s for s in self._servers if s.active),
                        key=lambda s: (s.outlook(arrival_t)[1],
                                       s.id)).stats
        stats.rejected += 1
        return Rejection(estimated_wait_s=min_wait or 0.0)

    def release(self, admission: Admission, end_t: float) -> None:
        """The admitted invocation finished at global ``end_t``."""
        server_id, slot_idx, start = admission.token
        server = self._servers[server_id]
        if end_t < start:
            raise RuntimeError(
                f"release at {end_t} before service start {start}")
        server.occupy(slot_idx, end_t)
        server.stats.busy_seconds += end_t - start
        self._outstanding -= 1

    # -- elasticity (docs/placement.md, "Autoscaler") ------------------
    def add_server(self, spec: ServerSpec) -> int:
        """Grow the pool by one server; returns its (fresh) id.

        Server ids are never reused, so traces and stats stay
        unambiguous across scale-down/scale-up cycles.
        """
        server = _Server(len(self._servers), spec)
        self._servers.append(server)
        return server.id

    def remove_server(self, server_id: int, now_t: float) -> bool:
        """Retire a server if it is idle; returns whether it happened.

        A server still serving (a slot busy past ``now_t``) or with
        queued starts is left alone — the autoscaler retries on a later
        tick.  The last active server can never be retired.  Retired
        servers keep their stats for the fleet summary.
        """
        server = self._servers[server_id]
        if not server.active or self.active_servers <= 1:
            return False
        server.purge(now_t)
        if server.pending_starts or any(busy > now_t
                                        for busy in server.slots):
            return False
        server.active = False
        return True

    @property
    def active_servers(self) -> int:
        return sum(1 for s in self._servers if s.active)

    # -- reporting -----------------------------------------------------
    @property
    def stats(self) -> List[ServerStats]:
        return [s.stats for s in self._servers]

    @property
    def total_queue_delay_s(self) -> float:
        return sum(s.stats.queue_delay_total for s in self._servers)

    def utilization(self, horizon_s: float) -> Dict[int, float]:
        return {s.id: s.stats.utilization(horizon_s, s.spec.capacity)
                for s in self._servers}

    def servers_detail(self, horizon_s: float) -> List[dict]:
        """Per-server summary rows (FleetResult.summary, report table)."""
        rows = []
        for server in self._servers:
            s = server.stats
            rows.append({
                "id": s.server_id,
                "tier": server.spec.tier,
                "speed": server.spec.speed,
                "capacity": server.spec.capacity,
                "active": server.active,
                "admitted": s.admitted,
                "shard_admissions": s.shard_admissions,
                "rejected": s.rejected,
                "busy_seconds": s.busy_seconds,
                "queue_delay_s": s.queue_delay_total,
                "queued_admissions": s.queued_admissions,
                "max_queue_depth": s.max_queue_depth,
                "utilization": s.utilization(horizon_s,
                                             server.spec.capacity),
            })
        return rows

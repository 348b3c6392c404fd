"""The contended server pool: heterogeneous tiers, slots, bounded queues.

Replaces the paper's dedicated offload server with N servers described
by per-server :class:`ServerSpec` records (speed multiplier, capacity,
queue depth, tier, network profile).  Admission is hindsight-exact
because the fleet scheduler serves requests in global-arrival order
*after* the previous occupant's release has been recorded (the
event-driven core applies each admission's replayed release before
serving the next request — docs/simulator.md), so each slot's
``busy_until`` is an actual completion time, never a guess:

* ``admit`` snapshots every eligible server into a
  :class:`~repro.fleet.engines.Candidate` and lets the pool's
  :class:`~repro.fleet.engines.DecisionEngine` pick the placement
  (``fifo`` — the default — reproduces the historical
  (wait, server-id)-least routing byte for byte), returning an
  :class:`~repro.runtime.backend.Admission` whose ``queue_seconds`` the
  device charges to its timeline and battery exactly like link time;
* a request finding every eligible queue full gets a
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

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..runtime.backend import Admission, Rejection
from ..runtime.network import NetworkModel
from .engines import (Candidate, DecisionEngine, PlacementRequest,
                      make_engine)

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
        self.pending_starts: List[float] = []
        self.stats = ServerStats(server_id=server_id)
        self.active = True              # autoscaler may retire a server

    def purge(self, arrival_t: float) -> None:
        if self.pending_starts:
            self.pending_starts = [s for s in self.pending_starts
                                   if s > arrival_t]

    def outlook(self, arrival_t: float):
        """What a request arriving now finds here: the slot that frees
        first — lowest ``busy_until``, then lowest index (``list.index``
        returns the first of equals) — the wait it would face on that
        slot, and how many slots are free.

        Asked once per server per admit, so one C-level sort of the
        slot times answers all three; a Python loop over the slots here
        is what made admission cost grow with capacity."""
        order = sorted(self.slots)
        busy_until = order[0]
        return (self.slots.index(busy_until),
                max(0.0, busy_until - arrival_t),
                bisect_right(order, arrival_t))


class ServerPool:
    """Admission control for a fleet of devices sharing N servers."""

    def __init__(self, options: Optional[PoolOptions] = None,
                 engine: Union[str, DecisionEngine] = "fifo"):
        self.options = options or PoolOptions()
        self.engine = make_engine(engine)
        self._servers = [_Server(i, spec) for i, spec
                         in enumerate(self.options.server_specs())]
        self._outstanding = 0
        self.total_rejected = 0

    @property
    def engine_name(self) -> str:
        return self.engine.name

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
        if self._outstanding:
            raise RuntimeError(
                "admit() with an unreleased admission outstanding — "
                "requests must be served in discrete-event order "
                "(docs/fleet.md, 'Scheduling model')")
        candidates: List[Candidate] = []
        min_wait = None     # across all servers, for the rejection quote
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
            candidates.append(Candidate(
                server_id=server.id, wait=wait,
                free_slots=free_slots,
                queue_len=len(server.pending_starts),
                spec=server.spec, stats=server.stats,
                slot_idx=slot_idx, server=server))
        if not candidates:
            self.total_rejected += 1
            # charge the refusal to the server that was closest to free
            closest = min((s for s in self._servers if s.active),
                          key=lambda s: (s.outlook(arrival_t)[1], s.id))
            closest.stats.rejected += 1
            return Rejection(estimated_wait_s=min_wait or 0.0)
        request = PlacementRequest(
            target=target_name, arrival_t=arrival_t,
            deadline_t=(None if deadline_s is None
                        else arrival_t + deadline_s))
        chosen = self.engine.select(candidates, request)
        if chosen is None:
            # Engine-level admission control (e.g. deadline-aware with
            # no candidate expected to meet the deadline): same outcome
            # as a full pool — the device falls back to local.
            self.total_rejected += 1
            min(candidates,
                key=lambda c: (c.wait, c.server_id)).stats.rejected += 1
            return Rejection(estimated_wait_s=min_wait or 0.0)
        wait, server, slot_idx = chosen.wait, chosen.server, chosen.slot_idx
        start = arrival_t + wait
        server.slots[slot_idx] = start   # resolved by release()
        stats = server.stats
        stats.admitted += 1
        stats.queue_delay_total += wait
        if wait > 0.0:
            server.pending_starts.append(start)
            stats.queued_admissions += 1
            stats.max_queue_depth = max(stats.max_queue_depth,
                                        len(server.pending_starts))
        self._outstanding += 1
        return Admission(server_id=server.id, queue_seconds=wait,
                         start_s=start, token=(server.id, slot_idx, start),
                         speed=server.spec.speed,
                         network=server.spec.network,
                         tier=server.spec.tier, deadline_s=deadline_s)

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
        nobody, degrades to a classic ``admit`` (which may queue or
        reject).  Partial admission can never deadlock: every granted
        member holds a slot that was free at ``arrival_t``, so no member
        ever waits on another.
        """
        members: List[Candidate] = []
        free_idx: Dict[int, List[int]] = {}
        if shards > 1:
            if self._outstanding:
                raise RuntimeError(
                    "admit_gang() with an unreleased admission outstanding "
                    "— requests must be served in discrete-event order "
                    "(docs/fleet.md, 'Scheduling model')")
            candidates: List[Candidate] = []
            for server in self._servers:
                if not server.active or server.spec.network is not None:
                    continue
                server.purge(arrival_t)
                idxs = [i for i, busy_until in enumerate(server.slots)
                        if busy_until <= arrival_t]
                if not idxs:
                    continue
                free_idx[server.id] = idxs
                candidates.append(Candidate(
                    server_id=server.id, wait=0.0, free_slots=len(idxs),
                    queue_len=len(server.pending_starts),
                    spec=server.spec, stats=server.stats,
                    slot_idx=idxs[0], server=server))
            if candidates:
                request = PlacementRequest(
                    target=target_name, arrival_t=arrival_t,
                    deadline_t=(None if deadline_s is None
                                else arrival_t + deadline_s))
                members = self.engine.select_gang(candidates, request,
                                                  shards)
        if not members:
            # One shard, or no gang member placed: the degrade ladder's
            # next rung, one classic admission.
            outcome = self.admit(target_name, arrival_t,
                                 deadline_s=deadline_s)
            return outcome if isinstance(outcome, Rejection) else [outcome]
        # select_gang names a server at most once per free slot, so
        # every member finds one.
        admissions: List[Admission] = []
        for member in members:
            server = member.server
            slot_idx = free_idx[server.id].pop(0)
            server.slots[slot_idx] = arrival_t  # resolved by release()
            stats = server.stats
            stats.admitted += 1
            stats.shard_admissions += 1
            self._outstanding += 1
            admissions.append(Admission(
                server_id=server.id, queue_seconds=0.0,
                start_s=arrival_t,
                token=(server.id, slot_idx, arrival_t),
                speed=server.spec.speed, network=None,
                tier=server.spec.tier, deadline_s=deadline_s))
        return admissions

    def release(self, admission: Admission, end_t: float) -> None:
        """The admitted invocation finished at global ``end_t``."""
        server_id, slot_idx, start = admission.token
        server = self._servers[server_id]
        if end_t < start:
            raise RuntimeError(
                f"release at {end_t} before service start {start}")
        server.slots[slot_idx] = end_t
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

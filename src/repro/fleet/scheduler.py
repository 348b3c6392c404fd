"""The fleet scheduler: N device sessions against one server pool,
driven by a single-threaded discrete-event core.

Execution model (docs/simulator.md has the full contract).  The
scheduler owns one :class:`~repro.fleet.clock.SimClock` and one
:class:`~repro.fleet.clock.EventQueue`; every device is an explicit
state machine (:class:`~repro.fleet.events.DeviceState`) that advances
only when one of its events fires:

1. an :data:`~repro.fleet.events.ARRIVAL` event at ``start_offset_s``
   runs the device to its first admission request (or completion);
2. an :data:`~repro.fleet.events.ADMISSION_REQUEST` event — popped in
   ``(global time, device index)`` order — is served against the
   :class:`~repro.fleet.pool.ServerPool`, the outcome steps the device
   one edge down its behavior class's outcome trie, and the device is
   advanced by scripted replay (:mod:`repro.fleet.replay`) from the
   node it lands on; every granted slot is released at the
   exact session-local instant the replay observed, before any other
   device runs;
3. a :data:`~repro.fleet.events.COMPLETION` event marks the device
   finished; it touches no shared state.
4. optionally, :data:`~repro.fleet.events.AUTOSCALE` ticks let an
   :class:`~repro.fleet.autoscaler.Autoscaler` resize the pool between
   device events (docs/placement.md); ticks order *after* all device
   events at the same instant and stop once every device completes.

No threads, no wall-clock: wall time per simulated invocation is pure
interpreter work, shared across behaviorally identical devices by the
:class:`~repro.fleet.replay.SegmentCache`, so fleets of 10k+ devices
are routine (benchmarks/test_sim_speed.py).  Because a device's
requests are monotone in time and its release always precedes its next
request, every ``admit`` observes fully-resolved slot times — the pool
never guesses (pool.py's hindsight-exactness).  Global time is session-
local time plus the device's start offset, so one merged trace covers
the fleet (``FleetResult.merged_events``).

This is the only fleet engine.  The thread-per-device engine it replaced
survives in :mod:`repro.fleet.lockstep` purely as the reference
``tests/test_fleet_differential.py`` holds this one to, byte for byte.
"""

from __future__ import annotations

from typing import List, Optional

from ..runtime.backend import Rejection
from .autoscaler import Autoscaler
from .clock import EventQueue, SimClock
from .events import (ADMISSION_REQUEST, ARRIVAL, AUTOSCALE, COMPLETION,
                     TRANSITIONS, DeviceState)
from .pool import ServerPool
from .replay import Segment, SegmentCache, TrieNode, edge_label
from .result import DeviceOutcome, FleetResult
from .spec import DeviceSpec


class _DeviceProcess:
    """One device's live state inside the event loop."""

    __slots__ = ("index", "spec", "offset", "state", "node",
                 "pending_target", "pending_shards", "result")

    def __init__(self, index: int, spec: DeviceSpec):
        self.index = index
        self.spec = spec
        self.offset = spec.start_offset_s
        self.state = DeviceState.IDLE
        # Where the device stands in its behavior class's outcome trie
        # (its history with the pool); set when it arrives.
        self.node: Optional[TrieNode] = None
        self.pending_target: Optional[str] = None
        self.pending_shards = 1
        self.result = None

    def transition(self, to: DeviceState) -> None:
        if (self.state, to) not in TRANSITIONS:
            raise RuntimeError(
                f"{self.spec.device_id}: illegal device state "
                f"transition {self.state.value} -> {to.value}")
        self.state = to


class FleetScheduler:
    """Run a fleet of device sessions against one server pool.

    Single-threaded and deterministic: the same seed gives the same
    bytes, and the same bytes as the thread-per-device reference
    (tests/test_fleet_differential.py).  An empty device list is a
    legal degenerate fleet — zero events, an empty result.

    ``replay`` exposes the :class:`~repro.fleet.replay.SegmentCache`
    whose ``stats()`` report how many sessions actually ran — the
    simulator-speed benchmark gates on it.  An optional ``autoscaler``
    gets periodic :data:`~repro.fleet.events.AUTOSCALE` ticks and may
    resize the pool between device events.
    """

    def __init__(self, devices: List[DeviceSpec], pool: ServerPool,
                 autoscaler: Optional[Autoscaler] = None):
        self.pool = pool
        self.clock = SimClock()
        self.replay = SegmentCache(engine=pool.engine_name)
        self.autoscaler = autoscaler
        self._procs = [_DeviceProcess(i, spec)
                       for i, spec in enumerate(devices)]

    def run(self) -> FleetResult:
        """Drain the event queue and assemble the fleet result."""
        procs = self._procs
        queue = EventQueue()
        for p in procs:
            queue.push(p.offset, p.index, ARRIVAL)
        # The autoscaler's tick index sorts after every device index,
        # so at equal times all device events resolve before a resize.
        tick_index = len(procs)
        if self.autoscaler is not None and procs:
            queue.push(self.autoscaler.options.interval_s, tick_index,
                       AUTOSCALE)

        completed = 0
        while queue:
            t, index, kind = queue.pop()
            self.clock.advance_to(t)
            if kind == AUTOSCALE:
                self.autoscaler.evaluate(t, self.pool)
                if completed < len(procs):
                    queue.push(t + self.autoscaler.options.interval_s,
                               tick_index, AUTOSCALE)
                continue
            p = procs[index]
            if kind == ARRIVAL:
                p.transition(DeviceState.ARRIVED)
                p.node = self.replay.enroll(p.spec)
                self._advance(p, queue)
            elif kind == ADMISSION_REQUEST:
                self._serve(p, t, queue)
            elif kind == COMPLETION:
                p.transition(DeviceState.COMPLETE)
                completed += 1
            else:  # pragma: no cover - queue only ever holds the above
                raise RuntimeError(f"unknown event kind {kind!r}")

        outcomes = []
        for p in procs:
            if p.result is None or p.state is not DeviceState.COMPLETE:
                raise RuntimeError(
                    f"{p.spec.device_id}: event queue drained but the "
                    f"device is {p.state.value}")
            outcomes.append(DeviceOutcome(device_id=p.spec.device_id,
                                          index=p.index,
                                          start_offset_s=p.offset,
                                          result=p.result))
        makespan = (max(o.completion_s for o in outcomes)
                    if outcomes else 0.0)
        return FleetResult(devices=outcomes, pool=self.pool,
                           makespan_s=makespan,
                           autoscale=(self.autoscaler.summary()
                                      if self.autoscaler else None))

    # -- event handlers ------------------------------------------------
    def _serve(self, p: _DeviceProcess, t: float,
               queue: EventQueue) -> None:
        """Serve one admission request: the only point where a device
        touches shared state, in a fixed pool call order — admit(k),
        then release(k) before anyone else's admit."""
        # A scatter/gather plan asks for a gang of zero-wait slots
        # (docs/parallel-offload.md); the pool may degrade it, down to
        # the one classic admission every other request gets.
        granted = self.pool.admit_gang(p.pending_target, t,
                                       p.pending_shards,
                                       deadline_s=p.spec.deadline_s)
        admissions = [] if isinstance(granted, Rejection) else granted
        outcomes = admissions or [granted]
        if self.autoscaler is not None:
            # One observation per served request, as the post-hoc SLO
            # evaluator counts invocations: a gang is one offloaded
            # request that waited 0.
            self.autoscaler.observe(t, outcomes[0])
        p.pending_target = None
        p.pending_shards = 1
        p.node = p.node.child(tuple(map(edge_label, outcomes)))
        segment = self._advance(p, queue)
        # The replay observed the session-local instant each slot was
        # handed back; apply them to the real pool now, so the next
        # admit (any device) sees fully-resolved slot times.
        # release_local_ts is in grant order (identity-matched by the
        # ScriptedDispatcher), the same order as the real pool's grant
        # — so member k gets member k's release instant even when a
        # zero-share member released early.
        for member, release_t in zip(admissions,
                                     segment.release_local_ts):
            self.pool.release(member, p.offset + release_t)

    def _advance(self, p: _DeviceProcess, queue: EventQueue) -> Segment:
        """Advance the device to its next admission request or to
        completion, and schedule the matching event."""
        segment = self.replay.advance(p.spec, p.node)
        p.transition(DeviceState.EXECUTING)
        if segment.done:
            p.result = segment.result
            queue.push(p.offset + segment.result.total_seconds,
                       p.index, COMPLETION)
        else:
            p.transition(DeviceState.REQUESTING)
            p.pending_target = segment.target
            p.pending_shards = segment.shards
            queue.push(p.offset + segment.local_t, p.index,
                       ADMISSION_REQUEST)
        return segment

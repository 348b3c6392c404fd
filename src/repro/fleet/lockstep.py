"""The thread-lockstep scheduler: a test-only reference engine.

This is the fleet's original execution engine: one OS thread per device
session, with the scheduler keeping the whole fleet in *lockstep* — at
most one device thread ever runs, and control passes at exactly the
points where devices interact (admission requests).  The event-driven
:class:`~repro.fleet.scheduler.FleetScheduler` replaced it and is the
only engine the package exports or the CLI runs; this module is kept,
un-re-exported, purely as the independent reference implementation
``tests/test_fleet_differential.py`` checks the event core against,
byte for byte.  It caps out at tens of devices (one OS thread each),
takes no autoscaler, and refuses scatter/gather plans (``shards > 1``)
at construction — that path is pinned by golden fingerprints instead
(``tests/test_parallel_offload.py``).

The rendezvous protocol:

1. every device runs until it blocks on ``admit`` or finishes;
2. the scheduler pops the earliest pending request — ordered by
   ``(global arrival time, device index)`` through the
   :class:`~repro.fleet.clock.EventQueue` — serves it against the
   :class:`~repro.fleet.pool.ServerPool`, and resumes that one device;
3. the device charges the admission's queueing delay (or the rejection's
   local fallback) into its own timeline and energy, releases the slot
   when the invocation completes, and eventually blocks again.

Because a device's requests are monotone in time and its release always
precedes its next request, every ``admit`` observes fully-resolved slot
times — the pool never guesses (pool.py's hindsight-exactness).  The
event-driven core preserves exactly this pool call order, which is why
the two engines agree byte-for-byte (docs/fleet.md, "Reference
engine").
"""

from __future__ import annotations

import threading
from typing import List, Optional

from ..runtime.backend import Admission, OffloadDispatcher, Rejection
from ..runtime.session import OffloadSession, SessionResult
from .clock import EventQueue, SimClock
from .pool import ServerPool
from .result import DeviceOutcome, FleetResult
from .spec import DeviceSpec

#: How long (wall-clock) the scheduler waits for a device thread to
#: reach its next rendezvous before declaring the lockstep broken.
RENDEZVOUS_TIMEOUT_S = 300.0


class _PooledDispatcher(OffloadDispatcher):
    """The session-side end of the rendezvous: blocks the device thread
    until the scheduler has served its admission request."""

    def __init__(self, worker: "_DeviceWorker"):
        self.worker = worker

    def admit(self, target_name: str, now_s: float, shards: int = 1):
        # always a grant of one: shards > 1 is refused at construction
        outcome = self.worker.request_admission(target_name, now_s)
        return outcome if isinstance(outcome, Rejection) else [outcome]

    def release(self, admission: Admission, now_s: float) -> None:
        self.worker.release_slot(admission, now_s)


class _DeviceWorker:
    """One device session on its own thread, lockstepped by events."""

    def __init__(self, index: int, spec: DeviceSpec, pool: ServerPool,
                 timeout_s: float):
        self.index = index
        self.spec = spec
        self.pool = pool
        self.timeout_s = timeout_s
        self.offset = spec.start_offset_s
        # quiescent: the device is blocked on admission or finished —
        # the only states in which the scheduler may act.
        self.quiescent = threading.Event()
        self.resume = threading.Event()
        self.done = threading.Event()
        self.pending = None         # (target_name, global_arrival_t)
        self.outcome = None         # Admission | Rejection handed back
        self.result: Optional[SessionResult] = None
        self.error: Optional[BaseException] = None
        self.thread = threading.Thread(
            target=self._run, name=f"fleet-{spec.device_id}", daemon=True)

    # -- device thread -------------------------------------------------
    def _run(self) -> None:
        try:
            session = OffloadSession(self.spec.program, self.spec.network,
                                     options=self.spec.options,
                                     stdin=self.spec.stdin,
                                     files=self.spec.files,
                                     dispatcher=_PooledDispatcher(self))
            self.result = session.run()
        except BaseException as exc:    # surfaced by the scheduler
            self.error = exc
        finally:
            self.done.set()
            self.quiescent.set()

    def request_admission(self, target_name: str, now_s: float):
        self.pending = (target_name, self.offset + now_s)
        self.quiescent.set()
        if not self.resume.wait(self.timeout_s):
            raise RuntimeError(
                f"{self.spec.device_id}: scheduler never served the "
                f"admission request (lockstep rendezvous broken)")
        self.resume.clear()
        outcome, self.outcome = self.outcome, None
        return outcome

    def release_slot(self, admission: Admission, now_s: float) -> None:
        # Lockstep means this device thread is the only one running, so
        # the pool needs no lock here.
        self.pool.release(admission, self.offset + now_s)

    # -- scheduler side ------------------------------------------------
    def serve(self, outcome) -> None:
        self.pending = None
        self.outcome = outcome
        self.quiescent.clear()
        self.resume.set()
        if not self.quiescent.wait(self.timeout_s):
            raise RuntimeError(
                f"{self.spec.device_id}: device thread never reached "
                f"its next rendezvous")


class LockstepFleetScheduler:
    """Run a fleet on the one-thread-per-device reference engine.

    Same inputs, same outputs as the event-driven
    :class:`~repro.fleet.scheduler.FleetScheduler` — byte-identical
    summaries, merged traces and per-device results for the same seed —
    but wall-clock and memory scale with one OS thread per device.
    Test-only: the differential test's reference.
    """

    def __init__(self, devices: List[DeviceSpec], pool: ServerPool,
                 rendezvous_timeout_s: float = RENDEZVOUS_TIMEOUT_S):
        if not devices:
            raise ValueError("a fleet needs at least one device")
        if any(spec.options is not None and spec.options.shards > 1
               for spec in devices):
            raise ValueError(
                "the lockstep reference engine cannot run scatter/gather "
                "plans (shards > 1); use FleetScheduler "
                "(docs/parallel-offload.md)")
        self.pool = pool
        self.clock = SimClock()
        self._workers = [_DeviceWorker(i, spec, pool,
                                       rendezvous_timeout_s)
                         for i, spec in enumerate(devices)]

    def run(self) -> FleetResult:
        workers = self._workers
        # Sequential start: each device runs to its first rendezvous
        # alone, so even session construction is fully serialized.
        for w in workers:
            w.thread.start()
            if not w.quiescent.wait(w.timeout_s):
                raise RuntimeError(
                    f"{w.spec.device_id}: device never reached its "
                    f"first rendezvous")
            self._check(w)

        queue = EventQueue()
        enqueued = set()
        while True:
            for w in workers:
                self._check(w)
                if (w.pending is not None and not w.done.is_set()
                        and w.index not in enqueued):
                    queue.push(w.pending[1], w.index)
                    enqueued.add(w.index)
            if not queue:
                break
            arrival_t, index, _ = queue.pop()
            enqueued.discard(index)
            worker = workers[index]
            target_name, pending_t = worker.pending
            self.clock.advance_to(arrival_t)
            outcome = self.pool.admit(target_name, pending_t,
                                      deadline_s=worker.spec.deadline_s)
            worker.serve(outcome)

        for w in workers:
            w.thread.join(w.timeout_s)
            self._check(w)
            if w.result is None:
                raise RuntimeError(
                    f"{w.spec.device_id}: device finished without a "
                    f"session result")

        outcomes = [DeviceOutcome(device_id=w.spec.device_id,
                                  index=w.index,
                                  start_offset_s=w.offset,
                                  result=w.result)
                    for w in workers]
        makespan = max(o.completion_s for o in outcomes)
        return FleetResult(devices=outcomes, pool=self.pool,
                           makespan_s=makespan)

    def _check(self, worker: _DeviceWorker) -> None:
        if worker.error is not None:
            raise RuntimeError(
                f"device {worker.spec.device_id} failed"
            ) from worker.error

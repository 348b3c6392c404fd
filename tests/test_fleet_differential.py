"""Differential and event-ordering tests for the event-driven fleet
core (docs/fleet.md, "Reference engine").

The event-driven :class:`~repro.fleet.scheduler.FleetScheduler` must be
byte-identical to the test-only reference :class:`~repro.fleet.lockstep.
LockstepFleetScheduler` — same merged trace, same FleetResult, same
summary JSON — for the same seed.  This file holds the two engines to
that contract on fleets of 1, 2 and 8 devices (the ISSUE 6 acceptance
criterion), and covers the event-ordering edge cases: simultaneous
arrivals, admission-vs-completion ties at one timestamp, and the
degenerate empty-fleet / single-event runs.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.offload import CompilerOptions
from repro.runtime import FAST_WIFI, FaultPlan, SessionOptions
from repro.fleet import (ADMISSION_REQUEST, COMPLETION, DeviceSpec,
                         DeviceState, EventQueue, FleetScheduler,
                         PoolOptions, ServerPool, identical_devices)
from repro.fleet.events import TRANSITIONS
from repro.fleet.lockstep import LockstepFleetScheduler
from repro.fleet.replay import run_segment
from repro.fleet.scheduler import _DeviceProcess
from repro.trace.export import events_to_jsonl
from repro.workloads import workload

# The hot kernel of tests/test_fleet.py (the built-in fleet-micro), on
# a smaller input so a full session stays under a second — the
# differential runs many of them.
STDIN = b"150\n"


@pytest.fixture(scope="module")
def program():
    return dataclasses.replace(workload("fleet-micro"), profile_stdin=STDIN,
                               eval_stdin=STDIN).build().program


def _specs(program, devices, seed=7, tracing=True, faults=False,
           arrival="poisson", spacing=0.002):
    """Same-seed device list: both engines get byte-equal inputs."""
    return identical_devices(
        devices, program, FAST_WIFI, stdin=STDIN, arrival=arrival,
        spacing_s=spacing, seed=seed,
        options=SessionOptions(enable_tracing=tracing),
        fault_plan=(FaultPlan(drop_rate=0.05, max_jitter_s=0.0005)
                    if faults else None))


def _pool():
    # Contended: 2 servers x 1 slot with a short queue, so admissions
    # queue and (at 8 devices) get refused — every outcome kind flows
    # through both engines.
    return ServerPool(PoolOptions(servers=2, capacity=1, queue_limit=2))


def _fingerprint(result):
    """Every observable of a fleet run, serialized: the summary JSON,
    the merged trace JSONL, and the per-device results (trace objects
    excluded — they are compared through the merged JSONL)."""
    devices = [
        {
            "device_id": d.device_id,
            "index": d.index,
            "start_offset_s": d.start_offset_s,
            "completion_s": d.completion_s,
            "result": dataclasses.asdict(dataclasses.replace(
                d.result, trace=None, power_trace=None,
                transport_stats=None, uva_stats=None)),
            "transport": repr(d.result.transport_stats),
            "uva": repr(d.result.uva_stats),
        }
        for d in result.devices
    ]
    return (json.dumps(result.summary(), sort_keys=False),
            events_to_jsonl(result.merged_events()),
            json.dumps(devices, sort_keys=False, default=repr))


def _both(program, devices, **kw):
    event = FleetScheduler(_specs(program, devices, **kw), _pool()).run()
    lockstep = LockstepFleetScheduler(_specs(program, devices, **kw),
                                      _pool()).run()
    return event, lockstep


class TestDifferential:
    """Event-driven vs lockstep: byte-identical, same seed."""

    @pytest.mark.parametrize("devices", [1, 2, 8])
    def test_byte_identity(self, program, devices):
        event, lockstep = _both(program, devices)
        assert _fingerprint(event) == _fingerprint(lockstep)

    def test_byte_identity_with_faults(self, program):
        event, lockstep = _both(program, 2, faults=True)
        assert _fingerprint(event) == _fingerprint(lockstep)

    @pytest.mark.parametrize("tracing", [False, True],
                             ids=["untraced", "traced"])
    def test_byte_identity_untraced(self, program, tracing):
        # Uniform arrivals: the event core shares finished segments
        # across identical devices, traced or not, while the lockstep
        # reference runs every device privately; observables must not
        # change.
        event, lockstep = _both(program, 4, tracing=tracing,
                                arrival="uniform")
        assert _fingerprint(event) == _fingerprint(lockstep)


class TestEngineByteIdentity:
    """Explicit ``engine="fifo"`` on a homogeneous pool is byte-identical
    to the default pool (ISSUE 7 acceptance): the placement layer is a
    pure refactor of the historical admission loop, held to the same
    fingerprint across traced, faulted and untraced fleets, on both
    execution engines."""

    @pytest.mark.parametrize("kw", [
        {"devices": 2},
        {"devices": 2, "faults": True},
        {"devices": 4, "tracing": False, "arrival": "uniform"},
    ], ids=["traced", "faulted", "untraced"])
    def test_fifo_matches_default(self, program, kw):
        kw = dict(kw)
        devices = kw.pop("devices")

        def fifo_pool():
            return ServerPool(PoolOptions(servers=2, capacity=1,
                                          queue_limit=2), engine="fifo")

        default = FleetScheduler(_specs(program, devices, **kw),
                                 _pool()).run()
        explicit = FleetScheduler(_specs(program, devices, **kw),
                                  fifo_pool()).run()
        lockstep = LockstepFleetScheduler(_specs(program, devices, **kw),
                                          fifo_pool()).run()
        assert _fingerprint(default) == _fingerprint(explicit)
        assert _fingerprint(explicit) == _fingerprint(lockstep)


class TestEventOrdering:
    """Simultaneous events resolve by (time, device index) — and ties
    never change observables."""

    def test_simultaneous_arrivals_burst(self, program):
        # Everyone at t=0: arrivals tie, first requests tie, and (for
        # identical devices) completions tie.  Still byte-identical.
        event, lockstep = _both(program, 4, arrival="burst")
        assert _fingerprint(event) == _fingerprint(lockstep)
        # The pool must have seen requests in device-index order: with
        # identical devices and FIFO tie-break, the first admissions
        # land on servers 0, 1 in that order.
        first = [d.result.invocations[0] for d in event.devices]
        assert first[0].server_id == 0
        assert first[1].server_id == 1

    def test_admission_vs_completion_tie(self, program):
        # Engineer an exact-timestamp collision: device 1's first
        # admission request at the same global instant device 0's
        # program completes.
        solo = FleetScheduler(
            [DeviceSpec(device_id="probe", program=program,
                        network=FAST_WIFI, stdin=STDIN,
                        options=SessionOptions(enable_tracing=True))],
            ServerPool(PoolOptions(servers=1, capacity=1))).run()
        completion = solo.devices[0].completion_s
        # Session-local time of the first admission request, recovered
        # exactly the way the scheduler itself does: a scripted replay
        # with the empty script stops at the first request.
        probe = run_segment(
            DeviceSpec(device_id="probe", program=program,
                       network=FAST_WIFI, stdin=STDIN), ())
        assert not probe.done
        req_t = probe.local_t
        # Float-exact collision: search a few ulps around the naive
        # offset until offset + req_t == completion.
        offset = completion - req_t
        for _ in range(128):
            if offset + req_t == completion:
                break
            offset = math.nextafter(offset, math.inf)
        assert offset + req_t == completion, "no float-exact tie found"

        def build():
            return [
                DeviceSpec(device_id="dev00", program=program,
                           network=FAST_WIFI, stdin=STDIN,
                           options=SessionOptions(enable_tracing=True)),
                DeviceSpec(device_id="dev01", program=program,
                           network=FAST_WIFI, stdin=STDIN,
                           start_offset_s=offset,
                           options=SessionOptions(enable_tracing=True)),
            ]

        event = FleetScheduler(
            build(), ServerPool(PoolOptions(servers=1, capacity=1))).run()
        lockstep = LockstepFleetScheduler(
            build(), ServerPool(PoolOptions(servers=1, capacity=1))).run()
        assert _fingerprint(event) == _fingerprint(lockstep)
        assert event.devices[0].completion_s == \
            event.devices[1].start_offset_s + req_t

    def test_event_queue_orders_ties_by_key(self):
        q = EventQueue()
        q.push(1.0, 3, COMPLETION)
        q.push(1.0, 1, ADMISSION_REQUEST)
        q.push(0.5, 7, COMPLETION)
        q.push(1.0, 1, COMPLETION)  # same (t, key): FIFO by seq
        assert q.pop() == (0.5, 7, COMPLETION)
        assert q.pop() == (1.0, 1, ADMISSION_REQUEST)
        assert q.pop() == (1.0, 1, COMPLETION)
        assert q.pop() == (1.0, 3, COMPLETION)


class TestDegenerateRuns:
    """Empty fleets and single-event devices."""

    def test_empty_fleet(self):
        result = FleetScheduler([], ServerPool(PoolOptions())).run()
        assert result.devices == []
        assert result.makespan_s == 0.0
        assert result.merged_events() == []
        summary = result.summary()
        assert summary["devices"] == 0
        assert summary["invocations"]["total"] == 0
        json.dumps(summary)  # must stay serializable

    def test_lockstep_still_requires_devices(self):
        with pytest.raises(ValueError, match="at least one device"):
            LockstepFleetScheduler([], ServerPool(PoolOptions()))

    def test_single_event_device_never_offloads(self):
        # No offload targets: the session never asks for admission,
        # so the device's whole lifecycle is ARRIVAL -> COMPLETION.
        local_only = dataclasses.replace(
            workload("fleet-micro"), profile_stdin=STDIN,
            eval_stdin=STDIN).build(
                CompilerOptions(forced_targets=[])).program
        spec = DeviceSpec(device_id="solo", program=local_only,
                          network=FAST_WIFI, stdin=STDIN)
        pool = ServerPool(PoolOptions())
        scheduler = FleetScheduler([spec], pool)
        result = scheduler.run()
        assert len(result.devices) == 1
        assert result.devices[0].result.offloaded_invocations == 0
        assert all(s.admitted == 0 and s.rejected == 0
                   for s in pool.stats)
        assert scheduler.replay.stats()["session_runs"] == 1


class TestStateMachine:
    """The explicit device lifecycle of docs/simulator.md."""

    def test_all_devices_end_complete(self, program):
        scheduler = FleetScheduler(_specs(program, 3), _pool())
        scheduler.run()
        assert all(p.state is DeviceState.COMPLETE
                   for p in scheduler._procs)

    def test_illegal_transition_rejected(self, program):
        proc = _DeviceProcess(0, _specs(program, 1)[0])
        assert proc.state is DeviceState.IDLE
        with pytest.raises(RuntimeError, match="illegal device state"):
            proc.transition(DeviceState.COMPLETE)

    def test_transition_table_is_a_dag_to_complete(self):
        # COMPLETE is terminal; IDLE is initial; every state is
        # reachable from IDLE within the documented transitions.
        sources = {a for a, _ in TRANSITIONS}
        assert DeviceState.COMPLETE not in sources
        reachable = {DeviceState.IDLE}
        frontier = [DeviceState.IDLE]
        while frontier:
            state = frontier.pop()
            for a, b in TRANSITIONS:
                if a is state and b not in reachable:
                    reachable.add(b)
                    frontier.append(b)
        assert reachable == set(DeviceState)


class TestSegmentSharing:
    """The cross-device segment cache (docs/simulator.md, "Segment
    cache") — identical untraced devices cost k+1 sessions total."""

    def test_identical_untraced_devices_share_all_segments(self, program):
        specs = [DeviceSpec(device_id=f"dev{i:02d}", program=program,
                            network=FAST_WIFI, stdin=STDIN,
                            start_offset_s=i * 0.1)
                 for i in range(6)]
        # Generous pool: zero queueing, one server -> identical
        # outcome scripts on every device.
        pool = ServerPool(PoolOptions(servers=1, capacity=8,
                                      queue_limit=8))
        scheduler = FleetScheduler(specs, pool)
        result = scheduler.run()
        stats = scheduler.replay.stats()
        # 3 offloaded invocations per device: segments for script
        # lengths 0..3 run once each, every other advance is a hit.
        assert stats["session_runs"] == 4
        assert stats["shared_hits"] == 6 * 4 - 4
        assert all(d.result.offloaded_invocations == 3
                   for d in result.devices)

    def test_traced_devices_share_their_final_segment(self, program):
        specs = [DeviceSpec(device_id=f"dev{i:02d}", program=program,
                            network=FAST_WIFI, stdin=STDIN,
                            start_offset_s=i * 0.1,
                            options=SessionOptions(enable_tracing=True))
                 for i in range(3)]
        pool = ServerPool(PoolOptions(servers=1, capacity=8,
                                      queue_limit=8))
        scheduler = FleetScheduler(specs, pool)
        result = scheduler.run()
        stats = scheduler.replay.stats()
        # Every segment (scripts 0..3) runs once: the finished one is
        # shared too, because the merge, not the session, names the
        # device.
        assert stats["session_runs"] == 3 + 1
        sids = {e.sid for e in result.merged_events()}
        assert sids == {"dev00", "dev01", "dev02"}

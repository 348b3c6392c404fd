"""What the fleet event core does per event, pinned so it stays O(1).

Host time cannot be gated in CI, so these tests hold the *structure*
that makes `fleet-shared` cheap (docs/simulator.md, "Segment cache";
docs/fleet.md, "Cost per admit") to deterministic observables:

* slot choice and free-slot counting in the pool read a kept
  ``(busy_until, index)`` order — one bisection, no sort — that must
  keep the exact tie-break of the Python loops it replaced and stay
  equal to the slot times through every pool call;
* the outcome trie must reproduce the flat ``(behavior key, script)``
  cache it replaced — replay accounting, summary JSON and merged trace
  pinned to digests taken at the last commit that had the flat cache
  (ed8160b);
* a device's behavior key is built once, when it arrives, never per
  event, and a traced device shares its finished segment as an
  untraced one does;
* SLO windows are bisected slices of a time-ordered list and must equal
  the filter they replaced, for both bound conventions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

import repro.fleet.replay as replay_module
from repro.fleet import (DeviceSpec, FleetScheduler, PoolOptions,
                         SeedFanout, ServerPool, ServerSpec)
from repro.fleet.engines import Candidate
from repro.fleet.replay import SegmentCache
from repro.runtime import (FAST_WIFI, FaultPlan, OffloadSession,
                           SessionOptions)
from repro.runtime.backend import Admission, OffloadDispatcher
from repro.trace.analysis.slo import Observation, window_slice
from repro.trace.export import events_to_jsonl
from repro.workloads import workload


# -- (a) slot bookkeeping ----------------------------------------------------
class TestSlotChoice:
    """Random admit/release histories on one server of capacity 1-8,
    with times on a coarse grid so ties are the rule: every placement
    the pool makes equals the reference expressions over a mirror of
    the slot times."""

    GRID = (0.0, 0.5, 0.5, 1.0)     # arrival gaps and service times

    @pytest.mark.parametrize("capacity", range(1, 9))
    def test_admit_picks_lowest_busy_until_then_lowest_index(self,
                                                             capacity):
        rng = random.Random(capacity)
        for _ in range(25):
            pool = ServerPool(PoolOptions(servers=1, capacity=capacity))
            server = pool._servers[0]
            mirror = [0.0] * capacity
            t = 0.0
            for _ in range(40):
                t += rng.choice(self.GRID)
                best = min(range(capacity), key=lambda i: (mirror[i], i))
                wait = max(0.0, mirror[best] - t)
                free = sum(1 for busy_until in mirror if busy_until <= t)
                assert server.outlook(t) == (best, wait, free)
                admission = pool.admit("f", t)
                assert admission.token == (0, best, t + wait)
                assert admission.queue_seconds == wait
                end = admission.start_s + rng.choice(self.GRID)
                pool.release(admission, end)
                mirror[best] = end
                assert server.slots == mirror

    @pytest.mark.parametrize("capacity", range(1, 9))
    def test_gang_takes_free_slots_in_index_order(self, capacity):
        rng = random.Random(100 + capacity)
        for _ in range(25):
            pool = ServerPool(PoolOptions(servers=1, capacity=capacity))
            mirror = [0.0] * capacity
            t = 0.0
            for _ in range(30):
                t += rng.choice(self.GRID)
                shards = rng.randint(2, 4)
                free = [i for i, busy_until in enumerate(mirror)
                        if busy_until <= t]
                gang = pool.admit_gang("f", t, shards)
                if free:
                    assert [m.token[1] for m in gang] == free[:shards]
                    assert all(m.queue_seconds == 0.0 for m in gang)
                else:       # degraded to one classic, queued admission
                    best = min(range(capacity),
                               key=lambda i: (mirror[i], i))
                    assert [m.token[1] for m in gang] == [best]
                for member in gang:
                    end = member.start_s + rng.choice(self.GRID)
                    pool.release(member, end)
                    mirror[member.token[1]] = end


class TestSlotOrder:
    """Seeded histories mixing classic admissions, gangs, queue-limit
    rejections and autoscaler-style ``add_server``/``remove_server`` on
    servers of 1-64 slots: after every pool call each server's kept
    order is exactly its slot times sorted with their indices."""

    GRID = (0.0, 0.25, 0.5, 0.5, 1.0)

    @staticmethod
    def check(pool):
        for server in pool._servers:
            assert server.order == sorted(
                (busy_until, i) for i, busy_until in enumerate(server.slots))

    @pytest.mark.parametrize("seed", range(6))
    def test_order_matches_the_slot_times(self, seed):
        rng = random.Random(seed)
        seen = {"admitted": 0, "gang": 0, "rejected": 0, "added": 0,
                "removed": 0}
        for _ in range(4):
            pool = ServerPool(PoolOptions(specs=tuple(
                ServerSpec(capacity=2 ** rng.randint(0, 6),
                           queue_limit=rng.randint(1, 2))
                for _ in range(rng.randint(1, 3)))))
            self.check(pool)
            t = 0.0
            for _ in range(150):
                # now and then a lull longer than any service, so idle
                # servers can be retired
                t += 500.0 if rng.random() < 0.03 else \
                    rng.choice(self.GRID) * 0.1
                action = rng.random()
                if action < 0.02:
                    pool.add_server(ServerSpec(
                        capacity=2 ** rng.randint(0, 6),
                        queue_limit=rng.choice((1, None))))
                    seen["added"] += 1
                elif action < 0.06:
                    server_id = rng.randrange(len(pool._servers))
                    seen["removed"] += pool.remove_server(server_id, t)
                else:
                    shards = 1 if action < 0.6 else rng.randint(2, 6)
                    outcome = (pool.admit("f", t) if shards == 1
                               else pool.admit_gang("f", t, shards))
                    if not isinstance(outcome, (list, Admission)):
                        seen["rejected"] += 1
                        continue
                    granted = (outcome if isinstance(outcome, list)
                               else [outcome])
                    seen["admitted"] += len(granted)
                    seen["gang"] += len(granted) > 1
                    for member in granted:
                        # long services build the queues that refuse
                        service = rng.choice(self.GRID) * rng.choice(
                            (1, 400))
                        pool.release(member, member.start_s + service)
                        self.check(pool)
                self.check(pool)
        assert all(seen.values()), seen


class TestTupleRecords:
    def test_admission_and_candidate_are_immutable(self):
        pool = ServerPool(PoolOptions(servers=1, capacity=4))
        admission = pool.admit("f", 0.0)
        with pytest.raises(AttributeError):
            admission.queue_seconds = 1.0
        candidate = Candidate(0, 0.0, 4, ServerSpec(), None)
        with pytest.raises(AttributeError):
            candidate.free_slots = 3
        assert candidate._replace(free_slots=3).free_slots == 3

    def test_a_bare_admission_is_not_a_grant(self, crunch):
        """A tuple Admission is iterable, so a dispatcher returning one
        unwrapped would read as an eight-member gang."""
        class Bare(OffloadDispatcher):
            def admit(self, target_name, now_s, shards=1):
                return Admission(server_id=0, start_s=now_s)

            def release(self, admission, now_s):
                pass

        with pytest.raises(TypeError, match="a grant is a list"):
            OffloadSession(crunch, FAST_WIFI, stdin=b"20\n",
                           dispatcher=Bare()).run()


# -- (b) trie vs. the flat cache ---------------------------------------------
@pytest.fixture(scope="module")
def crunch():
    return workload("fleet-micro").build().program


@pytest.fixture(scope="module")
def smooth():
    return workload("parallel-micro").build().program


def _fleet(program, stdin, devices, spacing_s, options, seed=3,
           jitter_s=20e-6, fault_plan=None):
    """Device specs the way bench/workloads.py builds them.  Differs
    from ``repro.fleet.identical_devices`` in the arrivals — fixed
    spacing plus a seeded jitter far below any service time, so every
    device's admission waits (hence its replay script) are distinct —
    and in the three-digit ids the pinned digests were taken with."""
    fan = SeedFanout(seed)
    rng = fan.rng("arrivals")
    specs = []
    for i in range(devices):
        plan = (dataclasses.replace(fault_plan, seed=fan.seed("fault", i))
                if fault_plan is not None else None)
        specs.append(DeviceSpec(
            device_id=f"dev{i:03d}", program=program, network=FAST_WIFI,
            stdin=stdin,
            start_offset_s=i * spacing_s + rng.random() * jitter_s,
            options=dataclasses.replace(options, fault_plan=plan)))
    return specs


CONTENDED = PoolOptions(servers=2, capacity=1, queue_limit=4)
FAULTS = FaultPlan(drop_rate=0.35, max_jitter_s=0.0003,
                   disconnect_after_messages=4, reconnect_rate=0.5)


class TestTrieGoldens:
    """Four fleets through the event core.  ``stats`` is the replay
    accounting, the digest is sha256(summary JSON + merged trace JSONL);
    both were captured from the flat-cache implementation at ed8160b.
    The traced digests were re-captured when the ``estimate`` event
    folded into ``decision``: the summaries did not move, and each
    trace equals the old one with that fold applied.
    Every segment run is stored, so ``distinct_segments`` equals
    ``session_runs``."""

    GOLDENS = {
        "shared-untraced": (
            {"session_runs": 4, "shared_hits": 156,
             "distinct_segments": 4},
            "eabfde58228901376c5a9b3fc99f69f4"
            "a860775e33d20529216c415b42523544"),
        "contended-traced": (
            {"session_runs": 25, "shared_hits": 7,
             "distinct_segments": 25},
            "7e40a6234848e6fb4ff3c40c7b590bc7"
            "4ab633a78f41942ad3e4d8c36015208b"),
        "faulty": (
            {"session_runs": 20, "shared_hits": 0,
             "distinct_segments": 20},
            "e0dde968f58fd7281df1c028c863967d"
            "1022072117d3be9292a6253eef527d4a"),
        "sharded-traced": (
            {"session_runs": 7, "shared_hits": 5,
             "distinct_segments": 7},
            "b2bb3f1c7359e324a6b3b53029373cf6"
            "57cb3accfa2d0c7b1a280650f73d4feb"),
    }

    @staticmethod
    def build(case, crunch, smooth):
        if case == "shared-untraced":
            return (_fleet(crunch, b"40\n", 40, 0.002, SessionOptions(),
                           jitter_s=0.0),
                    PoolOptions(servers=1, capacity=8, queue_limit=8))
        if case == "contended-traced":
            return (_fleet(crunch, b"20\n", 8, 0.001,
                           SessionOptions(enable_tracing=True)),
                    CONTENDED)
        if case == "faulty":
            return (_fleet(crunch, b"20\n", 8, 0.001, SessionOptions(),
                           fault_plan=FAULTS), CONTENDED)
        return (_fleet(smooth, b"400\n", 6, 0.002,
                       SessionOptions(shards=4, enable_tracing=True)),
                PoolOptions(servers=4, capacity=1, queue_limit=4))

    @staticmethod
    def observe(specs, pool_options):
        scheduler = FleetScheduler(specs, ServerPool(pool_options))
        result = scheduler.run()
        text = (json.dumps(result.summary(), sort_keys=False)
                + events_to_jsonl(result.merged_events()))
        return (scheduler.replay.stats(),
                hashlib.sha256(text.encode()).hexdigest())

    @pytest.mark.parametrize("case", list(GOLDENS))
    def test_fleet_matches_the_flat_cache(self, crunch, smooth, case):
        assert self.observe(*self.build(case, crunch, smooth)) == \
            self.GOLDENS[case]


class TestTracedFinalSegment:
    def test_revisited_finished_node_is_shared(self, crunch):
        """A session's trace names no device, so traced devices share
        the finished result as they share request boundaries: the second
        device to reach the class's finished node gets the first
        device's result object, trace included."""
        cache = SegmentCache()
        granted = (Admission(),)
        results = []
        for device_id in ("first", "second"):
            spec = DeviceSpec(device_id=device_id, program=crunch,
                              network=FAST_WIFI, stdin=b"20\n",
                              options=SessionOptions(enable_tracing=True))
            node = cache.enroll(spec)
            segment = cache.advance(spec, node)
            while not segment.done:
                node = node.child(granted)
                segment = cache.advance(spec, node)
            assert node.segment is segment and len(node.script()) == 3
            results.append(segment.result)
            assert {e.sid for e in segment.result.trace.events()} == {None}
        assert results[0] is results[1]
        assert cache.behavior_classes == 1
        assert cache.stats() == {"session_runs": 4, "shared_hits": 4,
                                 "distinct_segments": 4}

    def test_a_traced_fleet_runs_what_an_untraced_one_does(self, crunch):
        """200 traced devices on 1 x 64 slots: 4 session runs, as
        untraced, and the merged trace names every device."""
        specs = _fleet(crunch, b"8\n", 200, 0.002,
                       SessionOptions(enable_tracing=True), jitter_s=0.0)
        scheduler = FleetScheduler(specs, ServerPool(
            PoolOptions(servers=1, capacity=64, queue_limit=8)))
        result = scheduler.run()
        assert scheduler.replay.stats() == {
            "session_runs": 4, "shared_hits": 4 * 200 - 4,
            "distinct_segments": 4}
        merged = result.merged_events()
        per_device = len(result.devices[0].result.trace)
        assert len(merged) == 200 * per_device
        assert {e.sid for e in merged} == {s.device_id for s in specs}


# -- (c) one key per device ----------------------------------------------------
class TestBehaviorClassInterning:
    def test_key_is_built_once_per_device(self, crunch, monkeypatch):
        built = []
        behavior_key = replay_module.behavior_key

        def counting(spec, engine="fifo"):
            built.append(spec.device_id)
            return behavior_key(spec, engine)
        monkeypatch.setattr(replay_module, "behavior_key", counting)

        specs = _fleet(crunch, b"8\n", 500, 0.002, SessionOptions(),
                       jitter_s=0.0)
        scheduler = FleetScheduler(specs, ServerPool(
            PoolOptions(servers=1, capacity=64, queue_limit=8)))
        scheduler.run()
        assert scheduler.replay.stats() == {
            "session_runs": 4, "shared_hits": 4 * 500 - 4,
            "distinct_segments": 4}
        assert len(built) <= 500        # was one per advance: 2 000
        # one class, and every device ended on the same (finished) node
        assert scheduler.replay.behavior_classes == 1
        assert len({id(p.node) for p in scheduler._procs}) == 1


# -- (d) SLO windows -----------------------------------------------------------
class TestWindowSlice:
    def test_bisected_window_equals_the_filter(self):
        """Times and bounds share one coarse, exactly representable
        grid, so duplicates and exact-boundary hits are common."""
        rng = random.Random(17)
        for _ in range(300):
            times = sorted(rng.randrange(0, 24) * 0.25
                           for _ in range(rng.randrange(0, 30)))
            observations = [Observation(t=t, offloaded=True, fallback=False,
                                        queue_wait_s=float(i), retries=0)
                            for i, t in enumerate(times)]
            start = rng.randrange(-2, 26) * 0.25
            end = start + rng.randrange(0, 8) * 0.25
            assert window_slice(observations, times, start, end) == \
                [o for o in observations if start <= o.t < end]
            assert window_slice(observations, times, start, end,
                                closed_end=True) == \
                [o for o in observations if start <= o.t <= end]

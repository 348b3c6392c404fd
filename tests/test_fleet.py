"""Fleet-scale runtime tests: the execution-backend seam, the server
pool, the fleet scheduler, the estimator's contention term, and the
seed fan-out (docs/fleet.md)."""

from __future__ import annotations

import json

import pytest

from repro.offload.partition import OffloadTarget
from repro.profiler.profile_data import CandidateProfile, ProfileData
from repro.runtime import (Admission, DynamicPerformanceEstimator,
                           FAST_WIFI, FaultPlan, OffloadSession,
                           Rejection, SessionOptions)
from repro.runtime.backend import DirectDispatcher
from repro.fleet import (DeviceSpec, FleetScheduler, PoolOptions,
                         SeedFanout, ServerPool, arrival_offsets,
                         derive_seed, identical_devices)
from repro.trace import write_jsonl
from repro.trace.analysis import invocation_counts
from repro.trace.tracer import CATEGORIES, TraceEvent
from repro.workloads import workload

# The built-in fleet kernel: hot, and invoked three times per device,
# so the pool sees repeat traffic.
MICRO = workload("fleet-micro")
STDIN = MICRO.eval_stdin


@pytest.fixture(scope="module")
def fleet_program():
    built = MICRO.build()
    return built.module, built.program, built.local()


def _run_fleet(program, devices=1, offsets=None, pool_options=None,
               tracing=True, fault_plans=None):
    specs = []
    for i in range(devices):
        plan = fault_plans[i] if fault_plans else None
        specs.append(DeviceSpec(
            device_id=f"dev{i:02d}", program=program, network=FAST_WIFI,
            stdin=STDIN,
            start_offset_s=offsets[i] if offsets else 0.0,
            options=SessionOptions(enable_tracing=tracing,
                                   fault_plan=plan)))
    pool = ServerPool(pool_options or PoolOptions())
    return FleetScheduler(specs, pool).run()


# The configurations several tests look at are interpreted once per
# module: every run below is deterministic and the tests only read it.
@pytest.fixture(scope="module")
def solo_traced(fleet_program):
    """The plain traced single-session run."""
    _, program, _ = fleet_program
    return OffloadSession(program, FAST_WIFI,
                          options=SessionOptions(enable_tracing=True),
                          stdin=STDIN).run()


@pytest.fixture(scope="module")
def fleet_of_one(fleet_program):
    """The traced 1-device/1-server fleet."""
    _, program, _ = fleet_program
    return _run_fleet(program, devices=1)


@pytest.fixture(scope="module")
def alone_untraced(fleet_program):
    """The untraced 1-device baseline contended devices compare with."""
    _, program, _ = fleet_program
    return _run_fleet(program, devices=1, tracing=False)


@pytest.fixture(scope="module")
def burst_traced(fleet_program):
    """The traced burst: 6 devices at once on one bounded-queue slot —
    some queue, some are refused."""
    _, program, _ = fleet_program
    return _run_fleet(
        program, devices=6,
        pool_options=PoolOptions(servers=1, capacity=1, queue_limit=2))


@pytest.fixture(scope="module")
def saturated_untraced(fleet_program):
    """The untraced saturated pool: 8 devices at once on one slot with
    an unbounded queue — everyone is admitted, most of them late."""
    _, program, _ = fleet_program
    return _run_fleet(
        program, devices=8,
        pool_options=PoolOptions(servers=1, capacity=1), tracing=False)


def _seeded_faulty_fleet(program):
    """Every seeded input a fleet has: poisson arrivals and a 5 %-drop
    fault plan per device, 4 traced devices on a bounded 2-server
    pool."""
    devices = identical_devices(
        4, program, FAST_WIFI, stdin=STDIN, arrival="poisson",
        spacing_s=0.001, seed=7, fault_plan=FaultPlan(drop_rate=0.05),
        options=SessionOptions(enable_tracing=True))
    pool = ServerPool(PoolOptions(servers=2, capacity=1, queue_limit=2))
    return FleetScheduler(devices, pool).run()


@pytest.fixture(scope="module")
def seeded_faulty(fleet_program):
    _, program, _ = fleet_program
    return _seeded_faulty_fleet(program)


class TestBackendSeamDifferential:
    """A 1-device/1-server fleet must be bit-identical to the plain
    single-session path (ISSUE 4 acceptance criterion)."""

    def test_fleet_of_one_is_bit_identical(self, fleet_program,
                                           solo_traced, fleet_of_one):
        _, _, local = fleet_program
        solo = solo_traced
        dev = fleet_of_one.devices[0].result

        assert dev.output == solo.output == local.output
        assert dev.total_seconds == solo.total_seconds
        assert dev.energy_mj == solo.energy_mj
        assert dev.bytes_to_server == solo.bytes_to_server
        assert dev.bytes_to_mobile == solo.bytes_to_mobile
        assert dev.cod_faults == solo.cod_faults
        assert dev.offloaded_invocations == solo.offloaded_invocations
        assert dev.breakdown() == solo.breakdown()

    def test_trace_stream_identical_modulo_sid(self, solo_traced,
                                               fleet_of_one):
        """The device's own events equal the solo run's, ``sid``
        included: only the merge names the device."""
        solo_events = solo_traced.trace.events()
        assert fleet_of_one.devices[0].result.trace.events() == \
            solo_events
        assert all(e.sid is None for e in solo_events)
        merged = fleet_of_one.merged_events()
        assert len(merged) == len(solo_events)
        assert all(e.sid == "dev00" for e in merged)

    def test_direct_dispatcher_is_also_identical(self, fleet_program):
        """``dispatcher=None`` resolves to the dedicated-server
        dispatcher; passing one explicitly is the same session."""
        _, program, _ = fleet_program
        plain = OffloadSession(program, FAST_WIFI, stdin=STDIN).run()
        direct = OffloadSession(
            program, FAST_WIFI,
            stdin=STDIN, dispatcher=DirectDispatcher()).run()
        assert direct.output == plain.output
        assert direct.total_seconds == plain.total_seconds
        assert direct.energy_mj == plain.energy_mj
        assert direct.breakdown() == plain.breakdown()


class TestServerPool:
    def test_idle_pool_admits_immediately(self):
        pool = ServerPool(PoolOptions(servers=2, capacity=1))
        adm = pool.admit("t", 0.0)
        assert isinstance(adm, Admission)
        assert adm.queue_seconds == 0.0
        assert adm.server_id == 0

    def test_queueing_wait_reflects_actual_release(self):
        pool = ServerPool(PoolOptions(servers=1, capacity=1))
        first = pool.admit("t", 0.0)
        pool.release(first, 10.0)
        second = pool.admit("t", 2.0)
        assert second.queue_seconds == pytest.approx(8.0)
        assert second.start_s == pytest.approx(10.0)
        pool.release(second, 15.0)
        assert pool.stats[0].busy_seconds == pytest.approx(15.0)
        assert pool.total_queue_delay_s == pytest.approx(8.0)

    def test_least_loaded_server_wins(self):
        pool = ServerPool(PoolOptions(servers=2, capacity=1))
        a = pool.admit("t", 0.0)
        pool.release(a, 10.0)
        b = pool.admit("t", 1.0)   # server 0 busy until 10 -> server 1
        assert b.server_id == 1
        assert b.queue_seconds == 0.0
        pool.release(b, 5.0)

    def test_bounded_queue_rejects(self):
        pool = ServerPool(PoolOptions(servers=1, capacity=1,
                                      queue_limit=1))
        a = pool.admit("t", 0.0)
        pool.release(a, 100.0)
        b = pool.admit("t", 1.0)   # waits, queue depth 1 (the limit)
        pool.release(b, 110.0)
        c = pool.admit("t", 2.0)   # b still waiting at t=2 -> refused
        assert isinstance(c, Rejection)
        assert c.estimated_wait_s == pytest.approx(108.0)
        assert pool.total_rejected == 1
        assert pool.stats[0].rejected == 1

    def test_capacity_slots_run_concurrently(self):
        pool = ServerPool(PoolOptions(servers=1, capacity=2))
        a = pool.admit("t", 0.0)
        pool.release(a, 50.0)
        b = pool.admit("t", 1.0)   # second slot is free
        assert b.queue_seconds == 0.0
        pool.release(b, 60.0)
        assert pool.utilization(100.0)[0] == pytest.approx(
            (50.0 + 59.0) / 200.0)

    def test_admit_requires_released_history(self):
        pool = ServerPool(PoolOptions())
        pool.admit("t", 0.0)
        with pytest.raises(RuntimeError):
            pool.admit("t", 1.0)   # previous admission never released

    def test_options_validation(self):
        with pytest.raises(ValueError):
            PoolOptions(servers=0)
        with pytest.raises(ValueError):
            PoolOptions(capacity=0)
        with pytest.raises(ValueError):
            PoolOptions(queue_limit=-1)


class TestContention:
    def test_burst_fleet_queues_and_degrades(self, fleet_program,
                                             burst_traced):
        _, _, local = fleet_program
        result = burst_traced
        summary = result.summary()
        # Everyone still computes the right answer...
        assert not result.differences(local.output)
        # ...but the pool visibly pushed back.
        assert summary["queue"]["total_delay_s"] > 0.0
        assert summary["invocations"]["rejected"] > 0
        assert summary["invocations"]["local_fallbacks"] > 0
        assert 0.0 < summary["servers_detail"][0]["utilization"] <= 1.0

    def test_decline_rate_rises_with_fleet_size(self, alone_untraced,
                                                saturated_untraced):
        # same one-slot pool, 1 device against 8
        small, big = alone_untraced, saturated_untraced
        assert (big.summary()["decline_rate"]
                > small.summary()["decline_rate"])

    def test_queue_seconds_charged_to_device_timeline(
            self, saturated_untraced, alone_untraced):
        """Queueing delay lands on the device clock and battery exactly
        like link time: a queued device finishes later and spends more
        energy than the same device alone."""
        contended = saturated_untraced
        queued = [d for d in contended.devices
                  if d.result.queue_seconds > 0.0]
        assert queued, "burst arrivals must queue somewhere"
        baseline = alone_untraced.devices[0].result
        for device in queued:
            r = device.result
            assert r.total_seconds > baseline.total_seconds
            assert r.energy_mj > baseline.energy_mj
            # and the gap is at least the queueing delay itself
            assert (r.total_seconds - baseline.total_seconds
                    >= r.queue_seconds * 0.99)


class TestDeterminism:
    def _summary_and_trace(self, result, tmp_path, tag):
        payload = json.dumps(result.summary(), sort_keys=False)
        trace_path = tmp_path / f"fleet-{tag}.jsonl"
        write_jsonl(result.merged_events(), trace_path)
        return payload, trace_path.read_bytes()

    def test_same_seed_runs_are_byte_identical(self, fleet_program,
                                               seeded_faulty, tmp_path):
        _, program, _ = fleet_program
        payload1, trace1 = self._summary_and_trace(
            seeded_faulty, tmp_path, "a")
        payload2, trace2 = self._summary_and_trace(
            _seeded_faulty_fleet(program), tmp_path, "b")
        assert payload1 == payload2
        assert trace1 == trace2


class TestMergedTrace:
    def test_merged_events_are_globally_ordered_and_tagged(
            self, seeded_faulty):
        events = seeded_faulty.merged_events()
        assert events
        assert {e.sid for e in events} == {"dev00", "dev01", "dev02",
                                           "dev03"}
        times = [e.t for e in events]
        assert times == sorted(times)
        # offset shift: a later device's session.start lands later
        starts = {e.sid: e.t for e in events
                  if e.category == "session.start"}
        assert (starts["dev00"] < starts["dev01"] < starts["dev02"]
                < starts["dev03"])
        assert all(e.category in CATEGORIES for e in events)

    def test_queue_and_reject_events_emitted(self, burst_traced):
        cats = {e.category for e in burst_traced.merged_events()}
        assert "offload.queue" in cats
        assert "offload.reject" in cats

    def test_sid_serialization_round_trip(self):
        tagged = TraceEvent(t=1.0, seq=0, category="decision", name="t",
                            sid="dev03")
        data = tagged.to_dict()
        assert data["sid"] == "dev03"
        assert TraceEvent.from_dict(data).sid == "dev03"
        plain = TraceEvent(t=1.0, seq=0, category="decision", name="t")
        data = plain.to_dict()
        assert "sid" not in data   # single-session wire format unchanged
        assert TraceEvent.from_dict(data).sid is None


def _profile_with(name, seconds, invocations, mem_bytes):
    prof = CandidateProfile(name, "function", name)
    prof.total_seconds = seconds
    prof.invocations = invocations
    prof.pages_touched = set(range(max(1, mem_bytes // 4096)))
    return ProfileData(module_name="m", arch_name="arm32",
                       program_seconds=seconds,
                       candidates={name: prof})


class TestQueueingAwareEstimator:
    def _estimator(self):
        data = _profile_with("t", 1.0, 1, 64 * 1024)
        return DynamicPerformanceEstimator(data, 4.0, FAST_WIFI)

    def test_no_observations_means_zero_queue_term(self):
        est = self._estimator()
        result = est.estimate(OffloadTarget(1, "t", "function"))
        assert result.t_queue == 0.0
        assert result.gain == pytest.approx(result.t_ideal
                                            - result.t_comm)

    def test_queue_delay_ewma_feeds_gain(self):
        est = self._estimator()
        target = OffloadTarget(1, "t", "function")
        base = est.estimate(target)
        est.record_queue_delay(0, 2.0)
        contended = est.estimate(target)
        assert contended.t_queue == pytest.approx(2.0)
        assert contended.gain == pytest.approx(base.gain - 2.0)
        est.record_queue_delay(0, 0.0)   # pool drained
        assert est.expected_queue_seconds() == pytest.approx(1.0)

    def test_best_server_sets_the_expectation(self):
        est = self._estimator()
        est.record_queue_delay(0, 5.0)
        est.record_queue_delay(1, 0.5)
        # the dispatcher would route to server 1
        assert est.expected_queue_seconds() == pytest.approx(0.5)

    def test_rejections_floor_the_expectation(self):
        est = self._estimator()
        est.record_queue_delay(0, 0.0)       # completed admissions fine
        est.record_pool_rejection(4.0)       # but the pool says no
        assert est.expected_queue_seconds() == pytest.approx(4.0)

    def test_queue_pressure_reason(self):
        est = self._estimator()
        target = OffloadTarget(1, "t", "function")
        assert est.decide(target)[:2] == (True, "positive_gain")
        est.record_queue_delay(0, 100.0)     # saturate the pool
        offload, reason, estimate = est.decide(target)
        assert (offload, reason) == (False, "queue_pressure")
        assert estimate.t_queue == pytest.approx(100.0)

    def test_saturated_fleet_declines_offload(self, saturated_untraced):
        """End to end: devices arriving into a saturated pool start
        declining (the generalized Equation 1 at work)."""
        counts = invocation_counts(r for d in saturated_untraced.devices
                                   for r in d.result.invocations)
        assert counts["declined"] > 0


class TestSeedFanout:
    def test_derive_seed_is_stable_and_label_sensitive(self):
        assert derive_seed(0, "fault", 1) == derive_seed(0, "fault", 1)
        assert derive_seed(0, "fault", 1) != derive_seed(0, "fault", 2)
        assert derive_seed(0, "fault", 1) != derive_seed(1, "fault", 1)
        assert derive_seed(0, "a", "bc") != derive_seed(0, "ab", "c")

    def test_rng_streams_are_independent(self):
        fan = SeedFanout(3)
        a = [fan.rng("x").random() for _ in range(3)]
        b = [fan.rng("x").random() for _ in range(3)]
        assert a == b                      # same label -> same stream
        assert fan.rng("y").random() != a[0]

    def test_arrival_patterns(self):
        fan = SeedFanout(0)
        assert arrival_offsets("uniform", 3, 0.5, fan.rng("a")) == \
            [0.0, 0.5, 1.0]
        assert arrival_offsets("burst", 3, 0.5, fan.rng("a")) == \
            [0.0, 0.0, 0.0]
        poisson = arrival_offsets("poisson", 4, 0.5, fan.rng("a"))
        assert poisson[0] == 0.0
        assert poisson == sorted(poisson)
        assert poisson == arrival_offsets("poisson", 4, 0.5,
                                          fan.rng("a"))
        with pytest.raises(ValueError):
            arrival_offsets("weird", 1, 0.5, fan.rng("a"))

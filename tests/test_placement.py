"""The placement layer of ISSUE 7: ServerSpec/PoolOptions validation,
the four decision engines, heterogeneous speed + tier network
overrides, the speed-aware estimator, and the SLO-driven autoscaler
(docs/placement.md)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.runtime import CLOUD_WAN, FAST_WIFI, SessionOptions
from repro.runtime.backend import Admission, Rejection
from repro.runtime.dynamic_estimator import DynamicPerformanceEstimator
from repro.fleet import (Autoscaler, AutoscalerOptions, Candidate,
                         DeviceSpec, FleetScheduler, PoolOptions,
                         ServerPool, ServerSpec, ServerStats,
                         behavior_key, make_engine)
from repro.fleet.autoscaler import SCALE_DOWN_AFTER
from repro.fleet.engines import (BestFitEngine, DeadlineAwareEngine,
                                 DecisionEngine, FifoEngine,
                                 WorstFitEngine)
from repro.workloads import workload

# The built-in fleet kernel on a small input.
STDIN = b"150\n"


@pytest.fixture(scope="module")
def built():
    return dataclasses.replace(workload("fleet-micro"), profile_stdin=STDIN,
                               eval_stdin=STDIN).build()


@pytest.fixture(scope="module")
def program(built):
    return built.program


def _spec(program, device_id="dev00", offset=0.0, **kw):
    return DeviceSpec(device_id=device_id, program=program,
                      network=FAST_WIFI, stdin=STDIN,
                      start_offset_s=offset,
                      options=SessionOptions(enable_tracing=True), **kw)


class TestValidation:
    """Zero/negative capacity, queue depth 0 and unknown tiers are
    construction-time errors (ISSUE 7 satellite)."""

    @pytest.mark.parametrize("kw", [
        {"speed": 0.0}, {"speed": -1.0},
        {"capacity": 0}, {"capacity": -2},
        {"queue_limit": 0}, {"queue_limit": -1},
        {"tier": "fog"}, {"tier": ""},
    ])
    def test_server_spec_rejects(self, kw):
        with pytest.raises(ValueError):
            ServerSpec(**kw)

    @pytest.mark.parametrize("kw", [
        {"servers": 0}, {"servers": -1},
        {"capacity": 0}, {"capacity": -3},
        {"queue_limit": 0}, {"queue_limit": -4},
        {"specs": []}, {"specs": ()},
    ])
    def test_pool_options_rejects(self, kw):
        with pytest.raises(ValueError):
            PoolOptions(**kw)

    def test_defaults_are_valid(self):
        assert ServerSpec().tier == "edge"
        assert PoolOptions().server_specs() == (ServerSpec(),)

    def test_specs_win_over_homogeneous_knobs(self):
        opts = PoolOptions(servers=5, capacity=9,
                           specs=(ServerSpec(capacity=2),))
        assert opts.server_specs() == (ServerSpec(capacity=2),)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown decision engine"):
            make_engine("random")
        with pytest.raises(ValueError, match="unknown decision engine"):
            ServerPool(PoolOptions(), engine="lifo")

    def test_engine_instances_pass_through(self):
        engine = WorstFitEngine()
        assert make_engine(engine) is engine
        assert ServerPool(PoolOptions(), engine=engine).engine is engine

    @pytest.mark.parametrize("kw", [
        {"interval_s": 0.0}, {"interval_s": -1.0},
        {"max_servers": 0}, {"max_servers": -1},
    ])
    def test_autoscaler_options_reject(self, kw):
        with pytest.raises(ValueError):
            AutoscalerOptions(**kw)


def _cand(server_id, wait=0.0, free=1, spec=None, stats=None):
    return Candidate(server_id=server_id, wait=wait, free_slots=free,
                     queue_len=0, spec=spec or ServerSpec(),
                     stats=stats or ServerStats(server_id=server_id),
                     slot_idx=0, server=None)


def _req(arrival_t=0.0, deadline_t=None):
    from repro.fleet import PlacementRequest
    return PlacementRequest(target="crunch", arrival_t=arrival_t,
                            deadline_t=deadline_t)


class TestEngines:
    """Selection is a pure function of the candidates — exercised
    directly, one policy at a time."""

    def test_fifo_least_wait_then_lowest_id(self):
        picked = FifoEngine().select(
            [_cand(0, wait=0.5), _cand(1, wait=0.0), _cand(2, wait=0.0)],
            _req())
        assert picked.server_id == 1

    def test_worst_fit_prefers_most_free_slots(self):
        picked = WorstFitEngine().select(
            [_cand(0, free=1), _cand(1, free=3), _cand(2, free=3)],
            _req())
        assert picked.server_id == 1   # id breaks the free-slot tie

    def test_worst_fit_degrades_to_wait_when_saturated(self):
        picked = WorstFitEngine().select(
            [_cand(0, wait=0.4, free=0), _cand(1, wait=0.1, free=0)],
            _req())
        assert picked.server_id == 1

    def test_best_fit_picks_tightest_idle_server(self):
        picked = BestFitEngine().select(
            [_cand(0, free=3), _cand(1, free=1), _cand(2, free=2)],
            _req())
        assert picked.server_id == 1   # fifo would have picked 0

    def test_deadline_aware_uses_observed_service_history(self):
        slow = ServerStats(server_id=0, admitted=2, busy_seconds=2.0)
        fast = ServerStats(server_id=1, admitted=2, busy_seconds=0.5)
        picked = DeadlineAwareEngine().select(
            [_cand(0, stats=slow), _cand(1, stats=fast)], _req())
        assert picked.server_id == 1   # fifo would have picked 0

    def test_deadline_aware_scales_pool_mean_by_speed(self):
        # Server 1 has no history of its own; the pool mean (1.0 s at
        # speed 1) scaled by its 4x speed predicts a 0.25 s service.
        seen = ServerStats(server_id=0, admitted=4, busy_seconds=4.0)
        fresh = ServerStats(server_id=1)
        picked = DeadlineAwareEngine().select(
            [_cand(0, stats=seen),
             _cand(1, stats=fresh, spec=ServerSpec(speed=4.0))],
            _req())
        assert picked.server_id == 1

    def test_deadline_aware_meeting_beats_missing(self):
        # Server 1 queues the request but still meets the deadline;
        # server 0 starts now and misses it.
        slow = ServerStats(server_id=0, admitted=1, busy_seconds=1.0)
        quick = ServerStats(server_id=1, admitted=1, busy_seconds=0.05)
        picked = DeadlineAwareEngine().select(
            [_cand(0, wait=0.0, stats=slow),
             _cand(1, wait=0.4, free=0, stats=quick)],
            _req(deadline_t=0.5))
        assert picked.server_id == 1

    def test_deadline_aware_refuses_when_every_candidate_misses(self):
        # Admission control: both servers would finish past the
        # deadline, so the engine declines to place at all and the pool
        # turns that into a Rejection (local fallback beats queueing
        # past the deadline).
        slow = ServerStats(server_id=0, admitted=1, busy_seconds=1.0)
        slower = ServerStats(server_id=1, admitted=1, busy_seconds=2.0)
        picked = DeadlineAwareEngine().select(
            [_cand(0, stats=slow), _cand(1, stats=slower)],
            _req(deadline_t=0.5))
        assert picked is None

    def test_deadline_aware_without_history_degrades_to_fifo(self):
        picked = DeadlineAwareEngine().select(
            [_cand(0, wait=0.2), _cand(1, wait=0.1)], _req())
        assert picked.server_id == 1

    def test_base_engine_is_abstract(self):
        with pytest.raises(NotImplementedError):
            DecisionEngine().select([_cand(0)], _req())


class TestPoolPlacement:
    """The pool's admit/release bookkeeping under non-fifo engines."""

    def test_worst_fit_spreads_across_servers(self):
        pool = ServerPool(PoolOptions(servers=2, capacity=2),
                          engine="worst-fit")
        first = pool.admit("crunch", 0.0)
        pool.release(first, 10.0)       # busy until t=10
        second = pool.admit("crunch", 1.0)
        pool.release(second, 10.0)
        assert first.server_id == 0
        assert second.server_id == 1    # fifo would pack server 0

    def test_admission_carries_the_spec(self):
        pool = ServerPool(PoolOptions(specs=(
            ServerSpec(speed=3.0, tier="cloud", network=CLOUD_WAN),)))
        outcome = pool.admit("crunch", 0.0, deadline_s=0.25)
        assert isinstance(outcome, Admission)
        assert outcome.speed == 3.0
        assert outcome.tier == "cloud"
        assert outcome.network is CLOUD_WAN
        assert outcome.deadline_s == 0.25
        pool.release(outcome, 0.5)

    def test_rejection_quotes_minimum_wait_across_tiers(self):
        pool = ServerPool(PoolOptions(specs=(
            ServerSpec(queue_limit=1), ServerSpec(queue_limit=1))))
        waits = []
        for t, end in ((0.0, 4.0), (0.0, 5.0), (0.1, 4.5), (0.2, 5.5)):
            outcome = pool.admit("crunch", t)
            waits.append(outcome)
            pool.release(outcome, end)
        refused = pool.admit("crunch", 0.3)
        assert isinstance(refused, Rejection)
        # The closest slot frees at t=4.5 (server 0's queued third
        # admission runs until then) -> quote 4.2 from t=0.3.
        assert refused.estimated_wait_s == pytest.approx(4.2)

    def test_deadline_admission_control_rejects_at_the_pool(self):
        # Same admission sequence, two engines: fifo queues the tight-
        # deadline request; deadline-aware refuses it (the server's
        # observed 1.0 s service cannot meet a 0.5 s deadline), so the
        # pool rejects and the device would fall back to local.
        outcomes = {}
        for engine in ("fifo", "deadline-aware"):
            pool = ServerPool(PoolOptions(servers=1), engine=engine)
            first = pool.admit("crunch", 0.0)
            pool.release(first, 1.0)    # service history: 1.0 s
            second = pool.admit("crunch", 0.2)
            pool.release(second, 2.0)
            outcomes[engine] = pool.admit("crunch", 0.4,
                                          deadline_s=0.5)
            if isinstance(outcomes[engine], Admission):
                pool.release(outcomes[engine], 3.0)
        assert isinstance(outcomes["fifo"], Admission)
        assert isinstance(outcomes["deadline-aware"], Rejection)
        # The refusal is charged and quoted like a full-pool rejection.
        assert outcomes["deadline-aware"].estimated_wait_s == \
            pytest.approx(1.6)

    def test_elasticity_add_remove(self):
        pool = ServerPool(PoolOptions(servers=1))
        adm = pool.admit("crunch", 0.0)
        pool.release(adm, 2.0)
        new_id = pool.add_server(ServerSpec(tier="cloud"))
        assert new_id == 1
        assert pool.active_servers == 2
        assert pool.remove_server(new_id, 3.0) is True   # idle clone
        assert pool.active_servers == 1
        # Ids are never reused, even across scale-down cycles.
        assert pool.add_server(ServerSpec()) == 2

    def test_remove_server_refusals(self):
        pool = ServerPool(PoolOptions(servers=1))
        # The last active server can never be retired.
        assert pool.remove_server(0, 100.0) is False
        sid = pool.add_server(ServerSpec())
        adm = pool.admit("crunch", 0.0)
        pool.release(adm, 5.0)          # server 0 busy until t=5
        assert pool.remove_server(0, 1.0) is False   # still serving
        assert pool.remove_server(sid, 1.0) is True  # idle clone goes
        assert pool.remove_server(sid, 2.0) is False  # already retired
        assert pool.active_servers == 1

    def test_servers_detail_rows(self):
        pool = ServerPool(PoolOptions(specs=(
            ServerSpec(), ServerSpec(speed=2.0, tier="cloud"))))
        adm = pool.admit("crunch", 0.0)
        pool.release(adm, 1.0)
        rows = pool.servers_detail(horizon_s=2.0)
        assert [r["id"] for r in rows] == [0, 1]
        assert rows[1]["tier"] == "cloud"
        assert rows[1]["speed"] == 2.0
        assert rows[0]["admitted"] == 1
        assert rows[0]["utilization"] == pytest.approx(0.5)
        assert all(r["active"] for r in rows)
        assert {"busy_seconds", "queue_delay_s", "queued_admissions",
                "max_queue_depth", "rejected"} <= set(rows[0])


class TestEstimatorSpeedAwareness:
    """Equation 1's ratio follows the server the device lands on."""

    def _estimator(self):
        from repro.profiler.profile_data import ProfileData
        return DynamicPerformanceEstimator(
            ProfileData(module_name="placement", arch_name="x86"),
            performance_ratio=8.0, network=FAST_WIFI)

    def test_expected_speed_tracks_best_queue_server(self):
        est = self._estimator()
        assert est.expected_server_speed() == 1.0
        est.record_queue_delay(0, 0.010, speed=1.0)
        est.record_queue_delay(1, 0.001, speed=4.0)
        # Server 1 has the best EWMA, so its speed is the expectation.
        assert est.expected_server_speed() == 4.0
        est.record_queue_delay(1, 0.100, speed=4.0)
        assert est.expected_server_speed() == 1.0

    def test_speed_one_is_bit_identical(self):
        est = self._estimator()
        est.record_queue_delay(0, 0.0)      # default speed 1.0
        assert est.performance_ratio * est.expected_server_speed() \
            == est.performance_ratio


class TestHeterogeneousFleet:
    """End-to-end: speed multipliers and tier network overrides are
    visible in device results, and the deadline/tier fields thread
    through to InvocationRecord."""

    def _run(self, program, pool, **spec_kw):
        return FleetScheduler(
            [_spec(program, **spec_kw)], pool).run()

    def test_faster_server_shortens_the_run(self, program, built):
        slow = self._run(program, ServerPool(PoolOptions()))
        fast = self._run(program, ServerPool(PoolOptions(
            specs=(ServerSpec(speed=4.0),))))
        local = built.local()
        assert fast.devices[0].result.output == local.output
        assert slow.devices[0].result.output == local.output
        assert (fast.devices[0].result.total_seconds
                < slow.devices[0].result.total_seconds)

    def test_cloud_tier_swaps_the_network(self, program):
        edge = self._run(program, ServerPool(PoolOptions()))
        cloud = self._run(program, ServerPool(PoolOptions(specs=(
            ServerSpec(tier="cloud", network=CLOUD_WAN),))))
        rec = cloud.devices[0].result.invocations[0]
        assert rec.tier == "cloud"
        assert edge.devices[0].result.invocations[0].tier == "edge"
        # cloud-wan's 25 ms RTTs dominate 802.11ac's 1 ms: same
        # program, strictly more link time.
        assert (cloud.devices[0].result.total_seconds
                > edge.devices[0].result.total_seconds)
        # The device's own network is restored after each invocation.
        assert cloud.devices[0].result.output \
            == edge.devices[0].result.output

    def test_deadline_and_priority_recorded(self, program):
        result = FleetScheduler(
            [_spec(program, deadline_s=0.5)],
            ServerPool(PoolOptions())).run()
        recs = [r for r in result.devices[0].result.invocations
                if r.offloaded]
        assert recs
        assert all(r.deadline_s == 0.5 for r in recs)
        assert all(r.tier == "edge" for r in recs)

    def test_behavior_key_separates_engines_and_deadlines(self, program):
        spec = _spec(program)
        assert behavior_key(spec, "fifo") != behavior_key(spec,
                                                          "worst-fit")
        assert behavior_key(spec) != behavior_key(
            _spec(program, deadline_s=0.1))


class TestAutoscaler:
    """The SLO feedback loop, unit-level and end-to-end."""

    def _admission(self, wait):
        return Admission(server_id=0, queue_seconds=wait, start_s=0.0,
                         token=(0, 0, 0.0))

    def test_scale_up_on_queue_pressure(self):
        pool = ServerPool(PoolOptions(servers=1))
        scaler = Autoscaler(AutoscalerOptions(max_servers=3))
        for i in range(4):
            scaler.observe(0.01 * i, self._admission(wait=0.02))
        scaler.evaluate(0.04, pool)
        assert pool.active_servers == 2
        assert scaler.actions[0]["action"] == "scale_up"
        assert scaler.actions[0]["rule"] == "queue_pressure"
        assert scaler.findings and \
            scaler.findings[0].rule == "queue_pressure"

    def test_scale_up_capped_at_max_servers(self):
        pool = ServerPool(PoolOptions(servers=1))
        scaler = Autoscaler(AutoscalerOptions(max_servers=2))
        for tick in range(1, 4):
            t = tick * 0.05
            for i in range(6):
                scaler.observe(t - 0.001 * i,
                               self._admission(wait=0.02))
            scaler.evaluate(t, pool)
        assert pool.active_servers == 2          # capped
        assert len(scaler.findings) == 3         # still reported
        assert scaler.summary()["scale_ups"] == 1

    def test_scale_down_after_healthy_stretch(self):
        pool = ServerPool(PoolOptions(servers=1))
        scaler = Autoscaler(AutoscalerOptions(max_servers=3))
        for i in range(4):
            scaler.observe(0.01 * i, self._admission(wait=0.02))
        scaler.evaluate(0.04, pool)
        assert pool.active_servers == 2
        # Quiet windows (no samples) count as healthy ticks; after
        # SCALE_DOWN_AFTER of them the idle clone is retired.
        for tick in range(1, SCALE_DOWN_AFTER):
            scaler.evaluate(float(tick), pool)
        assert pool.active_servers == 2
        scaler.evaluate(float(SCALE_DOWN_AFTER), pool)
        assert pool.active_servers == 1
        summary = scaler.summary()
        assert summary["scale_ups"] == 1
        assert summary["scale_downs"] == 1

    def test_autoscaled_burst_fleet_grows_the_pool(self, program):
        # Six devices arriving at once against one single-slot server:
        # queue pressure is immediate and sustained.
        specs = [_spec(program, device_id=f"dev{i:02d}", offset=0.0)
                 for i in range(6)]
        pool = ServerPool(PoolOptions(servers=1, capacity=1,
                                      queue_limit=2))
        scaler = Autoscaler(AutoscalerOptions(interval_s=0.002,
                                              max_servers=4))
        result = FleetScheduler(specs, pool, autoscaler=scaler).run()
        summary = result.summary()
        assert summary["autoscale"]["scale_ups"] >= 1
        assert summary["servers"] > 1
        assert summary["engine"] == "fifo"
        # Retired servers (if any) stay in the detail rows.
        assert len(summary["servers_detail"]) == summary["servers"]

    def test_no_autoscaler_reports_empty_block(self, program):
        result = FleetScheduler([_spec(program)],
                                ServerPool(PoolOptions())).run()
        assert result.summary()["autoscale"] == {}

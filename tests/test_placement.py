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
from repro.fleet import (DECISION_ENGINES, ENGINES, Autoscaler,
                         AutoscalerOptions, Candidate, DeviceSpec,
                         FleetResult, FleetScheduler, PlacementRequest, PoolOptions,
                         ServerPool, ServerSpec, ServerStats,
                         behavior_key)
from repro.fleet.autoscaler import (DEFAULT_AUTOSCALE_RULES,
                                    SCALE_DOWN_AFTER)
from repro.trace.analysis import DEFAULT_RULES
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
        for name in ("random", "lifo"):
            with pytest.raises(ValueError) as refused:
                ServerPool(PoolOptions(), engine=name)
            assert str(refused.value) == (
                f"unknown decision engine {name!r}; "
                f"expected one of {DECISION_ENGINES}")
        assert DECISION_ENGINES == tuple(ENGINES)

    @pytest.mark.parametrize("kw", [
        {"interval_s": 0.0}, {"interval_s": -1.0},
        {"max_servers": 0}, {"max_servers": -1},
    ])
    def test_autoscaler_options_reject(self, kw):
        with pytest.raises(ValueError):
            AutoscalerOptions(**kw)


def _cand(server_id, wait=0.0, free=1, spec=None, stats=None):
    return Candidate(server_id=server_id, wait=wait, free_slots=free,
                     spec=spec or ServerSpec(),
                     stats=stats or ServerStats(server_id=server_id))


def _req(arrival_t=0.0, deadline_t=None):
    return PlacementRequest(target="crunch", arrival_t=arrival_t,
                            deadline_t=deadline_t)


def _select(engine, candidates, request):
    """One pick of the pool's loop: the candidate ``engine`` ranks
    least, or None when it accepts none of them."""
    rank = ENGINES[engine]
    ranked = [(rank(c, request, candidates), c) for c in candidates]
    accepted = [(key, c) for key, c in ranked if key is not None]
    return min(accepted, key=lambda kc: kc[0])[1] if accepted else None


class TestEngines:
    """Ranking is a pure function of the candidates — exercised
    directly, one engine at a time."""

    def test_rank_is_the_documented_key(self):
        # docs/placement.md's engine table, key for key.
        c = _cand(2, wait=0.25, free=0,
                  stats=ServerStats(server_id=2, admitted=2,
                                    busy_seconds=1.0))
        request = _req(arrival_t=1.0)
        assert ENGINES["fifo"](c, request, [c]) == (0.25, 2)
        assert ENGINES["worst-fit"](c, request, [c]) == (0, 0.25, 2)
        assert ENGINES["best-fit"](c, request, [c]) == (0.25, 0, 2)
        assert ENGINES["deadline-aware"](c, request, [c]) == (1.75, 2)
        assert ENGINES["deadline-aware"](
            c, _req(arrival_t=1.0, deadline_t=1.5), [c]) is None

    def test_fifo_least_wait_then_lowest_id(self):
        picked = _select(
            "fifo",
            [_cand(0, wait=0.5), _cand(1, wait=0.0), _cand(2, wait=0.0)],
            _req())
        assert picked.server_id == 1

    def test_worst_fit_prefers_most_free_slots(self):
        picked = _select(
            "worst-fit",
            [_cand(0, free=1), _cand(1, free=3), _cand(2, free=3)],
            _req())
        assert picked.server_id == 1   # id breaks the free-slot tie

    def test_worst_fit_degrades_to_wait_when_saturated(self):
        picked = _select(
            "worst-fit",
            [_cand(0, wait=0.4, free=0), _cand(1, wait=0.1, free=0)],
            _req())
        assert picked.server_id == 1

    def test_best_fit_picks_tightest_idle_server(self):
        picked = _select(
            "best-fit",
            [_cand(0, free=3), _cand(1, free=1), _cand(2, free=2)],
            _req())
        assert picked.server_id == 1   # fifo would have picked 0

    def test_deadline_aware_uses_observed_service_history(self):
        slow = ServerStats(server_id=0, admitted=2, busy_seconds=2.0)
        fast = ServerStats(server_id=1, admitted=2, busy_seconds=0.5)
        picked = _select(
            "deadline-aware",
            [_cand(0, stats=slow), _cand(1, stats=fast)], _req())
        assert picked.server_id == 1   # fifo would have picked 0

    def test_deadline_aware_scales_pool_mean_by_speed(self):
        # Server 1 has no history of its own; the pool mean (1.0 s at
        # speed 1) scaled by its 4x speed predicts a 0.25 s service.
        seen = ServerStats(server_id=0, admitted=4, busy_seconds=4.0)
        fresh = ServerStats(server_id=1)
        picked = _select(
            "deadline-aware",
            [_cand(0, stats=seen),
             _cand(1, stats=fresh, spec=ServerSpec(speed=4.0))],
            _req())
        assert picked.server_id == 1

    def test_deadline_aware_meeting_beats_missing(self):
        # Server 1 queues the request but still meets the deadline;
        # server 0 starts now and misses it.
        slow = ServerStats(server_id=0, admitted=1, busy_seconds=1.0)
        quick = ServerStats(server_id=1, admitted=1, busy_seconds=0.05)
        picked = _select(
            "deadline-aware",
            [_cand(0, wait=0.0, stats=slow),
             _cand(1, wait=0.4, free=0, stats=quick)],
            _req(deadline_t=0.5))
        assert picked.server_id == 1

    def test_deadline_aware_refuses_when_every_candidate_misses(self):
        # Admission control: both servers would finish past the
        # deadline, so the engine accepts neither and the pool turns
        # that into a Rejection (local fallback beats queueing past the
        # deadline).
        slow = ServerStats(server_id=0, admitted=1, busy_seconds=1.0)
        slower = ServerStats(server_id=1, admitted=1, busy_seconds=2.0)
        picked = _select(
            "deadline-aware",
            [_cand(0, stats=slow), _cand(1, stats=slower)],
            _req(deadline_t=0.5))
        assert picked is None

    def test_deadline_aware_without_history_degrades_to_fifo(self):
        picked = _select(
            "deadline-aware",
            [_cand(0, wait=0.2), _cand(1, wait=0.1)], _req())
        assert picked.server_id == 1


#: A capacity-2 speed-1 server and a capacity-1 speed-4 one.
WIDE = ServerSpec(capacity=2)
FAST = ServerSpec(capacity=1, speed=4.0)


class TestGangPicks:
    """One pick loop places gangs for every engine: a pick costs its
    server a free slot, a server out of slots drops out of the ranking,
    and each pick takes its server's next free slot in index order.
    The expected (server, slot) lists are the ones the per-engine
    ``select_gang`` produced before the loop was shared."""

    @pytest.mark.parametrize("engine, expected", [
        ("fifo", [(0, 0), (0, 1), (1, 0)]),
        ("worst-fit", [(0, 0), (0, 1), (1, 0)]),
        ("best-fit", [(1, 0), (0, 0), (0, 1)]),
        ("deadline-aware", [(1, 0), (0, 0), (0, 1)]),
    ])
    def test_wide_then_fast_with_history(self, engine, expected):
        pool = ServerPool(PoolOptions(specs=(WIDE, FAST)), engine=engine)
        served = pool.admit("other", 0.0)
        pool.release(served, 1.0)
        gang = pool.admit_gang("smooth", 2.0, 3)
        assert [a.token[:2] for a in gang] == expected
        assert pool.total_rejected == 0

    @pytest.mark.parametrize("engine, expected", [
        ("fifo", [(0, 0), (1, 0), (1, 1)]),
        ("worst-fit", [(1, 0), (0, 0), (1, 1)]),
        ("best-fit", [(0, 0), (1, 0), (1, 1)]),
        ("deadline-aware", [(0, 0), (1, 0), (1, 1)]),
    ])
    def test_fast_then_wide_without_history(self, engine, expected):
        pool = ServerPool(PoolOptions(specs=(FAST, WIDE)), engine=engine)
        gang = pool.admit_gang("smooth", 2.0, 3)
        assert [a.token[:2] for a in gang] == expected

    def test_refusal_ends_the_gang_early(self):
        # Server 0's 1 s history misses the 0.5 s deadline; server 1 is
        # expected at a quarter of the pool mean and meets it.  After
        # server 1's one slot goes, only server 0 is live, the engine
        # accepts it nowhere, and the gang stops at one member.
        pool = ServerPool(PoolOptions(specs=(WIDE, FAST)),
                          engine="deadline-aware")
        served = pool.admit("other", 0.0)
        pool.release(served, 1.0)
        gang = pool.admit_gang("smooth", 2.0, 3, deadline_s=0.5)
        assert [a.token[:2] for a in gang] == [(1, 0)]
        assert pool.stats[1].shard_admissions == 1
        assert pool.total_rejected == 0


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

    @pytest.mark.parametrize("options, capacity, queue_limit", [
        (PoolOptions(servers=3, capacity=2, queue_limit=5), 2, 5),
        (PoolOptions(specs=(ServerSpec(capacity=4, queue_limit=2),) * 2),
         4, 2),
        (PoolOptions(specs=(ServerSpec(capacity=4, queue_limit=2),
                            ServerSpec(capacity=1, queue_limit=2))),
         None, 2),
        (PoolOptions(specs=(ServerSpec(capacity=4),
                            ServerSpec(capacity=4, queue_limit=2))),
         4, None),
    ])
    def test_summary_reports_the_configured_servers(self, options,
                                                    capacity,
                                                    queue_limit):
        # specs override the homogeneous knobs, so the summary reports
        # the value the configured servers share, None when they differ.
        summary = FleetResult(devices=[], pool=ServerPool(options),
                              makespan_s=0.0).summary()
        assert (summary["capacity"], summary["queue_limit"]) == \
            (capacity, queue_limit)

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

    def test_rules_are_the_reports_own(self):
        # stated once: the autoscaler acts on the report's rule objects,
        # queue pressure first
        assert [rule.name for rule in DEFAULT_AUTOSCALE_RULES] == [
            "queue_pressure", "decline_rate_spike"]
        assert all(any(rule is own for own in DEFAULT_RULES)
                   for rule in DEFAULT_AUTOSCALE_RULES)

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

"""Scatter/gather parallel offload: the k-shard OffloadPlan
(docs/parallel-offload.md).

The load-bearing guarantees, in test form:

* ``shards=1`` (and the default) is byte-identical to the historical
  single-server invocation path — summary fingerprint, trace JSONL and
  stdout all match (ISSUE 9 differential bar).
* A non-shardable target silently stays on the classic path at any
  ``--shards`` setting.
* Any shard-fault schedule — injected faults, straggler abandonment —
  still yields program output byte-identical to the k=1 run
  (DESIGN.md §5 invariant: stragglers replay locally on the mobile).
* Plan traces satisfy the span invariant and the critical-path buckets
  reconcile (``server_compute`` is the parallel wall, not the serial
  sum).
* Gang admission is atomic all-or-degrade-to-fewer and never leaves
  slot bookkeeping behind.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from conftest import HOT_KERNEL_SRC, HOT_KERNEL_STDIN, build_c, offload_c
from repro.fleet import (Autoscaler, DeviceSpec, FleetScheduler,
                         PoolOptions, ServerPool, ServerSpec, behavior_key)
from repro.fleet.lockstep import LockstepFleetScheduler
from repro.fleet.pool import Rejection
from repro.fleet.replay import ScriptedDispatcher, edge_label
from repro.offload import CompilerOptions
from repro.offload.shard import contiguous_ranges
from repro.runtime import (FAST_WIFI, NETWORKS, FaultPlan, OffloadSession,
                           SessionOptions, run_local)
from repro.runtime.backend import Admission
from repro.targets import ARM32, MIPS32BE, X86_64
from repro.runtime.dynamic_estimator import DynamicPerformanceEstimator
from repro.trace import write_jsonl
from repro.trace.export import events_to_jsonl
from repro.trace.analysis import reconstruct_sessions, validate_sessions
from repro.trace.analysis.critical_path import attribute_session
from repro.workloads import workload

# One flat loop, disjoint element writes, global trip count — the exact
# shape the shard analyzer accepts.
SHARD_SRC = r"""
int data[2048];
int out[2048];
int n;

void smooth(void) {
    int i;
    for (i = 0; i < n; i++) {
        int v = data[i];
        v = v * 31 + (v >> 3);
        out[i] = (v ^ (v >> 5)) + i;
    }
}

int main() {
    int i, acc = 0;
    scanf("%d", &n);
    for (i = 0; i < n; i++) data[i] = i * 7 + 3;
    smooth();
    for (i = 0; i < n; i++) acc += out[i];
    printf("sum %d\n", acc);
    return 0;
}
"""

FORCED = CompilerOptions(forced_targets=["smooth"])


def _fingerprint(result) -> str:
    """Everything the session reports, minus the unhashable carriers
    (the trace is compared separately, byte for byte)."""
    d = dataclasses.asdict(result)
    for key in ("trace", "power_trace", "transport_stats", "uva_stats"):
        d[key] = None
    return json.dumps(d, default=str, sort_keys=True)


def _run(stdin: bytes, options=None, src: str = SHARD_SRC):
    return offload_c(src, stdin=stdin, compiler_options=FORCED,
                     session_options=options)


class TestK1Differential:
    """shards=1 must be byte-identical to the pre-refactor path."""

    def test_summary_and_stdout_fingerprints(self):
        _, default_run, _ = _run(b"600\n")
        _, k1_run, _ = _run(b"600\n", SessionOptions(shards=1))
        assert _fingerprint(default_run) == _fingerprint(k1_run)
        assert default_run.output == k1_run.output

    def test_trace_jsonl_identical(self, tmp_path):
        _, default_run, _ = _run(
            b"600\n", SessionOptions(enable_tracing=True))
        _, k1_run, _ = _run(
            b"600\n", SessionOptions(enable_tracing=True, shards=1))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(default_run.trace.events(), str(a),
                    dropped=default_run.trace.dropped)
        write_jsonl(k1_run.trace.events(), str(b),
                    dropped=k1_run.trace.dropped)
        assert a.read_bytes() == b.read_bytes()

    def test_non_shardable_target_ignores_shards(self):
        """A nested-loop kernel refuses shard analysis; any --shards
        setting leaves its invocations byte-identical to the default."""
        local, default_run, _ = offload_c(HOT_KERNEL_SRC,
                                          stdin=HOT_KERNEL_STDIN)
        _, k4_run, program = offload_c(
            HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN,
            session_options=SessionOptions(shards=4))
        assert "crunch" not in program.shard_specs
        assert _fingerprint(default_run) == _fingerprint(k4_run)
        assert all(r.shards == 1 for r in k4_run.invocations)
        assert k4_run.output == local.output


class TestPlanExecution:
    def test_scatter_splits_and_matches_local(self):
        local, result, program = _run(b"600\n", SessionOptions(shards=4))
        assert "smooth" in program.shard_specs
        assert result.output == local.output
        plans = [r for r in result.invocations if r.shards > 1]
        assert len(plans) == 1
        record = plans[0]
        assert record.shards == 4
        assert sum(record.shard_sizes) == 600
        assert record.shard_sizes == [150, 150, 150, 150]
        # the parallel wall is the slowest shard, strictly under the
        # serial sum the same server work would have cost
        assert 0.0 < record.shard_wall_seconds < record.server_seconds

    def test_non_divisible_trip_count(self):
        local, result, _ = _run(b"598\n", SessionOptions(shards=4))
        record = next(r for r in result.invocations if r.shards > 1)
        assert sum(record.shard_sizes) == 598
        assert record.shard_sizes == [150, 150, 149, 149]
        assert result.output == local.output

    def test_trip_smaller_than_k_degrades(self):
        # profile at n=600 so the estimator still offloads, then feed a
        # 3-iteration run: the plan clamps k to the trip count.
        local, result, _ = offload_c(
            SHARD_SRC, stdin=b"3\n", profile_stdin=b"600\n",
            compiler_options=FORCED,
            session_options=SessionOptions(shards=8))
        record = max(result.invocations, key=lambda r: r.shards)
        assert record.shards == 3           # min(shards, trip)
        assert record.shard_sizes == [1, 1, 1]
        assert result.output == local.output

    def test_trivial_trip_stays_classic(self):
        local, result, _ = offload_c(
            SHARD_SRC, stdin=b"1\n", profile_stdin=b"600\n",
            compiler_options=FORCED,
            session_options=SessionOptions(shards=4))
        assert all(r.shards == 1 for r in result.invocations)
        assert result.output == local.output

    @pytest.mark.parametrize("stdin", [b"100\n", b"4000\n"],
                             ids=["n100", "n4000"])
    @pytest.mark.parametrize("mobile", [ARM32, MIPS32BE],
                             ids=lambda arch: arch.name)
    def test_global_trip_count_in_the_mobiles_byte_order(self, mobile,
                                                         stdin):
        """``parallel-micro``'s bound is the global ``int n``; a
        big-endian mobile stores it big-endian."""
        built = workload("parallel-micro").build(
            CompilerOptions(mobile_arch=mobile, server_arch=X86_64))
        local = run_local(built.module, arch=mobile, stdin=stdin)
        result = OffloadSession(built.program, FAST_WIFI,
                                SessionOptions(shards=4), stdin=stdin).run()
        assert result.output.differences(local.output) == []
        (record,) = result.invocations
        n = int(stdin)
        assert record.shard_sizes == [n // 4] * 4

    def test_shards_fold_into_behavior_key(self):
        program = build_c(SHARD_SRC, b"600\n",
                          compiler_options=FORCED).program
        base = DeviceSpec(device_id="d", program=program,
                          network=FAST_WIFI, stdin=b"600\n",
                          options=SessionOptions())
        sharded = dataclasses.replace(
            base, options=SessionOptions(shards=4))
        assert behavior_key(base) != behavior_key(sharded)


class TestShardFaults:
    """DESIGN.md §5: any shard-fault schedule is output-invariant."""

    @pytest.mark.parametrize("faults", [(0,), (2,), (0, 2), (0, 1, 2, 3)])
    def test_injected_faults_byte_identical_output(self, faults):
        local, result, _ = _run(
            b"600\n", SessionOptions(shards=4, shard_faults=faults))
        assert result.output == local.output
        record = next(r for r in result.invocations if r.shards > 1)
        assert record.stragglers == len(faults)
        assert record.local_seconds > 0.0
        # the replay is charged to the mobile, not a fallback
        assert not record.fallback_local

    def test_straggler_factor_abandons_slowest(self):
        # 601/3 -> [201, 200, 200]: shard 0 is strictly slower than the
        # fastest, so a tight factor abandons it and replays locally.
        local, result, _ = _run(
            b"601\n", SessionOptions(shards=3, straggler_factor=1.001))
        record = next(r for r in result.invocations if r.shards > 1)
        assert record.stragglers >= 1
        assert result.output == local.output

    def test_factor_zero_disables_straggler_detection(self):
        local, result, _ = _run(
            b"601\n", SessionOptions(shards=3, straggler_factor=0.0))
        record = next(r for r in result.invocations if r.shards > 1)
        assert record.stragglers == 0
        assert result.output == local.output


class TestShardAnalysis:
    """Edge cases the analyzer must refuse (falling back to k=1)."""

    def test_loop_carried_dependence_refused(self):
        local, result, program = self._carried()
        assert "smooth" not in program.shard_specs
        assert "loop-carried dependence" in \
            program.shard_refusals.get("smooth", "")
        assert all(r.shards == 1 for r in result.invocations)
        assert result.output == local.output

    def _carried(self):
        src = r"""
int data[2048];
int out[2048];
int n;

void smooth(void) {
    int i;
    int acc = 0;
    for (i = 0; i < n; i++) {
        acc = acc + data[i];
        out[i] = acc;
    }
}

int main() {
    int i, total = 0;
    scanf("%d", &n);
    for (i = 0; i < n; i++) data[i] = i * 7 + 3;
    smooth();
    for (i = 0; i < n; i++) total += out[i];
    printf("sum %d\n", total);
    return 0;
}
"""
        return offload_c(src, stdin=b"600\n", compiler_options=FORCED,
                         session_options=SessionOptions(shards=4))

    def test_nested_loop_refused(self):
        _, _, program = offload_c(HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN,
                                  session_options=SessionOptions(shards=2))
        assert "crunch" not in program.shard_specs
        assert program.shard_refusals.get("crunch")

    def test_unproven_root_read_refused_when_target_writes(self):
        """An affine index proves nothing about a base with no provable
        root global (``int *q = a`` could just as well be ``a - 1``, and
        ``q[i]`` would read ``a[i-1]`` — a cross-shard dependence), so a
        writing target must refuse such a read outright."""
        src = r"""
int data[2048];
int out[2048];
int n;

void smooth(void) {
    int i;
    int *q = data;
    for (i = 0; i < n; i++) {
        out[i] = q[i] * 3 + i;
    }
}

int main() {
    int i, total = 0;
    scanf("%d", &n);
    for (i = 0; i < n; i++) data[i] = i * 7 + 3;
    smooth();
    for (i = 0; i < n; i++) total += out[i];
    printf("sum %d\n", total);
    return 0;
}
"""
        local, result, program = offload_c(
            src, stdin=b"600\n", compiler_options=FORCED,
            session_options=SessionOptions(shards=4))
        assert "smooth" not in program.shard_specs
        assert "unanalyzable in-loop read" in \
            program.shard_refusals.get("smooth", "")
        assert all(r.shards == 1 for r in result.invocations)
        assert result.output == local.output


class TestOptionValidation:
    """A straggler_factor in (0, 1) would brand every shard — the
    fastest included — a straggler; SessionOptions refuses it."""

    @pytest.mark.parametrize("factor", [0.5, 0.999, -1.0])
    def test_fractional_straggler_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="straggler_factor"):
            SessionOptions(straggler_factor=factor)

    @pytest.mark.parametrize("factor", [0.0, 1.0, 1.001, 2.5])
    def test_valid_straggler_factors_accepted(self, factor):
        assert SessionOptions(
            straggler_factor=factor).straggler_factor == factor

    def test_nonpositive_shards_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            SessionOptions(shards=0)


class TestScriptedReleasePairing:
    """A plan's zero-share member hands its slot back at sizing time
    while the rest release at plan end, so chronological release order
    is not grant order — the replay dispatcher must pair release times
    to admissions by identity or the scheduler frees the wrong
    server's slot."""

    def test_gang_release_times_come_back_in_grant_order(self):
        gang = tuple(edge_label(Admission(server_id=i))
                     for i in range(3))
        dispatcher = ScriptedDispatcher((gang,))
        members = dispatcher.admit("smooth", 0.0, 3)
        # zero-share middle member releases early, the rest at plan end
        dispatcher.release(members[1], 0.25)
        dispatcher.release(members[0], 9.0)
        dispatcher.release(members[2], 9.0)
        assert dispatcher.last_release_ts == (9.0, 0.25, 9.0)

    def test_single_grant_release(self):
        script = ((Admission(server_id=3),),)
        dispatcher = ScriptedDispatcher(script)
        [admission] = dispatcher.admit("smooth", 0.0)
        dispatcher.release(admission, 4.0)
        assert dispatcher.last_release_ts == (4.0,)

    def test_equal_members_stay_distinct_objects_in_grant_order(self):
        """Gang members with identical visible fields are equal labels,
        yet each is its own object, so identity pairing still holds."""
        gang = tuple(edge_label(Admission(server_id=0, start_s=float(i)))
                     for i in range(3))
        assert gang[0] == gang[1] == gang[2]
        dispatcher = ScriptedDispatcher((gang,))
        members = dispatcher.admit("smooth", 0.0, 3)
        assert type(members) is list
        assert all(m is g for m, g in zip(members, gang))
        assert len({id(m) for m in members}) == 3
        dispatcher.release(members[2], 0.5)
        dispatcher.release(members[0], 7.0)
        dispatcher.release(members[1], 8.0)
        assert dispatcher.last_release_ts == (7.0, 8.0, 0.5)

    # Each session-visible Admission field with the values it takes.
    VISIBLE = {"server_id": (0, 1, 2), "queue_seconds": (0.0, 0.25),
               "speed": (1.0, 2.5),
               "network": (None, NETWORKS["cloud-wan"], FAST_WIFI),
               "tier": (None, "edge", "cloud"), "deadline_s": (None, 0.5)}

    def _visible(self, outcome):
        if isinstance(outcome, Rejection):
            return ("rejected", outcome.estimated_wait_s)
        return ("admitted",) + tuple(getattr(outcome, name)
                                     for name in self.VISIBLE)

    def _outcomes(self, seed):
        """Seeded admissions in triples — one, a copy differing only in
        the pool's bookkeeping, a copy differing in one visible field —
        plus rejections, two of each quoted wait."""
        rng = random.Random(seed)
        outcomes = []
        for _ in range(10):
            base = Admission(
                start_s=rng.random(), token=rng.randrange(4),
                **{name: rng.choice(values)
                   for name, values in self.VISIBLE.items()})
            name = rng.choice(list(self.VISIBLE))
            other = rng.choice([value for value in self.VISIBLE[name]
                                if value != getattr(base, name)])
            outcomes += [base,
                         base._replace(start_s=rng.random(), token=object()),
                         base._replace(**{name: other})]
        for wait in (0.0, 0.5, rng.random()):
            outcomes += [Rejection(estimated_wait_s=wait),
                         Rejection(estimated_wait_s=wait)]
        return outcomes

    @pytest.mark.parametrize("seed", range(4))
    def test_edge_labels_are_equal_iff_visible_fields_are(self, seed):
        outcomes = self._outcomes(seed)
        labels = [edge_label(outcome) for outcome in outcomes]
        seen = set()
        for a, label_a in zip(outcomes, labels):
            for b, label_b in zip(outcomes, labels):
                same = self._visible(a) == self._visible(b)
                assert (label_a == label_b
                        and hash(label_a) == hash(label_b)) == same
                assert ((label_a,) == (label_b,)) == same
                if a is not b:
                    seen.add(same)
        assert seen == {True, False}
        assert all(label.start_s == 0.0 and label.token is None
                   for label in labels if isinstance(label, Admission))

    def test_unreleased_admission_raises(self):
        gang = tuple(edge_label(Admission(server_id=i))
                     for i in range(2))
        dispatcher = ScriptedDispatcher((gang,))
        members = dispatcher.admit("smooth", 0.0, 2)
        dispatcher.release(members[0], 1.0)
        with pytest.raises(RuntimeError, match="unreleased"):
            dispatcher.last_release_ts


class TestShardSizing:
    """Resource-aware apportionment (largest remainder, EWMA-damped)."""

    def _estimator(self, ewma=None):
        est = object.__new__(DynamicPerformanceEstimator)
        est.queue_delay_ewma = dict(ewma or {})
        return est

    def test_equal_speeds_largest_remainder(self):
        est = self._estimator()
        gang = [Admission(server_id=i) for i in range(4)]
        assert est.plan_shard_sizes(598, gang) == [150, 150, 149, 149]
        assert est.plan_shard_sizes(600, gang) == [150, 150, 150, 150]

    def test_speed_weighted(self):
        est = self._estimator()
        gang = [Admission(server_id=0, speed=3.0),
                Admission(server_id=1, speed=1.0)]
        assert est.plan_shard_sizes(400, gang) == [300, 100]

    def test_queue_ewma_damps_saturated_server(self):
        est = self._estimator({1: 1.0})   # server 1 looks saturated
        gang = [Admission(server_id=0), Admission(server_id=1)]
        sizes = est.plan_shard_sizes(300, gang)
        assert sum(sizes) == 300
        assert sizes[0] > sizes[1]

    def test_zero_iterations(self):
        est = self._estimator()
        gang = [Admission(server_id=0), Admission(server_id=1)]
        assert est.plan_shard_sizes(0, gang) == [0, 0]

    def test_contiguous_ranges(self):
        assert contiguous_ranges(0, [3, 3, 2]) == [(0, 3), (3, 6), (6, 8)]
        assert contiguous_ranges(5, [2, 0, 1]) == [(5, 7), (7, 7), (7, 8)]


class TestGangAdmission:
    def test_gang_spreads_over_free_servers(self):
        pool = ServerPool(PoolOptions(servers=4, capacity=1))
        gang = pool.admit_gang("smooth", 0.0, 3)
        assert isinstance(gang, list) and len(gang) == 3
        assert len({a.server_id for a in gang}) == 3
        assert all(a.queue_seconds == 0.0 for a in gang)
        for a in gang:
            pool.release(a, 1.0)
        rows = pool.servers_detail(horizon_s=1.0)
        assert sum(r["shard_admissions"] for r in rows) == 3

    def test_degrades_to_free_slots(self):
        # server busy until t=5 -> a 4-shard gang at t=1 degrades to
        # the two genuinely free servers
        pool = ServerPool(PoolOptions(servers=3, capacity=1))
        held = pool.admit("other", 0.0)
        pool.release(held, 5.0)
        gang = pool.admit_gang("smooth", 1.0, 4)
        assert isinstance(gang, list)
        assert len(gang) == 2
        assert held.server_id not in {a.server_id for a in gang}

    def test_saturated_pool_falls_back_to_classic_admit(self):
        """No slot free now -> one classic (possibly queued) admission,
        never a deadlocked partial gang."""
        pool = ServerPool(PoolOptions(servers=1, capacity=1,
                                      queue_limit=2))
        held = pool.admit("other", 0.0)
        pool.release(held, 5.0)
        outcome = pool.admit_gang("smooth", 1.0, 4)
        assert isinstance(outcome, list) and len(outcome) == 1
        assert outcome[0].queue_seconds > 0.0

    def test_network_override_servers_excluded(self):
        """Cloud-tier servers behind their own link cannot join a gang
        (one plan, one link); the gang degrades to the edge servers."""
        pool = ServerPool(PoolOptions(specs=(
            ServerSpec(), ServerSpec(),
            ServerSpec(speed=2.0, tier="cloud",
                       network=NETWORKS["cloud-wan"]))))
        gang = pool.admit_gang("smooth", 0.0, 3)
        assert isinstance(gang, list) and len(gang) == 2
        assert all(a.network is None for a in gang)

    def test_slot_bookkeeping_survives_gang_cycles(self):
        pool = ServerPool(PoolOptions(servers=2, capacity=2))
        for cycle in range(3):
            t = float(cycle)
            gang = pool.admit_gang("smooth", t, 4)
            assert len(gang) == 4
            for a in gang:
                pool.release(a, t + 0.5)
        rows = pool.servers_detail(horizon_s=3.0)
        assert sum(r["shard_admissions"] for r in rows) == 12

    def test_shards_one_wraps_classic_admit(self):
        pool = ServerPool(PoolOptions(servers=2, capacity=1))
        outcome = pool.admit_gang("smooth", 0.0, 1)
        assert isinstance(outcome, list) and len(outcome) == 1

    def test_rejection_passthrough(self):
        pool = ServerPool(PoolOptions(servers=1, capacity=1,
                                      queue_limit=1))
        a = pool.admit("other", 0.0)
        pool.release(a, 10.0)
        b = pool.admit("other", 1.0)     # queued: fills the queue
        pool.release(b, 11.0)
        outcome = pool.admit_gang("smooth", 2.0, 2)
        assert isinstance(outcome, Rejection)

    def test_engine_refusal_degrades_to_a_refused_classic_admit(self):
        """The ladder's last rung: a deadline-aware engine that expects
        every free server to miss the deadline places no gang member,
        and refuses the one classic admission the gang degrades to."""
        pool = ServerPool(PoolOptions(servers=2, capacity=1),
                          engine="deadline-aware")
        served = pool.admit("other", 0.0)
        pool.release(served, 1.0)        # history: 1 s per invocation
        outcome = pool.admit_gang("smooth", 2.0, 2, deadline_s=0.5)
        assert isinstance(outcome, Rejection)
        assert pool.total_rejected == 1
        rows = pool.servers_detail(horizon_s=2.0)
        assert sum(r["shard_admissions"] for r in rows) == 0


class TestFleetGangs:
    @pytest.fixture(scope="class")
    def compiled(self):
        built = build_c(SHARD_SRC, b"600\n", compiler_options=FORCED,
                        name="shard-fleet")
        return built.program, built.local()

    def _fleet(self, program, shards, servers=4, devices=2):
        pool = ServerPool(PoolOptions(servers=servers, capacity=1))
        specs = [DeviceSpec(device_id=f"dev{i}", program=program,
                            network=FAST_WIFI, stdin=b"600\n",
                            start_offset_s=i * 0.001,
                            options=SessionOptions(shards=shards))
                 for i in range(devices)]
        return FleetScheduler(specs, pool).run()

    def test_event_scheduler_runs_gangs(self, compiled):
        program, local = compiled
        result = self._fleet(program, shards=4)
        assert not result.differences(local.output)
        detail = result.summary()["servers_detail"]
        assert sum(r["shard_admissions"] for r in detail) >= 4

    def test_gang_fleet_deterministic(self, compiled):
        program, _ = compiled
        first = self._fleet(program, shards=4)
        second = self._fleet(program, shards=4)
        assert json.dumps(first.summary(), sort_keys=True) == \
            json.dumps(second.summary(), sort_keys=True)

    def test_zero_share_gang_fleet_releases_correct_slots(self):
        # trip 2 across a 3x-faster server: largest-remainder sizing
        # gives [2, 0], the zero-share member's slot goes back at
        # sizing time and the plan degrades to the classic path — the
        # scheduler must still free each real server at its own
        # member's instant.
        built = build_c(SHARD_SRC, stdin=b"2\n", profile_stdin=b"600\n",
                        compiler_options=FORCED, name="shard-zero")
        program, local = built.program, built.local()
        pool = ServerPool(PoolOptions(specs=(ServerSpec(speed=3.0),
                                             ServerSpec())))
        specs = [DeviceSpec(device_id="d0", program=program,
                            network=FAST_WIFI, stdin=b"2\n",
                            options=SessionOptions(shards=2))]
        result = FleetScheduler(specs, pool).run()
        assert result.devices[0].result.output == local.output
        detail = result.summary()["servers_detail"]
        assert sum(r["shard_admissions"] for r in detail) == 2

    def test_autoscaler_observes_a_gang_once(self, compiled):
        """The live autoscaler counts what the post-hoc SLO evaluator
        counts: one observation per served request, so a 4-shard gang
        weighs as much as a rejection, not four times as much."""
        program, _ = compiled
        pool = ServerPool(PoolOptions(servers=4, capacity=1))
        autoscaler = Autoscaler()
        served, observed = [], []
        admit_gang, observe = pool.admit_gang, autoscaler.observe

        def counted_admit_gang(*args, **kwargs):
            served.append(admit_gang(*args, **kwargs))
            return served[-1]

        def counted_observe(t, outcome):
            observed.append(outcome)
            observe(t, outcome)

        pool.admit_gang = counted_admit_gang
        autoscaler.observe = counted_observe
        specs = [DeviceSpec(device_id=f"dev{i}", program=program,
                            network=FAST_WIFI, stdin=b"600\n",
                            start_offset_s=i * 0.001,
                            options=SessionOptions(shards=4))
                 for i in range(2)]
        FleetScheduler(specs, pool, autoscaler).run()
        assert any(isinstance(outcome, list) and len(outcome) == 4
                   for outcome in served)
        assert len(observed) == len(served)
        for outcome, seen in zip(served, observed):
            assert seen is (outcome if isinstance(outcome, Rejection)
                            else outcome[0])

    def test_lockstep_engine_refuses_shards(self, compiled):
        program, _ = compiled
        specs = [DeviceSpec(device_id="d", program=program,
                            network=FAST_WIFI, stdin=b"600\n",
                            options=SessionOptions(shards=2))]
        with pytest.raises(ValueError, match="lockstep"):
            LockstepFleetScheduler(specs, ServerPool())


class TestPlanGoldens:
    """The plan path is the one the lockstep reference cannot run, so
    it is pinned by fingerprints instead: sha256 of the summary JSON
    plus the merged trace JSONL of ``parallel-micro`` fleets, captured
    at the last commit that carried a separate plan protocol body
    (29be705) and re-captured when the ``estimate`` event folded into
    ``decision`` (the summaries did not move).  A digest moves only if
    a simulated number or a trace byte moves."""

    GOLDENS = {
        "k2": (SessionOptions(shards=2),
               "3dd6e7570cb541507b4d53f46361f5bb"
               "a8556f8b2104ffbe14466794527db2ba"),
        "k4": (SessionOptions(shards=4),
               "e4146cd8c6e5089ae333bdff48fca65b"
               "5177d2d92f9b89cabb0f8912f6b8812d"),
        "k4-shard-fault": (
            SessionOptions(shards=4, shard_faults=(1,)),
            "6f7d8e161a1b367c17af01e79cbef492"
            "b4c57c875cefb58540988f93de4f7350"),
        # No prefetch, so every page is a copy-on-demand message: the
        # ninth one finds the link dead after device 0's first shard
        # finished (a plan abort with overlap) and in the middle of
        # device 1's degraded single-server execution.
        "k4-link-abort-mid-exec": (
            SessionOptions(shards=4, enable_prefetch=False,
                           fault_plan=FaultPlan(
                               seed=5, disconnect_after_messages=9)),
            "b774e47811087638f43a98fd8257f34f"
            "4c221ee4d711433d5e3059a99af8d9f3"),
    }

    @pytest.fixture(scope="class")
    def micro(self):
        spec = workload("parallel-micro")
        return spec.build().program, spec.eval_stdin

    @pytest.mark.parametrize("case", list(GOLDENS))
    def test_fleet_fingerprint(self, micro, case):
        program, stdin = micro
        options, golden = self.GOLDENS[case]
        specs = [DeviceSpec(device_id=f"dev{i:02d}", program=program,
                            network=FAST_WIFI, stdin=stdin,
                            start_offset_s=i * 0.001,
                            options=dataclasses.replace(
                                options, enable_tracing=True))
                 for i in range(2)]
        result = FleetScheduler(
            specs, ServerPool(PoolOptions(servers=4, capacity=1))).run()
        if options.fault_plan is not None:
            aborted = [(r.abort_phase, r.shards) for d in result.devices
                       for r in d.result.invocations if r.aborted]
            assert aborted == [("exec", 4), ("exec", 1)]
        text = (json.dumps(result.summary(), sort_keys=False)
                + events_to_jsonl(result.merged_events()))
        assert hashlib.sha256(text.encode()).hexdigest() == golden


class TestPlanTraces:
    def _traced(self, options):
        return _run(b"600\n", options)

    @pytest.mark.parametrize("options", [
        SessionOptions(shards=4, enable_tracing=True),
        SessionOptions(shards=4, shard_faults=(0, 2),
                       enable_tracing=True),
    ], ids=["plan", "plan+faults"])
    def test_span_invariant_holds(self, options):
        local, result, _ = self._traced(options)
        assert result.output == local.output
        events = result.trace.events()
        sessions = reconstruct_sessions(events)
        assert validate_sessions(sessions, len(events)) == []
        cats = {e.category for e in events}
        assert {"offload.scatter", "offload.exec",
                "offload.gather"} <= cats
        if options.shard_faults:
            assert "offload.straggler" in cats

    def test_critical_path_uses_parallel_wall(self):
        _, result, _ = self._traced(
            SessionOptions(shards=4, enable_tracing=True))
        record = next(r for r in result.invocations if r.shards > 1)
        sessions = reconstruct_sessions(result.trace.events())
        paths = [p for s in sessions for p in attribute_session(s)
                 if p.status == "offloaded" and "smooth" in p.target]
        assert len(paths) == 1
        assert paths[0].buckets["server_compute"] == pytest.approx(
            record.shard_wall_seconds)

    def test_straggler_replay_books_mobile_compute(self):
        _, result, _ = self._traced(
            SessionOptions(shards=4, shard_faults=(1,),
                           enable_tracing=True))
        record = next(r for r in result.invocations if r.shards > 1)
        sessions = reconstruct_sessions(result.trace.events())
        paths = [p for s in sessions for p in attribute_session(s)
                 if "smooth" in p.target]
        assert paths[0].buckets["mobile_compute"] == pytest.approx(
            record.local_seconds)

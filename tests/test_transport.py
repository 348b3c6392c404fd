"""Tests for the layered transport stack: fault plans, the raw link,
the retrying transport, failure-aware estimation, and the two
fault-model invariants of DESIGN.md §5 — the zero-fault no-op and
abort-and-replay semantics preservation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.machine import STACK_SIZE
from repro.runtime import (FAST_WIFI, FaultPlan, Link, LinkDownError,
                           NO_FAULTS, NetworkModel, OffloadSession,
                           RetryPolicy, SessionOptions, Transport)
from repro.runtime.transport import BACKOFF_BASE_S

from conftest import build_c

NET = NetworkModel("t", bandwidth_bps=8e6, latency_s=0.001)


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_defaults_are_empty(self):
        assert FaultPlan().is_empty
        assert NO_FAULTS.is_empty
        # a seed alone injects nothing
        assert FaultPlan(seed=99).is_empty

    def test_any_knob_makes_it_nonempty(self):
        assert not FaultPlan(drop_rate=0.1).is_empty
        assert not FaultPlan(max_jitter_s=1e-4).is_empty
        assert not FaultPlan(disconnect_after_messages=3).is_empty
        assert not FaultPlan(disconnect_rate=0.01).is_empty
        assert not FaultPlan(bandwidth_factor=0.5).is_empty

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(disconnect_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(max_jitter_s=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(bandwidth_factor=0.0)
        with pytest.raises(ValueError):
            FaultPlan(disconnect_after_messages=-1)


# ---------------------------------------------------------------------------
# Link (raw medium)
# ---------------------------------------------------------------------------
class TestLink:
    def test_faultless_is_exactly_the_network_formula(self):
        link = Link(NET)
        assert link.faultless
        att = link.transmit(1000)
        assert att.delivered
        assert att.seconds == NET.one_way_time(1000)  # bit-identical

    def test_empty_plan_normalized_to_faultless(self):
        assert Link(NET, FaultPlan()).faultless
        assert Link(NET, FaultPlan(seed=7)).faultless

    def test_same_seed_same_schedule(self):
        plan = FaultPlan(seed=42, drop_rate=0.5, max_jitter_s=1e-3)
        a = [Link(NET, plan).transmit(100) for _ in range(1)]
        outcomes = []
        for _ in range(2):
            link = Link(NET, plan)
            outcomes.append([(link.transmit(100).delivered,
                              link.transmit(100).seconds)
                             for _ in range(20)])
        assert outcomes[0] == outcomes[1]

    def test_certain_drop_never_delivers(self):
        link = Link(NET, FaultPlan(drop_rate=1.0))
        for _ in range(5):
            att = link.transmit(10)
            assert not att.delivered and not att.disconnected
            assert att.seconds == 0.0
        assert link.alive  # drops are transient, the link is not dead

    def test_disconnect_after_messages(self):
        link = Link(NET, FaultPlan(disconnect_after_messages=2))
        assert link.transmit(10).delivered
        assert link.transmit(10).delivered
        att = link.transmit(10)
        assert att.disconnected and not att.delivered
        assert not link.alive
        assert not link.can_reconnect  # no reconnect_rate configured
        assert not link.try_reconnect()

    def test_jitter_bounded(self):
        plan = FaultPlan(seed=5, max_jitter_s=2e-3)
        link = Link(NET, plan)
        base = NET.one_way_time(500)
        for _ in range(20):
            att = link.transmit(500)
            assert base <= att.seconds < base + 2e-3

    def test_bandwidth_collapse_slows_delivery(self):
        slow = Link(NET, FaultPlan(bandwidth_factor=0.25))
        att = slow.transmit(100_000)
        assert att.seconds > NET.one_way_time(100_000) * 2

    def test_reconnect_draws_from_the_same_rng(self):
        plan = FaultPlan(seed=1, disconnect_rate=1.0, reconnect_rate=1.0)
        link = Link(NET, plan)
        att = link.transmit(10)
        assert att.disconnected and not link.alive
        assert link.can_reconnect
        assert link.try_reconnect()
        assert link.alive


# ---------------------------------------------------------------------------
# RetryPolicy / Transport
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        p = RetryPolicy()
        assert p.backoff_s(0) == pytest.approx(BACKOFF_BASE_S)
        assert p.backoff_s(3) == pytest.approx(8 * BACKOFF_BASE_S)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_max_delivery_seconds_bounds_the_budget(self):
        p = RetryPolicy()
        expected = NET.one_way_time(1000)
        assert p.max_delivery_seconds(expected) > expected


class TestTransport:
    def test_faultless_passthrough_is_bit_identical(self):
        t = Transport(Link(NET))
        assert t.deliver(1234) == NET.one_way_time(1234)
        assert t.stats.messages == 1
        assert t.stats.retries == 0 and t.stats.drops == 0

    def test_retries_after_transient_drops(self):
        # seed chosen freely: with drop_rate=0.5 some of 30 deliveries
        # will need retries, and all must eventually succeed
        plan = FaultPlan(seed=9, drop_rate=0.5)
        t = Transport(Link(NET, plan),
                      policy=RetryPolicy(max_attempts=12))
        total = sum(t.deliver(100) for _ in range(30))
        assert t.stats.messages == 30
        assert t.stats.retries > 0 and t.stats.drops == t.stats.retries
        # retried deliveries cost timeout + backoff on top of transfer
        assert total > 30 * NET.one_way_time(100)
        assert t.stats.timeout_seconds > 0
        assert t.stats.backoff_seconds > 0

    def test_gives_up_within_the_retry_budget(self):
        plan = FaultPlan(drop_rate=1.0)
        policy = RetryPolicy(max_attempts=3)
        t = Transport(Link(NET, plan), policy=policy)
        with pytest.raises(LinkDownError) as exc:
            t.deliver(1000)
        assert t.stats.failed_deliveries == 1
        assert t.stats.drops == 3
        elapsed = exc.value.elapsed_seconds
        assert 0 < elapsed <= policy.max_delivery_seconds(
            NET.one_way_time(1000))

    def test_hard_disconnect_without_reconnect_kills_delivery(self):
        t = Transport(Link(NET, FaultPlan(disconnect_after_messages=0)))
        with pytest.raises(LinkDownError):
            t.deliver(10)
        assert not t.alive
        assert not t.usable   # dead for good: estimator stops offloading
        # every subsequent delivery fails immediately too
        with pytest.raises(LinkDownError):
            t.deliver(10)

    def test_reconnect_revives_delivery(self):
        plan = FaultPlan(seed=2, disconnect_rate=0.4, reconnect_rate=1.0)
        t = Transport(Link(NET, plan))
        for _ in range(25):
            assert t.deliver(50) > 0
        assert t.stats.messages == 25
        assert t.stats.disconnects > 0
        assert t.stats.reconnects == t.stats.disconnects
        assert t.stats.reconnect_seconds > 0


# ---------------------------------------------------------------------------
# Session-level fault behavior
# ---------------------------------------------------------------------------
# A workload exercising every transport touchpoint: heap prefetch +
# write-back, remote input (fgets round trips), remote output (printf
# streams), and a post-kernel consistency check over the shared heap.
FAULT_SRC = r"""
int *data;
int kernel(int n, void *f) {
    char line[32];
    int i, acc = 0;
    while (fgets(line, 32, f)) acc += atoi(line);
    for (i = 0; i < n; i++) {
        data[i % 64] += (i ^ acc) & 0xFF;
        acc += data[i % 64] * 3;
    }
    printf("acc %d\n", acc);
    return acc;
}
int main() {
    int i, n, check = 0;
    void *f;
    scanf("%d", &n);
    data = (int*) malloc(64 * sizeof(int));
    for (i = 0; i < 64; i++) data[i] = i;
    f = fopen("nums.txt", "r");
    if (!f) return 1;
    printf("%d\n", kernel(n, f));
    fclose(f);
    for (i = 0; i < 64; i++) check += data[i] * (i + 1);
    printf("check %d\n", check);
    return 0;
}
"""
FAULT_STDIN = b"1500\n"
FAULT_FILES = {"nums.txt": b"1\n2\n3\n4\n"}

# Several dynamic invocations, so post-failure decisions are observable.
MULTI_SRC = r"""
int *data;
int crunch(int r0) {
    int i, r, acc = 0;
    for (r = 0; r < 12; r++)
        for (i = 0; i < 400; i++)
            acc += (data[i] * 31 + r + r0) ^ (acc >> 3);
    return acc;
}
int main() {
    int i, total = 0;
    data = (int*) malloc(400 * sizeof(int));
    for (i = 0; i < 400; i++) data[i] = i * 7 + 3;
    /* four separate call sites: four dynamic offload decisions */
    total += crunch(0);
    total += crunch(1);
    total += crunch(2);
    total += crunch(3);
    printf("total %d\n", total);
    return 0;
}
"""

_PROGRAMS = {}


def _compiled(key, source, stdin, files=None):
    """Compile + profile once per module; sessions are cheap, compiles
    are not (hypothesis runs many examples)."""
    if key not in _PROGRAMS:
        built = build_c(source, stdin, files, name=key)
        _PROGRAMS[key] = (built.program, built.local())
    return _PROGRAMS[key]


def _run(key, source, stdin, files=None, **session_kwargs):
    program, local = _compiled(key, source, stdin, files)
    session = OffloadSession(program, FAST_WIFI,
                             options=SessionOptions(**session_kwargs),
                             stdin=stdin,
                             files=dict(files) if files else None)
    return local, session, session.run()


def _final_memory(session):
    """Mobile memory outside the (dead-residue-bearing) stack region:
    what the program can observe at exit beside its ``GuestOutput``."""
    mobile = session.mobile
    stack_lo = mobile.stack_top - STACK_SIZE
    psize = mobile.memory.page_size
    pages = {}
    for pidx in mobile.memory.mapped_pages():
        base = pidx * psize
        if stack_lo <= base < mobile.stack_top:
            continue
        pages[pidx] = bytes(mobile.memory.page_bytes(pidx))
    return pages


class TestZeroFaultNoOp:
    def test_empty_plan_is_bit_identical(self):
        """fault_plan=None and fault_plan=FaultPlan() must produce the
        same numbers to the last bit — the zero-fault no-op invariant."""
        _, _, base = _run("fault", FAULT_SRC, FAULT_STDIN, FAULT_FILES)
        _, _, empty = _run("fault", FAULT_SRC, FAULT_STDIN, FAULT_FILES,
                           fault_plan=FaultPlan(seed=123))
        assert empty.output == base.output
        assert empty.total_seconds == base.total_seconds
        assert empty.energy_mj == base.energy_mj
        assert empty.comm_seconds == base.comm_seconds
        assert empty.bytes_to_server == base.bytes_to_server
        assert empty.bytes_to_mobile == base.bytes_to_mobile
        assert empty.transport_stats.retries == 0
        assert empty.aborted_invocations == 0

    def test_faulty_runs_are_seed_deterministic(self):
        plan = FaultPlan(seed=77, drop_rate=0.4, max_jitter_s=5e-4)
        _, _, a = _run("fault", FAULT_SRC, FAULT_STDIN, FAULT_FILES,
                       fault_plan=plan)
        _, _, b = _run("fault", FAULT_SRC, FAULT_STDIN, FAULT_FILES,
                       fault_plan=plan)
        assert a.total_seconds == b.total_seconds
        assert a.energy_mj == b.energy_mj
        assert a.transport_stats == b.transport_stats


class TestAbortAndReplay:
    def test_init_failure_falls_back_locally(self):
        local, session, res = _run(
            "fault", FAULT_SRC, FAULT_STDIN, FAULT_FILES,
            fault_plan=FaultPlan(disconnect_after_messages=0))
        assert res.output == local.output
        assert res.offloaded_invocations == 0
        assert res.aborted_invocations >= 1
        assert res.local_fallbacks == res.aborted_invocations
        assert res.wasted_seconds > 0
        rec = next(r for r in res.invocations if r.aborted)
        assert rec.abort_phase == "init"
        assert rec.fallback_local

    def test_wasted_time_lands_on_the_timeline_and_battery(self):
        local, _, ok = _run("fault", FAULT_SRC, FAULT_STDIN, FAULT_FILES,
                            force_local=True)
        _, _, res = _run(
            "fault", FAULT_SRC, FAULT_STDIN, FAULT_FILES,
            fault_plan=FaultPlan(disconnect_after_messages=0))
        # a dead link costs strictly more than never trying: the local
        # work is identical (modulo one builtin-dispatch call charge),
        # plus the wasted retry/timeout budget
        assert res.total_seconds > ok.total_seconds
        assert res.total_seconds == pytest.approx(
            ok.total_seconds + res.wasted_seconds, rel=1e-3)
        assert res.energy_mj > ok.energy_mj

    def test_dead_link_declines_subsequent_invocations(self):
        local, session, res = _run(
            "multi", MULTI_SRC, b"",
            fault_plan=FaultPlan(disconnect_after_messages=0))
        assert res.output == local.output
        assert res.aborted_invocations == 1     # only the first attempt
        assert res.local_fallbacks == 1
        assert res.offloaded_invocations == 0
        # the estimator saw transport.usable == False and declined the
        # rest without burning another retry budget
        assert res.declined_invocations == len(res.invocations) - 1
        assert len(res.invocations) >= 2
        assert session.estimator.last_reason == "link_down"

    def test_failure_cooldown_backs_off_exponentially(self):
        program, _ = _compiled("multi", MULTI_SRC, b"")
        session = OffloadSession(program, FAST_WIFI)
        est = session.estimator
        target = session.program.targets[0]
        name = target.name
        est.record_offload_failure(name)
        assert est.state[name].cooldown == 1
        est.record_offload_failure(name)
        assert est.state[name].cooldown == 2
        for _ in range(8):
            est.record_offload_failure(name)
        assert est.state[name].cooldown == 8  # capped
        assert not est.should_offload(target)
        assert est.last_reason == "failure_backoff"
        # a completed offload clears the penalty
        est.record_offload_traffic(name, 1000.0)
        assert est.state[name].cooldown == 0


@given(seed=st.integers(0, 2**16),
       disconnect_after=st.one_of(st.none(), st.integers(0, 25)),
       drop_rate=st.sampled_from([0.0, 0.3, 0.7, 0.95]),
       jitter=st.sampled_from([0.0, 5e-4]),
       reconnect_rate=st.sampled_from([0.0, 0.5, 1.0]),
       prefetch=st.booleans())
@settings(max_examples=20, deadline=None)
def test_semantics_invariant_under_any_fault_schedule(
        seed, disconnect_after, drop_rate, jitter, reconnect_rate,
        prefetch):
    """The semantics invariant (DESIGN.md §5): whatever the injected
    fault schedule — including disconnects landing mid-initialization,
    mid-CoD and mid-finalization — the observable program state (stdout,
    stderr, files, final mobile memory outside the stack) is identical
    to the fault-free run, which itself matches pure-local execution.

    Dynamic estimation is disabled so every invocation attempts the
    offload path regardless of expected gain, maximizing fault-path
    coverage; prefetch toggles so copy-on-demand round trips (mid-exec
    failure points) are exercised too."""
    plan = FaultPlan(seed=seed, drop_rate=drop_rate, max_jitter_s=jitter,
                     disconnect_after_messages=disconnect_after,
                     reconnect_rate=reconnect_rate)
    local, base_session, base = _run(
        "fault", FAULT_SRC, FAULT_STDIN, FAULT_FILES,
        enable_dynamic_estimation=False, enable_prefetch=prefetch)
    _, session, res = _run(
        "fault", FAULT_SRC, FAULT_STDIN, FAULT_FILES,
        enable_dynamic_estimation=False, enable_prefetch=prefetch,
        fault_plan=plan)
    assert res.output == base.output == local.output
    assert _final_memory(session) == _final_memory(base_session)
    # bounded failure accounting: every abort produced a local replay
    assert res.local_fallbacks == res.aborted_invocations
    if plan.is_empty:
        assert res.total_seconds == base.total_seconds


class TestCLIFaultFlags:
    def test_run_accepts_seed_and_fault_flags(self, capsys):
        from repro.__main__ import main
        assert main(["run", "chess", "--seed", "3",
                     "--drop-rate", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "faulty link, seed 3" in out
        assert "faults" in out and "fallback" in out

    def test_trace_surfaces_fault_counters(self, capsys):
        from repro.__main__ import main
        assert main(["trace", "chess", "--seed", "4",
                     "--disconnect-after", "6", "--tail", "5"]) == 0
        out = capsys.readouterr().out
        assert "transport / fallback" in out
        assert "aborted invocations" in out

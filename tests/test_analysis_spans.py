"""Span reconstruction tests: the lossless invariant of
repro.trace.analysis.spans (ISSUE 5 satellite).

The property under test, for seeded single-session and fleet runs —
including fault schedules that force the abort/fallback path: every
emitted event is claimed by exactly one span, and per-span durations
reconcile with the ``session.end`` accounting to 1e-9
(``validate_sessions`` returns no discrepancies).  ``_assert_lossless``
checks the trace's other three reconciliations in the same breath (ISSUE
18): the tally of the raw stream equals the sum of the spans' tallies,
``phase_totals`` equals ``SessionResult.breakdown()``, and
``traffic_totals`` payload bytes equal ``SessionResult.bytes_to_*``.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import DeviceSpec, FleetScheduler, PoolOptions, ServerPool
from repro.offload import CompilerOptions
from repro.runtime import (FAST_WIFI, FaultPlan, OffloadSession,
                           SessionOptions)
from repro.trace import Tally, phase_totals, traffic_totals
from repro.trace.analysis import (BUCKETS, aggregate_sessions,
                                  attribute_invocation, invocation_counts,
                                  reconstruct_sessions, validate_sessions)

from repro.workloads import workload

from conftest import HOT_KERNEL_SRC, HOT_KERNEL_STDIN, build_c

# A workload touching every emission path the span state machine has to
# fold: heap prefetch + write-back, remote input (fgets round trips),
# remote output streaming, and repeat invocations so post-failure
# decline decisions appear in the same stream as the abort.
SPAN_SRC = r"""
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
    int i, n, k, total = 0;
    void *f;
    scanf("%d", &n);
    data = (int*) malloc(64 * sizeof(int));
    for (i = 0; i < 64; i++) data[i] = i;
    for (k = 0; k < 3; k++) {
        f = fopen("nums.txt", "r");
        if (!f) return 1;
        total += kernel(n, f);
        fclose(f);
    }
    printf("total %d\n", total);
    return 0;
}
"""
SPAN_STDIN = b"1200\n"
SPAN_FILES = {"nums.txt": b"1\n2\n3\n4\n"}

# Calls through a function-pointer table in UVA memory, so every server
# execution window translates pointers (``fnptr.window``) — with
# prefetch off it also faults pages in mid-window, which is where a
# dying link produces the mid-exec abort SPAN_SRC never reaches with
# look-ups outstanding.
FNPTR_SRC = r"""
typedef int (*OP)(int);
int *data;
int add3(int x) { return x + 3; }
int mul5(int x) { return x * 5; }
int xor9(int x) { return x ^ 9; }
OP ops[3] = { add3, mul5, xor9 };
int kernel(int n) {
    int i, acc = 0;
    for (i = 0; i < n; i++) {
        OP op = ops[i % 3];
        data[(i * 37) % 2048] = op(data[(i * 37) % 2048] + acc) & 0xFFFF;
        acc += data[(i * 37) % 2048];
    }
    printf("acc %d\n", acc);
    return acc;
}
int main() {
    int i, n, k, total = 0;
    scanf("%d", &n);
    data = (int*) malloc(2048 * sizeof(int));
    for (i = 0; i < 2048; i++) data[i] = i;
    for (k = 0; k < 3; k++) total += kernel(n);
    printf("total %d\n", total);
    return 0;
}
"""
FNPTR_STDIN = b"900\n"

# Two targets, one calling the other: when ``outer`` falls back to the
# phone, its local replay reaches ``inner``'s decision twelve times
# before the fallback closes ``outer``.
NESTED_SRC = r"""
int *data;
int inner(int r0) {
    int i, acc = 0;
    for (i = 0; i < 400; i++) acc += (data[i] * 31 + r0) ^ (acc >> 3);
    return acc;
}
int outer(int r0) {
    int r, acc = 0;
    for (r = 0; r < 12; r++) acc += inner(r + r0);
    return acc;
}
int main() {
    int i;
    data = (int*) malloc(400 * sizeof(int));
    for (i = 0; i < 400; i++) data[i] = i * 7 + 3;
    printf("%d\n", outer(1));
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
    session_kwargs.setdefault("enable_tracing", True)
    session = OffloadSession(program, FAST_WIFI,
                             options=SessionOptions(**session_kwargs),
                             stdin=stdin,
                             files=dict(files) if files else None)
    return local, session.run()


def _assert_lossless(events, *records):
    """The invariant: reconstruct, validate, and (when SessionResults
    are supplied, one per session in ``sid`` order) agree with the
    runtime's own accounting — outcome counts, the Figure 7 phase
    breakdown and the payload bytes — while the tally of each raw
    per-session stream equals the sum of its spans' tallies."""
    sessions = reconstruct_sessions(events)
    assert validate_sessions(sessions, len(events)) == []
    streams = {s.sid: [e for e in events if e.sid == s.sid]
               for s in sessions}
    for session in sessions:
        _assert_tally_additive(Tally.of(streams[session.sid]),
                               session.tallies())
    if records:
        expected = invocation_counts(r for result in records
                                     for r in result.invocations)
        agg = aggregate_sessions(sessions)
        assert agg.invocations == expected
        assert len(records) == len(sessions)
        for session, result in zip(
                sorted(sessions, key=lambda s: s.sid or ""), records):
            stream = streams[session.sid]
            assert phase_totals(stream) == pytest.approx(
                result.breakdown(), abs=1e-9)
            traffic = traffic_totals(stream)
            assert (traffic["payload_bytes_to_server"],
                    traffic["payload_bytes_to_mobile"]) == (
                        result.bytes_to_server, result.bytes_to_mobile)
    return sessions


def _assert_tally_additive(whole, parts):
    for f in dataclasses.fields(Tally):
        values = [getattr(part, f.name) for part in parts]
        if f.name == "start":
            expected = min(p.start for p in parts if p.events)
        elif f.name in ("end", "last_t"):
            expected = max(values)
        elif isinstance(f.default, tuple):
            expected = sorted(sum(values, ()))
            assert sorted(getattr(whole, f.name)) == expected
            continue
        else:
            expected = sum(values)
        assert getattr(whole, f.name) == pytest.approx(
            expected, abs=1e-9), f.name


def _gang_fleet(plan):
    """Three ``parallel-micro`` devices asking a 4-server pool for
    4-shard gangs half a millisecond apart: the first gets its gang,
    the next two find servers busy and degrade (to narrower gangs, or
    to the plan of one behind a queue)."""
    if "gang" not in _PROGRAMS:
        _PROGRAMS["gang"] = workload("parallel-micro").build().program
    program = _PROGRAMS["gang"]
    specs = [DeviceSpec(
        device_id=f"dev{i:02d}", program=program, network=FAST_WIFI,
        stdin=b"800\n", start_offset_s=i * 0.0005,
        options=SessionOptions(
            enable_tracing=True, shards=4,
            fault_plan=dataclasses.replace(plan, seed=plan.seed + i)))
        for i in range(3)]
    pool = ServerPool(PoolOptions(servers=4, capacity=1, queue_limit=4))
    return FleetScheduler(specs, pool).run()


class TestSingleSession:
    def test_clean_run_reconstructs_losslessly(self):
        _, res = _run("span", SPAN_SRC, SPAN_STDIN, SPAN_FILES)
        sessions = _assert_lossless(res.trace.events(), res)
        assert len(sessions) == 1
        session = sessions[0]
        assert not session.partial
        assert session.program == "span"
        assert len(session.invocations) == len(res.invocations)

    def test_statuses_mirror_invocation_records(self):
        _, res = _run("span", SPAN_SRC, SPAN_STDIN, SPAN_FILES)
        [session] = reconstruct_sessions(res.trace.events())
        for span, rec in zip(session.invocations, res.invocations):
            assert span.status == rec.status
            assert span.target == rec.target

    def test_offloaded_invocation_has_the_protocol_phases(self):
        _, res = _run("span", SPAN_SRC, SPAN_STDIN, SPAN_FILES)
        [session] = reconstruct_sessions(res.trace.events())
        inv = next(i for i in session.invocations
                   if i.status == "offloaded")
        for name in ("decide", "init", "exec", "finalize"):
            assert name in inv.phases, f"missing phase {name}"
        assert inv.tally.server_seconds > 0.0
        assert inv.start >= session.start
        assert inv.end <= session.end

    def test_dead_link_abort_path(self):
        """disconnect_after_messages=0 guarantees an init-phase abort
        with a local fallback (tests/test_transport.py) — the hardest
        stream for the state machine (an abort mid-init, then the
        fallback that closes the invocation)."""
        _, res = _run("span", SPAN_SRC, SPAN_STDIN, SPAN_FILES,
                      fault_plan=FaultPlan(disconnect_after_messages=0))
        assert res.aborted_invocations >= 1
        sessions = _assert_lossless(res.trace.events(), res)
        aborted = [i for s in sessions for i in s.invocations
                   if i.status == "aborted"]
        assert aborted
        assert all("fallback" in i.phases for i in aborted)
        assert aborted[0].abort_phase == "init"

    def test_decisions_nested_in_a_fallback(self):
        """The inner declines nest in the aborted outer invocation,
        which keeps its fallback: span counts equal record counts."""
        if "nested" not in _PROGRAMS:
            built = build_c(NESTED_SRC, name="nested",
                            compiler_options=CompilerOptions(
                                forced_targets=["outer", "inner"]))
            _PROGRAMS["nested"] = (built.program, built.local())
        _, res = _run("nested", NESTED_SRC, b"",
                      fault_plan=FaultPlan(disconnect_after_messages=0))
        [session] = _assert_lossless(res.trace.events(), res)
        outer, *inner = session.invocations
        assert (outer.target, outer.status) == ("outer", "aborted")
        assert outer.fallback_local and outer.tally.replay_seconds > 0.0
        assert [(i.target, i.reason) for i in inner] == (
            [("inner", "link_down")] * 12)

    def test_hot_kernel_session(self):
        _, res = _run("hot", HOT_KERNEL_SRC, HOT_KERNEL_STDIN)
        _assert_lossless(res.trace.events(), res)


@given(program=st.sampled_from(["span", "fnptr", "gang"]),
       seed=st.integers(0, 2**16),
       disconnect_after=st.one_of(st.none(), st.integers(0, 25)),
       drop_rate=st.sampled_from([0.0, 0.3, 0.7, 0.95]),
       jitter=st.sampled_from([0.0, 5e-4]),
       reconnect_rate=st.sampled_from([0.0, 0.5, 1.0]),
       prefetch=st.booleans())
@settings(max_examples=36, deadline=None)
def test_lossless_under_any_fault_schedule(program, seed, disconnect_after,
                                           drop_rate, jitter,
                                           reconnect_rate, prefetch):
    """Whatever fault schedule the transport injects — disconnects
    landing mid-init, mid-CoD, mid-finalize, retry storms, aborts and
    their local fallbacks — the span tree stays lossless and
    every trace-derived number reconciles with the session's own.
    Three programs, because each reaches protocol the others cannot:
    remote I/O in both directions (``span``), fn-ptr windows cut short
    by a mid-exec abort (``fnptr``), and scatter/gather gangs that
    degrade on a contended pool (``gang``).  Dynamic estimation is off
    for the single sessions so every invocation attempts the offload
    path, maximizing protocol coverage."""
    plan = FaultPlan(seed=seed, drop_rate=drop_rate, max_jitter_s=jitter,
                     disconnect_after_messages=disconnect_after,
                     reconnect_rate=reconnect_rate)
    if program == "gang":
        result = _gang_fleet(plan)
        _assert_lossless(result.merged_events(),
                         *[d.result for d in result.devices])
        return
    source, stdin, files = {
        "span": (SPAN_SRC, SPAN_STDIN, SPAN_FILES),
        "fnptr": (FNPTR_SRC, FNPTR_STDIN, None)}[program]
    _, res = _run(program, source, stdin, files,
                  enable_dynamic_estimation=False,
                  enable_prefetch=prefetch, fault_plan=plan)
    _assert_lossless(res.trace.events(), res)


class TestFleetStreams:
    def _fleet(self, devices=3, fault_plans=None, capacity=1,
               queue_limit=4, trace_capacity=None):
        program, _ = _compiled("span", SPAN_SRC, SPAN_STDIN, SPAN_FILES)
        specs = []
        for i in range(devices):
            plan = fault_plans[i] if fault_plans else None
            kwargs = {"enable_tracing": True, "fault_plan": plan}
            if trace_capacity is not None:
                kwargs["trace_capacity"] = trace_capacity
            specs.append(DeviceSpec(
                device_id=f"dev{i:02d}", program=program,
                network=FAST_WIFI, stdin=SPAN_STDIN,
                files=dict(SPAN_FILES),
                start_offset_s=i * 0.01,
                options=SessionOptions(**kwargs)))
        pool = ServerPool(PoolOptions(servers=1, capacity=capacity,
                                      queue_limit=queue_limit))
        return FleetScheduler(specs, pool).run()

    def test_merged_stream_splits_back_into_per_device_sessions(self):
        result = self._fleet(devices=3)
        events = result.merged_events()
        sessions = _assert_lossless(
            events, *[d.result for d in result.devices])
        assert sorted(s.sid for s in sessions) == \
            ["dev00", "dev01", "dev02"]
        assert not any(s.partial for s in sessions)

    def test_faulty_device_amid_healthy_fleet(self):
        """One device's abort/fallback stream interleaved with two
        healthy devices on the global timeline."""
        plans = [None, FaultPlan(disconnect_after_messages=0), None]
        result = self._fleet(devices=3, fault_plans=plans)
        assert result.devices[1].result.aborted_invocations >= 1
        sessions = _assert_lossless(
            result.merged_events(),
            *[d.result for d in result.devices])
        faulty = next(s for s in sessions if s.sid == "dev01")
        assert any(i.status == "aborted" for i in faulty.invocations)

    def test_contended_pool_yields_queue_spans(self):
        result = self._fleet(devices=4, capacity=1)
        sessions = _assert_lossless(
            result.merged_events(),
            *[d.result for d in result.devices])
        queued = [i for s in sessions for i in s.invocations
                  if i.tally.queue_seconds > 0.0]
        if any(d.result.queue_seconds > 0 for d in result.devices):
            assert queued

    def test_truncated_ring_buffer_is_partial_but_conserved(self):
        """A tiny ring buffer drops the stream's head: the session is
        flagged partial (reconciliation is unknowable), but event
        conservation still holds — nothing is double-claimed or lost."""
        result = self._fleet(devices=1, trace_capacity=16)
        tracer = result.devices[0].result.trace
        assert tracer.dropped > 0
        events = result.merged_events()
        assert len(events) == 16
        sessions = reconstruct_sessions(events)
        assert sessions[0].partial
        assert validate_sessions(sessions, len(events)) == []


class TestCriticalPathAttribution:
    def test_buckets_are_nonnegative_and_named(self):
        _, res = _run("span", SPAN_SRC, SPAN_STDIN, SPAN_FILES)
        [session] = reconstruct_sessions(res.trace.events())
        for inv in session.invocations:
            path = attribute_invocation(inv)
            assert set(path.buckets) == set(BUCKETS)
            assert all(v >= 0.0 for v in path.buckets.values())
            assert path.dominant in BUCKETS + ("idle",)

    def test_offloaded_invocation_is_server_or_comm_bound(self):
        _, res = _run("span", SPAN_SRC, SPAN_STDIN, SPAN_FILES)
        [session] = reconstruct_sessions(res.trace.events())
        inv = next(i for i in session.invocations
                   if i.status == "offloaded")
        path = attribute_invocation(inv)
        assert path.buckets["server_compute"] > 0.0
        assert path.total_seconds > 0.0
        assert path.total_seconds == pytest.approx(
            sum(path.buckets.values()))

    def test_dead_link_books_retry_backoff_and_mobile_compute(self):
        _, res = _run("span", SPAN_SRC, SPAN_STDIN, SPAN_FILES,
                      fault_plan=FaultPlan(disconnect_after_messages=0))
        [session] = reconstruct_sessions(res.trace.events())
        inv = next(i for i in session.invocations
                   if i.status == "aborted")
        path = attribute_invocation(inv)
        # the local replay books under mobile_compute; the burned retry
        # budget under retry_backoff
        assert path.buckets["mobile_compute"] > 0.0
        assert path.buckets["retry_backoff"] > 0.0

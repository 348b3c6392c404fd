"""Tests for the repro.trace observability subsystem.

Covers the tracer and histogram primitives, the JSONL and Chrome
exports, the runtime instrumentation (event ordering, category coverage,
the tracing-disabled no-op invariant), and the reconciliation tests that
make the trace the single source of truth for the session's time and
byte accounting (including the chess workload of the paper's running
example).
"""

import json

import pytest

from repro.eval.runner import run_program
from repro.runtime import SessionOptions
from repro.runtime.comm import INPUT_REQUEST_BYTES, PER_ITEM_HEADER_BYTES
from repro.runtime.network import MESSAGE_HEADER_BYTES, FaultPlan
from repro.trace import (CATEGORIES, CORE_CATEGORIES, NULL_TRACER,
                         Histogram, TraceEvent, Tracer,
                         events_from_jsonl, events_to_chrome_json,
                         events_to_jsonl, phase_totals, render_metrics,
                         render_timeline, traffic_totals)
from repro.workloads import workload

from conftest import HOT_KERNEL_SRC, HOT_KERNEL_STDIN, offload_c

TRACED = SessionOptions(enable_tracing=True)

# A program whose offloaded target reads a file: remote *input* I/O
# exercises the pipelined comm.stream to_server path.
REMOTE_INPUT_SRC = r"""
int *data;
int kernel(int n, void *f) {
    char line[32];
    int i, acc = 0;
    while (fgets(line, 32, f)) acc += atoi(line);
    for (i = 0; i < n; i++) acc += data[i % 64] * i;
    printf("acc %d\n", acc);
    return acc;
}
int main() {
    int i, n;
    void *f;
    scanf("%d", &n);
    data = (int*) malloc(64 * sizeof(int));
    for (i = 0; i < 64; i++) data[i] = i;
    f = fopen("nums.txt", "r");
    if (!f) return 1;
    printf("%d\n", kernel(n, f));
    fclose(f);
    return 0;
}
"""
REMOTE_INPUT_FILES = {"nums.txt": b"1\n2\n3\n4\n"}


@pytest.fixture(scope="module")
def traced_kernel():
    """One traced hot-kernel offload: (local, result, program)."""
    return offload_c(HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN,
                     session_options=SessionOptions(enable_tracing=True))


@pytest.fixture(scope="module")
def chess_traced():
    """The paper's chess running example, traced on the fast network."""
    result = run_program(workload("chess"), labels=("fast",),
                         session_options=SessionOptions(
                             enable_tracing=True))
    return result.sessions["fast"]


# ---------------------------------------------------------------------------
# Tracer / histogram primitives
# ---------------------------------------------------------------------------
class TestTracer:
    def test_timestamps_clamped_monotonic(self):
        times = iter([0.5, 0.2, 0.7, 0.7])
        tracer = Tracer(clock=lambda: next(times))
        for _ in range(4):
            tracer.emit("decision", "x")
        stamps = [e.t for e in tracer.events()]
        assert stamps == [0.5, 0.5, 0.7, 0.7]
        assert [e.seq for e in tracer.events()] == [0, 1, 2, 3]

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=4)
        for i in range(6):
            tracer.emit("decision", f"e{i}")
        assert len(tracer) == 4
        assert tracer.dropped == 2
        assert [e.name for e in tracer.events()] == ["e2", "e3", "e4", "e5"]

    def test_explicit_timestamp_and_filtering(self):
        tracer = Tracer()
        tracer.emit("decision", "a", t=1.0)
        tracer.emit("comm.send", "b", t=2.0)
        assert [e.name for e in tracer.events("comm.send")] == ["b"]
        assert tracer.categories() == ["comm.send", "decision"]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_null_tracer_records_nothing(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.emit("decision", "x") is None
        assert len(NULL_TRACER) == 0


class TestHistogramPercentiles:
    """The log-bucketed distribution behind the fleet aggregation
    (docs/observability.md, "Distributions")."""

    def test_empty_histogram(self):
        h = Histogram("h")
        for q in (0.0, 0.5, 0.95, 1.0):
            assert h.percentile(q) == 0.0
        assert h.zeros == 0 and h.buckets == {}

    def test_single_sample_is_exact(self):
        h = Histogram("h")
        h.observe(0.125)
        # clamping to [min, max] makes single-sample queries exact even
        # though the bucket bound overshoots
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.percentile(q) == 0.125

    def test_zero_and_negative_observations(self):
        h = Histogram("h")
        for v in (0.0, 0.0, 0.0, 5.0):
            h.observe(v)
        assert h.zeros == 3
        assert h.percentile(0.5) == 0.0
        assert h.percentile(1.0) == 5.0
        neg = Histogram("n")
        neg.observe(-2.0)
        assert neg.percentile(0.5) == -2.0

    def test_percentile_within_bucket_error(self):
        # nearest-rank via log buckets: the estimate is within one
        # bucket growth factor of the true sample value
        import math

        from repro.trace.metrics import LOG_BUCKET_GROWTH
        h = Histogram("h")
        values = [1e-6 * (1.17 ** i) for i in range(200)]
        for v in values:
            h.observe(v)
        ordered = sorted(values)
        for q in (0.5, 0.95, 0.99):
            true = ordered[max(1, math.ceil(q * len(ordered))) - 1]
            est = h.percentile(q)
            assert est <= true * LOG_BUCKET_GROWTH * 1.0001
            assert est >= true / (LOG_BUCKET_GROWTH * 1.0001)

    def test_order_independent(self):
        a, b = Histogram("a"), Histogram("b")
        values = [0.3, 7.0, 0.001, 2.0, 0.0, 11.0]
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        for q in (0.25, 0.5, 0.9, 0.99):
            assert a.percentile(q) == b.percentile(q)

    def test_cross_device_merge_equals_single_stream(self):
        dev_a, dev_b, combined = (Histogram("a"), Histogram("b"),
                                  Histogram("c"))
        stream_a = [0.001, 0.5, 0.0, 3.0]
        stream_b = [0.02, 0.02, 9.0]
        for v in stream_a:
            dev_a.observe(v)
            combined.observe(v)
        for v in stream_b:
            dev_b.observe(v)
            combined.observe(v)
        merged = dev_a.merge(dev_b)
        assert merged is dev_a
        assert merged.count == combined.count
        # summation order differs (per-stream subtotal vs interleaved)
        assert merged.total == pytest.approx(combined.total)
        assert merged.zeros == combined.zeros
        assert merged.min == combined.min
        assert merged.max == combined.max
        assert merged.buckets == combined.buckets
        for q in (0.1, 0.5, 0.95, 0.99):
            assert merged.percentile(q) == combined.percentile(q)

    def test_merge_with_empty_keeps_bounds(self):
        h = Histogram("h")
        h.observe(2.0)
        h.merge(Histogram("empty"))
        assert (h.count, h.min, h.max) == (1, 2.0, 2.0)

    def test_snapshot_carries_percentiles(self):
        """The histogram's serialized form is the report's
        ``distributions`` section."""
        from repro.trace.analysis import aggregate_sessions
        agg = aggregate_sessions([])
        for v in (0.1, 0.2, 0.4):
            agg.histograms["invocation_seconds"].observe(v)
        snap = json.loads(json.dumps(agg.to_json()))[
            "distributions"]["invocation_seconds"]
        assert (snap["count"], snap["min"], snap["max"]) == (3, 0.1, 0.4)
        assert set(("p50", "p95", "p99")) <= set(snap)
        assert snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
class TestExport:
    def test_jsonl_round_trip(self):
        tracer = Tracer()
        tracer.emit("comm.send", "to_server", t=0.25, dur=1e-3,
                    payload_bytes=4096, wire_bytes=4160)
        tracer.emit("decision", "crunch", t=0.5, offloaded=True,
                    reason="positive_gain")
        events = tracer.events()
        assert events_from_jsonl(events_to_jsonl(events)) == events

    def test_jsonl_skips_blank_and_comment_lines(self):
        text = "\n# header\n" + events_to_jsonl(
            [TraceEvent(t=0.0, seq=0, category="decision", name="x")])
        assert len(events_from_jsonl(text)) == 1

    def test_chrome_export_shape(self):
        tracer = Tracer()
        tracer.emit("offload.exec", "crunch", t=1.0, dur=0.5, cod_faults=2)
        tracer.emit("decision", "crunch", t=2.0, offloaded=True)
        records = json.loads(events_to_chrome_json(tracer.events()))
        named = [r for r in records if r.get("ph") in ("X", "i")]
        assert len(named) == 2
        slice_, instant = named
        assert slice_["ph"] == "X" and slice_["ts"] == 1e6
        assert slice_["dur"] == 0.5e6
        assert instant["ph"] == "i"
        assert any(r["ph"] == "M" and r["name"] == "process_name"
                   for r in records)

    def test_file_round_trip(self, tmp_path):
        from repro.trace import load_jsonl, write_jsonl
        tracer = Tracer()
        tracer.emit("uva.fault", "page-0x100", t=0.1, dur=1e-4,
                    page=256, bytes=4096)
        path = str(tmp_path / "trace.jsonl")
        assert write_jsonl(tracer.events(), path) == 1
        assert load_jsonl(path) == tracer.events()


# ---------------------------------------------------------------------------
# Runtime instrumentation
# ---------------------------------------------------------------------------
class TestSessionTracing:
    def test_disabled_tracer_adds_no_events(self):
        before = len(NULL_TRACER)
        local, result, _ = offload_c(HOT_KERNEL_SRC,
                                     stdin=HOT_KERNEL_STDIN)
        assert result.trace is None
        assert result.trace_events() == []
        assert len(NULL_TRACER) == before == 0

    def test_tracing_does_not_change_results(self, traced_kernel):
        _, traced, _ = traced_kernel
        _, untraced, _ = offload_c(HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN)
        assert traced.total_seconds == untraced.total_seconds
        assert traced.energy_mj == untraced.energy_mj
        assert traced.bytes_to_server == untraced.bytes_to_server
        assert traced.bytes_to_mobile == untraced.bytes_to_mobile
        assert traced.breakdown() == untraced.breakdown()

    def test_event_times_monotonic(self, traced_kernel):
        _, result, _ = traced_kernel
        events = result.trace_events()
        assert len(events) > 0
        assert all(a.t <= b.t for a, b in zip(events, events[1:]))
        assert all(a.seq < b.seq for a, b in zip(events, events[1:]))

    def test_only_documented_categories(self, traced_kernel):
        _, result, _ = traced_kernel
        assert set(result.trace.categories()) <= set(CATEGORIES)

    def test_core_categories_present(self, traced_kernel):
        _, result, _ = traced_kernel
        missing = set(CORE_CATEGORIES) - set(result.trace.categories())
        # uva.writeback needs dirty pages; the hot kernel writes none.
        assert missing <= {"uva.writeback"}

    def test_phase_totals_match_breakdown(self, traced_kernel):
        _, result, _ = traced_kernel
        derived = phase_totals(result.trace_events())
        for key, value in result.breakdown().items():
            assert derived[key] == pytest.approx(value, abs=1e-9), key

    def test_decision_and_metrics(self, traced_kernel):
        _, result, _ = traced_kernel
        decisions = result.trace.events("decision")
        assert len(decisions) == len(result.invocations)
        offloaded = [e for e in decisions if e.payload["offloaded"]]
        assert len(offloaded) == result.offloaded_invocations
        # the metrics block counts what the timeline lists
        block = render_metrics(result.trace_events())
        counts = dict(line.split()[:2] for line in block.splitlines()
                      if " count=" in line)
        assert counts["decision"] == f"count={len(decisions)}"
        assert counts["offload.init"] == \
            f"count={result.offloaded_invocations}"

    def test_timeline_renders_every_event(self, traced_kernel):
        _, result, _ = traced_kernel
        events = result.trace_events()
        text = render_timeline(events)
        assert len(text.splitlines()) == len(events)
        tail = render_timeline(events, tail=3)
        assert len(tail.splitlines()) == 4  # 3 + elision marker
        assert tail.splitlines()[1:] == text.splitlines()[-3:]
        # the edges: no tail at all is the marker alone, a tail as long
        # as the stream needs none, a negative one is refused
        marker = render_timeline(events, tail=0)
        assert marker.startswith(f"... ({len(events)} earlier events")
        assert "\n" not in marker
        assert render_timeline(events, tail=len(events)) == text
        with pytest.raises(ValueError, match="tail must be >= 0"):
            render_timeline(events, tail=-2)
        # category names are stripped, and one outside the vocabulary
        # is an error listing it, never a silently empty timeline
        decisions = render_timeline(events, categories=["decision"])
        assert len(decisions.splitlines()) == len(result.invocations)
        assert render_timeline(
            events, categories=[" decision", "offload.abort "]) == \
            render_timeline(events,
                            categories=["decision", "offload.abort"])
        with pytest.raises(ValueError, match="nosuch.*known: session.start"):
            render_timeline(events, categories=["decision", "nosuch"])

    def test_cod_faults_and_round_trips_traced(self):
        options = SessionOptions(enable_tracing=True,
                                 enable_prefetch=False)
        _, result, _ = offload_c(HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN,
                                 session_options=options)
        faults = result.trace.events("uva.fault")
        assert result.cod_faults > 0
        assert len(faults) == result.cod_faults
        assert len(result.trace.events("comm.rtt")) >= len(faults)
        derived = phase_totals(result.trace_events())
        for key, value in result.breakdown().items():
            assert derived[key] == pytest.approx(value, abs=1e-9), key

    def test_remote_input_streams_traced(self):
        _, result, program = offload_c(
            REMOTE_INPUT_SRC, stdin=b"5000\n",
            files=dict(REMOTE_INPUT_FILES),
            session_options=SessionOptions(enable_tracing=True))
        assert program.remote_io_sites > 0
        assert result.remote_io_seconds > 0
        inputs = [event for event in result.trace.events("comm.stream")
                  if event.name == "to_server"]
        reads = [event for event in result.trace.events("rio.op")
                 if event.name == "fgets"]
        assert len(inputs) == len(reads) > 0
        for event, read in zip(inputs, reads):
            p = event.payload
            assert p["pipelined"] and event.dur == read.dur
            assert p["wire_bytes"] == p["payload_bytes"] \
                + PER_ITEM_HEADER_BYTES
            assert p["request_bytes"] == INPUT_REQUEST_BYTES
        totals = traffic_totals(result.trace_events())
        assert totals["payload_bytes_to_server"] == result.bytes_to_server
        assert totals["payload_bytes_to_mobile"] == result.bytes_to_mobile
        derived = phase_totals(result.trace_events())
        for key, value in result.breakdown().items():
            assert derived[key] == pytest.approx(value, abs=1e-9), key

    def test_remote_input_pays_its_retries(self):
        """A dropped input delivery is retried, and the read that waited
        for it is charged the timeout and backoff."""
        def run(plan):
            _, result, _ = offload_c(
                REMOTE_INPUT_SRC, stdin=b"5000\n",
                files=dict(REMOTE_INPUT_FILES),
                session_options=SessionOptions(enable_tracing=True,
                                               fault_plan=plan))
            reads = sum(event.dur for event in result.trace.events("rio.op")
                        if event.name == "fgets")
            return result, reads

        clean, clean_reads = run(None)
        faulty, faulty_reads = run(FaultPlan(seed=2, drop_rate=0.3))
        assert faulty.offloaded_invocations == clean.offloaded_invocations
        assert faulty.transport_stats.retries > 0
        assert faulty_reads > clean_reads
        assert faulty.remote_io_seconds > clean.remote_io_seconds
        derived = phase_totals(faulty.trace_events())
        for key, value in faulty.breakdown().items():
            assert derived[key] == pytest.approx(value, abs=1e-9), key


# ---------------------------------------------------------------------------
# The chess acceptance run (paper's running example)
# ---------------------------------------------------------------------------
class TestChessTrace:
    def test_all_expected_categories_present(self, chess_traced):
        observed = set(chess_traced.trace.categories())
        expected = set(CORE_CATEGORIES) | {
            "uva.writeback", "comm.stream", "rio.op", "fnptr.window"}
        assert expected <= observed
        assert observed <= set(CATEGORIES)

    def test_jsonl_round_trips(self, chess_traced):
        events = chess_traced.trace_events()
        assert chess_traced.trace.dropped == 0
        round_tripped = events_from_jsonl(events_to_jsonl(events))
        assert round_tripped == events

    def test_phase_totals_match_breakdown(self, chess_traced):
        derived = phase_totals(chess_traced.trace_events())
        for key, value in chess_traced.breakdown().items():
            assert derived[key] == pytest.approx(value, abs=1e-9), key

    def test_fnptr_windows_cover_all_lookup_time(self, chess_traced):
        windows = chess_traced.trace.events("fnptr.window")
        assert windows, "chess dispatches through its evaluation table"
        assert sum(w.payload["seconds"] for w in windows) == \
            pytest.approx(chess_traced.fnptr_seconds, abs=1e-12)


# ---------------------------------------------------------------------------
# Byte-accounting reconciliation (the stats audit regression tests)
# ---------------------------------------------------------------------------
class TestTrafficReconciliation:
    """The audit of CommStats / UVAStats / InvocationRecord byte counters.

    Write-back (and prefetch, and CoD) bytes are surfaced twice — once in
    ``UVAStats`` and once inside ``CommStats``'s payload totals — because
    the UVA numbers *attribute* subsets of the comm-layer traffic; they
    are not additional bytes.  These tests pin that relationship down via
    the trace: summing comm-layer events reproduces ``CommStats`` and
    ``SessionResult`` exactly (no double-counting on the wire), and every
    UVA-layer byte is bounded by the comm-layer direction it rode.
    """

    def test_comm_payload_totals_match_session(self, chess_traced):
        totals = traffic_totals(chess_traced.trace_events())
        assert totals["payload_bytes_to_server"] == \
            chess_traced.bytes_to_server
        assert totals["payload_bytes_to_mobile"] == \
            chess_traced.bytes_to_mobile

    def test_invocation_records_sum_to_comm_totals(self, chess_traced):
        assert sum(r.bytes_to_server
                   for r in chess_traced.invocations) == \
            chess_traced.bytes_to_server
        assert sum(r.bytes_to_mobile
                   for r in chess_traced.invocations) == \
            chess_traced.bytes_to_mobile

    def test_uva_bytes_are_attribution_not_additional(self, chess_traced):
        totals = traffic_totals(chess_traced.trace_events())
        # write-back pages ride server->mobile messages
        assert 0 < totals["uva_writeback_bytes"] <= \
            totals["payload_bytes_to_mobile"]
        # prefetched pages ride mobile->server messages
        assert 0 < totals["uva_prefetch_bytes"] <= \
            totals["payload_bytes_to_server"]

    def test_wire_framing_identity_per_message(self, chess_traced):
        """wire = payload - compression_saved + headers, per send event."""
        for event in chess_traced.trace.events("comm.send"):
            p = event.payload
            expected = (p["payload_bytes"] - p["saved_bytes"]
                        + MESSAGE_HEADER_BYTES * p["messages"]
                        + PER_ITEM_HEADER_BYTES * p["items"])
            assert p["wire_bytes"] == expected
        for event in chess_traced.trace.events("comm.stream"):
            p = event.payload
            header = (PER_ITEM_HEADER_BYTES if p["pipelined"]
                      else MESSAGE_HEADER_BYTES)
            assert p["wire_bytes"] == p["payload_bytes"] + header

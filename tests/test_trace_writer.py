"""One writer of the trace (ISSUE 19).

The runtime states each fact twice, for two distinct jobs: in the
always-on accounting that results are built from (``SessionResult``,
``CommStats``, ``UVAStats``, ``TransportStats``) and, when tracing, as
an event.  The third copy — a ``MetricsRegistry`` updated beside every
``emit`` — is gone, and the "metrics" block of ``python -m repro
trace`` is a fold of the events it prints.  These tests hold that in
place:

* reconciliation: over fault-free, faulty, sharded, remote-I/O and
  pooled sessions, every total the events add up to equals the
  always-on accounting (and the one place it cannot — a fully-warm
  invocation emits no ``uva.prefetch`` — is pinned as an inequality);
* the block is derived, not mirrored: a saved trace renders the block
  its live run printed, and a truncated ring renders a different,
  labelled one;
* a structural guard: the runtime names no ``.metrics`` and
  ``repro.trace`` exports no registry.
"""

import functools
import inspect
from collections import Counter

import pytest

import repro.trace
from repro.__main__ import main
from repro.offload import CompilerOptions
from repro.runtime import (FaultPlan, OffloadSession, SessionOptions,
                           backend, comm, session, transport, uva)
from repro.trace import (Tally, load_jsonl, read_jsonl_meta,
                         render_metrics, write_jsonl)

import test_stdio_equivalence as stdio
from conftest import build_c
from test_trace_tally import (NETWORK, _fleet_result, _program,
                              _split_metrics_block)


# -- the sessions --------------------------------------------------------
def _workload_session(workload, **options):
    program, stdin, files = _program(workload)
    return OffloadSession(
        program, NETWORK, stdin=stdin, files=files,
        options=SessionOptions(enable_tracing=True, **options))


def _stdio_session():
    """Every forwardable stdio call, offloaded: the remote-I/O program
    of ``tests/test_stdio_equivalence.py``."""
    built = build_c(stdio.SOURCE, stdio.STDIN, stdio.FILES,
                    compiler_options=CompilerOptions(
                        forced_targets=["probe"]), name="stdio-table")
    return built.session(NETWORK, SessionOptions(
        enable_dynamic_estimation=False, enable_tracing=True))


_SESSIONS = {
    "chess": lambda: _workload_session("chess"),
    "chess-drop-then-disconnect": lambda: _workload_session(
        "chess", fault_plan=FaultPlan(
            seed=0, drop_rate=0.2, disconnect_after_messages=9,
            reconnect_rate=0.5)),
    "chess-lossy-jittery": lambda: _workload_session(
        "chess", fault_plan=FaultPlan(
            seed=3, drop_rate=0.3, max_jitter_s=3e-4,
            disconnect_rate=0.05, reconnect_rate=0.5)),
    "parallel-micro-k4-shard-fault": lambda: _workload_session(
        "parallel-micro", shards=4, shard_faults=(1,)),
    "stdio-remote-io": _stdio_session,
    "fleet-micro-warm-cache": lambda: _workload_session("fleet-micro"),
}


@functools.lru_cache(maxsize=None)
def _ran(name):
    """``(session, result)`` of one traced run."""
    built = _SESSIONS[name]()
    return built, built.run()


# -- events against the always-on accounting ----------------------------
def _assert_events_equal_accounting(result):
    """What one session's events add up to, against what its
    ``SessionResult`` (and the ``UVAStats`` / ``TransportStats`` it
    carries) counted with tracing on or off."""
    events = result.trace_events()
    assert result.trace.dropped == 0
    tally = Tally.of(events)
    count = Counter(e.category for e in events)

    assert (tally.payload_bytes_to_server, tally.payload_bytes_to_mobile,
            tally.compression_saved_bytes) == (
                result.bytes_to_server, result.bytes_to_mobile,
                result.compression_saved_bytes)
    assert tally.comm_seconds == pytest.approx(result.comm_seconds,
                                               abs=1e-12)

    us = result.uva_stats
    assert (count["uva.fault"], tally.uva_cod_bytes,
            tally.uva_prefetch_bytes, tally.uva_writeback_bytes,
            tally.uva_delta_saved_bytes,
            sum(w.hits for w in tally.prefetch_windows),
            sum(w.wasted for w in tally.prefetch_windows)) == (
                us.cod_faults, us.cod_bytes, us.prefetch_bytes,
                us.written_back_bytes, us.delta_saved_bytes,
                us.prefetch_hits, us.prefetch_wasted)
    # The one total the events under-count: an invocation whose every
    # prefetch candidate the page cache skipped ships nothing and emits
    # no uva.prefetch (docs/trace-schema.md) — UVAStats is complete.
    assert sum(e.payload["cache_skipped"] for e in events
               if e.category == "uva.prefetch") <= \
        us.cache_skipped_prefetch_pages

    ts = result.transport_stats
    assert (tally.retries, tally.disconnects, tally.reconnects) == (
        ts.retries, ts.disconnects, ts.reconnects)

    # An invocation's wasted link time rides its abort or its refusal.
    wasted = 0.0
    for event in events:
        if event.category == "offload.abort":
            wasted += event.payload["wasted_seconds"]
        elif event.category == "offload.reject":
            wasted += event.payload["probe_seconds"]
    assert (count["offload.abort"], tally.fallbacks,
            count["offload.reject"]) == (
                result.aborted_invocations, result.local_fallbacks,
                sum(r.rejected for r in result.invocations))
    assert wasted == pytest.approx(result.wasted_seconds, abs=1e-12)
    assert tally.queue_seconds == pytest.approx(result.queue_seconds,
                                                abs=1e-12)
    return tally


class TestReconciliation:
    """Events against the always-on accounting."""

    @pytest.mark.parametrize("name", sorted(_SESSIONS))
    def test_session(self, name):
        ran, result = _ran(name)
        tally = _assert_events_equal_accounting(result)
        # the rest of CommStats: its payload bytes and compression
        # savings are the SessionResult fields checked above
        cs = ran.comm.stats
        assert (tally.wire_bytes_to_server, tally.wire_bytes_to_mobile,
                tally.messages) == (
                    cs.wire_bytes_to_server, cs.wire_bytes_to_mobile,
                    cs.messages)

    @pytest.mark.parametrize("fleet", ["faulty-links", "tiered-autoscaled"])
    def test_every_device_of_a_pooled_fleet(self, fleet):
        """Queue waits, pool refusals and copy-on-demand faults, which
        no dedicated-server session above reaches."""
        for device in _fleet_result(fleet).devices:
            _assert_events_equal_accounting(device.result)

    def test_the_sessions_reach_what_they_are_listed_for(self):
        def stats(name):
            _, result = _ran(name)
            return result, Counter(e.category
                                   for e in result.trace_events())
        result, _ = stats("chess-drop-then-disconnect")
        assert result.aborted_invocations == result.local_fallbacks == 1
        assert result.transport_stats.disconnects == 1
        result, _ = stats("chess-lossy-jittery")
        assert result.transport_stats.retries >= 3
        assert result.transport_stats.reconnects == 1
        result, count = stats("parallel-micro-k4-shard-fault")
        assert count["offload.straggler"] == 1
        assert result.uva_stats.prefetch_wasted > 0
        result, count = stats("stdio-remote-io")
        assert count["rio.op"] >= len(stdio.CASES)
        # output streams to the phone, input streams from it
        assert {event.name for event in result.trace.events(
            "comm.stream")} == {"to_mobile", "to_server"}
        pooled = Counter()
        for fleet in ("faulty-links", "tiered-autoscaled"):
            for event in _fleet_result(fleet).merged_events():
                pooled[event.category] += 1
        assert min(pooled["uva.fault"], pooled["offload.queue"],
                   pooled["offload.reject"]) > 0

    def test_a_fully_warm_invocation_emits_no_prefetch_event(self):
        """Recorded, not fixed here: closing the gap adds an event to
        every warm invocation and re-baselines every traced golden."""
        _, result = _ran("fleet-micro-warm-cache")
        skipped = [e.payload["cache_skipped"]
                   for e in result.trace.events("uva.prefetch")]
        assert len(skipped) < result.offloaded_invocations
        assert sum(skipped) == 1
        assert result.uva_stats.cache_skipped_prefetch_pages == 2


# -- the block is derived, not mirrored ---------------------------------
class TestMetricsBlock:
    """A fold of the events it is given, and of nothing else."""

    def test_a_saved_trace_renders_the_block_its_run_printed(
            self, tmp_path):
        _, result = _ran("chess-lossy-jittery")
        events = result.trace_events()
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(events, path)
        assert render_metrics(load_jsonl(path)) == render_metrics(events)

    def test_lists_every_category_and_nonzero_total(self):
        _, result = _ran("chess-drop-then-disconnect")
        events = result.trace_events()
        lines = render_metrics(events).splitlines()
        assert lines[0] == f"metrics (folded from {len(events)} events)"
        rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
        count = Counter(e.category for e in events)
        assert {name: row[0] for name, row in rows.items()
                if name in count} == {
                    name: f"count={n}" for name, n in count.items()}
        tally = Tally.of(events)
        assert rows["messages"] == [str(tally.messages)]
        assert rows["fallbacks"] == ["1"] and rows["disconnects"] == ["1"]
        assert rows["prefetch_hits"] == [
            str(result.uva_stats.prefetch_hits)]
        assert "retries" not in rows and "queue_waits" not in rows

    def test_truncated_run_says_so_and_tail_zero_is_the_marker(
            self, tmp_path, capsys):
        """``--capacity 4`` keeps four events of fleet-micro's 28: the
        block folds those four, is labelled partial, comes back from
        the run's own ``--jsonl`` file, and the phase-totals header
        says which column to believe."""
        path = str(tmp_path / "trace.jsonl")
        assert main(["trace", "fleet-micro", "--capacity", "4",
                     "--tail", "0", "--jsonl", path]) == 0
        out = capsys.readouterr().out
        head = out.splitlines()
        assert head[0].endswith(
            "4 trace events (24 dropped by the ring buffer)")
        assert head[1].startswith("... (4 earlier events omitted")
        assert head[2] == ""                # --tail 0: the marker alone
        _, block = _split_metrics_block(out)
        assert block.splitlines()[0] == (
            "metrics (folded from 4 events; partial — 24 earlier "
            "events dropped by the ring buffer)")
        assert block == render_metrics(
            load_jsonl(path), dropped=read_jsonl_meta(path)["dropped"])
        _, full = _ran("fleet-micro-warm-cache")
        assert block != render_metrics(full.trace_events())
        assert ("phase totals (trace-derived vs session accounting) — "
                "trace-derived column is partial: 24 events dropped"
                in out)


# -- the third writer is gone -------------------------------------------
@pytest.mark.parametrize("module",
                         [backend, comm, session, transport, uva],
                         ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_runtime_keeps_no_metrics_beside_the_events(module):
    assert ".metrics" not in inspect.getsource(module)


def test_trace_package_exports_no_registry():
    for name in ("MetricsRegistry", "NullMetricsRegistry", "Counter",
                 "Gauge"):
        assert not hasattr(repro.trace, name)
        assert not hasattr(repro.trace.metrics, name)
    assert not hasattr(repro.trace.Tracer(), "metrics")
    with pytest.raises(TypeError):
        repro.trace.Tracer(metrics=None)

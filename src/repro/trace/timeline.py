"""Human-readable trace rendering and trace-derived aggregates.

``render_timeline`` prints the event stream the way edge-offloading
simulators log their decision engines: one timestamped line per event
with the load-bearing payload fields inlined.  :class:`Tally` is the
one definition of what an event of each category contributes to every
number derived from the trace; ``phase_totals`` and ``traffic_totals``
fold a raw stream into one to re-derive the session's per-phase time
breakdown and byte accounting *from the events alone*, which is what
makes the trace the single source of truth: ``tests/test_trace.py``
asserts these sums match :meth:`SessionResult.breakdown` and
``CommStats`` exactly.  ``render_metrics`` prints the same fold — the
runtime keeps no totals beside the events for it to read instead.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .tracer import CATEGORIES, TraceEvent, _slotted

# Payload keys promoted to the front of a timeline line, per category.
_LEAD_KEYS: Dict[str, Sequence[str]] = {
    "decision": ("offloaded", "reason", "gain_seconds"),
    "offload.init": ("prefetch_pages", "bytes_to_server"),
    "offload.exec": ("instructions", "cod_faults"),
    "offload.finalize": ("writeback_pages", "bytes_to_mobile"),
    "uva.prefetch": ("pages", "bytes"),
    "uva.fault": ("page", "bytes"),
    "uva.writeback": ("pages", "bytes"),
    "uva.cache": ("kept", "invalidated", "hits", "wasted"),
    "uva.delta": ("pages", "records", "encoded_bytes", "saved_bytes"),
    "comm.send": ("payload_bytes", "wire_bytes", "saved_bytes"),
    "comm.stream": ("payload_bytes", "wire_bytes"),
    "comm.rtt": ("request_bytes", "response_bytes"),
    "rio.op": ("bytes",),
    "fnptr.window": ("lookups", "seconds"),
}


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e-3:
            return f"{value:.6f}".rstrip("0").rstrip(".")
        return f"{value:.3e}"
    return str(value)


def _fmt_payload(event: TraceEvent) -> str:
    lead = _LEAD_KEYS.get(event.category, ())
    keys = [k for k in lead if k in event.payload]
    keys += [k for k in sorted(event.payload) if k not in keys]
    return " ".join(f"{k}={_fmt_value(event.payload[k])}" for k in keys)


def format_event(event: TraceEvent) -> str:
    """One timeline line: ``[t] category name (dur) key=value ...``."""
    dur = f" +{event.dur * 1e3:.4f}ms" if event.dur > 0 else ""
    detail = _fmt_payload(event)
    return (f"[{event.t * 1e3:12.4f} ms] {event.category:<16s} "
            f"{event.name:<20s}{dur}"
            f"{('  ' + detail) if detail else ''}")


def render_timeline(events: Iterable[TraceEvent],
                    categories: Optional[Sequence[str]] = None,
                    tail: Optional[int] = None) -> str:
    """The full human-readable timeline, optionally filtered.

    ``categories`` restricts output to the given event categories
    (ValueError naming the vocabulary for one outside it); ``tail``
    keeps only the last N >= 0 lines (with an elision marker).
    """
    if categories is not None:
        categories = {c.strip() for c in categories}
        unknown = sorted(categories - set(CATEGORIES))
        if unknown:
            raise ValueError(f"unknown trace categories {unknown}; "
                             f"known: {', '.join(CATEGORIES)}")
    if tail is not None and tail < 0:
        raise ValueError(f"tail must be >= 0; got {tail}")
    selected = [e for e in events
                if categories is None or e.category in categories]
    lines = [format_event(e) for e in selected]
    if tail is not None and len(lines) > tail:
        omitted = len(lines) - tail
        lines = [f"... ({omitted} earlier events omitted; "
                 f"use --jsonl for the full trace)"] + lines[omitted:]
    return "\n".join(lines)


# -- the tally: the one reader of the trace schema ----------------------
class PrefetchWindow(NamedTuple):
    """The adaptive prefetcher's verdict on one invocation's push."""

    t: float
    hits: int
    wasted: int


@_slotted
@dataclass
class Tally:
    """What a set of events adds up to.

    Every number the analysis derives from the trace — phase seconds,
    byte accounting, critical-path buckets, SLO observations, the span
    invariant — is arithmetic over these fields; ``_CONTRIBUTIONS``
    below is the only place that knows which event category feeds
    which.  Additive in emission order: the span state machine folds an
    invocation's events into its tally as it claims them, and
    :func:`phase_totals` / :func:`traffic_totals` fold a raw stream.
    """

    # extent of the claimed events (category-independent)
    events: int = 0
    start: float = 0.0          # earliest t
    end: float = 0.0            # latest t + dur
    last_t: float = 0.0         # latest t
    # seconds
    comm_seconds: float = 0.0   # comm-manager charges
    remote_io_seconds: float = 0.0
    fnptr_seconds: float = 0.0
    server_seconds: float = 0.0     # raw server execution, aborts' too
    mobile_compute_seconds: float = 0.0     # as session.end reports it
    cod_seconds: float = 0.0        # CoD service inside the exec window
    overlap_seconds: float = 0.0    # a plan's serial-minus-parallel wait
    replay_seconds: float = 0.0     # fallback + straggler local replays
    probe_seconds: float = 0.0      # a refused admission's round trip
    recovery_seconds: float = 0.0   # retry timeouts/backoffs, reconnects
    queue_seconds: float = 0.0
    # bytes: payload and wire per direction, then UVA-layer attributions
    # of subsets of that same traffic (docs/trace-schema.md)
    payload_bytes_to_server: int = 0
    payload_bytes_to_mobile: int = 0
    wire_bytes_to_server: int = 0
    wire_bytes_to_mobile: int = 0
    messages: int = 0
    compression_saved_bytes: int = 0
    uva_prefetch_bytes: int = 0
    uva_writeback_bytes: int = 0
    uva_cod_bytes: int = 0
    rio_bytes: int = 0
    uva_delta_saved_bytes: int = 0
    # counts
    retries: int = 0
    reconnects: int = 0         # re-established links, not failed probes
    disconnects: int = 0
    fallbacks: int = 0
    queue_waits: Tuple[Tuple[int, float], ...] = ()     # (server, wait)
    prefetch_windows: Tuple[PrefetchWindow, ...] = ()

    def add(self, event: TraceEvent) -> None:
        t = event.t
        if not self.events or t < self.start:
            self.start = t
        if t > self.last_t:
            self.last_t = t
        end = t + event.dur
        if end > self.end:
            self.end = end
        self.events += 1
        contribute = _CONTRIBUTIONS.get(event.category)
        if contribute is not None:
            contribute(self, event)

    @classmethod
    def of(cls, events: Iterable[TraceEvent]) -> "Tally":
        tally = cls()
        for event in events:
            tally.add(event)
        return tally


_DUR = object()     # "the event's dur", as a source in the table below


def _adds(**sources) -> Callable[[Tally, TraceEvent], None]:
    """The common contribution: each ``field=source`` adds to that
    tally field the event's ``dur`` (``_DUR``), a payload value (its
    key) or a constant count (an int)."""
    unknown = set(sources) - set(Tally.__dataclass_fields__)
    if unknown:
        raise ValueError(f"no such tally field(s): {sorted(unknown)}")
    rows = tuple(sources.items())

    def contribute(tally: Tally, event: TraceEvent) -> None:
        for field, source in rows:
            if source is _DUR:
                amount = event.dur
            elif isinstance(source, str):
                amount = event.payload.get(source, 0)
            else:
                amount = source
            setattr(tally, field, getattr(tally, field) + amount)
    return contribute


def _comm_send(tally: Tally, event: TraceEvent) -> None:
    """A ``comm.send`` or ``comm.stream``: its bytes go the way its name
    says, the request a remote input answers (``request_bytes``) the
    other way; a stream is one message."""
    tally.comm_seconds += event.dur
    p = event.payload
    if p.get("failed"):
        # a failed send costs seconds and moves no bytes
        return
    if event.name == "to_server":
        tally.payload_bytes_to_server += p.get("payload_bytes", 0)
        tally.wire_bytes_to_server += p.get("wire_bytes", 0)
        tally.payload_bytes_to_mobile += p.get("request_bytes", 0)
        tally.wire_bytes_to_mobile += p.get("wire_request_bytes", 0)
    else:
        tally.payload_bytes_to_mobile += p.get("payload_bytes", 0)
        tally.wire_bytes_to_mobile += p.get("wire_bytes", 0)
    tally.messages += p.get("messages", 1)
    tally.compression_saved_bytes += p.get("saved_bytes", 0)


def _offload_queue(tally: Tally, event: TraceEvent) -> None:
    tally.queue_seconds += event.dur
    server = event.payload.get("server")
    if server is not None:
        tally.queue_waits += ((int(server), event.dur),)


def _transport_retry(tally: Tally, event: TraceEvent) -> None:
    tally.recovery_seconds += (
        event.payload.get("timeout_seconds", 0.0)
        + event.payload.get("backoff_seconds", 0.0))
    tally.retries += 1


def _transport_reconnect(tally: Tally, event: TraceEvent) -> None:
    # a failed probe sweep is recovery time, not a re-established link
    tally.recovery_seconds += event.payload.get("seconds", 0.0)
    if not event.payload.get("failed"):
        tally.reconnects += 1


def _uva_cache(tally: Tally, event: TraceEvent) -> None:
    if event.name == "adaptive":
        tally.prefetch_windows += (PrefetchWindow(
            event.t, event.payload.get("hits", 0),
            event.payload.get("wasted", 0)),)


#: What one event of each category contributes — teach the analysis
#: about a new category here and nowhere else (docs/trace-schema.md,
#: "Adding a category").
_CONTRIBUTIONS: Dict[str, Callable[[Tally, TraceEvent], None]] = {
    "comm.send": _comm_send,
    "comm.stream": _comm_send,
    "comm.rtt": _adds(comm_seconds=_DUR,
                      payload_bytes_to_server="request_bytes",
                      payload_bytes_to_mobile="response_bytes",
                      wire_bytes_to_server="wire_request_bytes",
                      wire_bytes_to_mobile="wire_response_bytes",
                      messages=2),
    "rio.op": _adds(remote_io_seconds=_DUR, rio_bytes="bytes"),
    "fnptr.window": _adds(fnptr_seconds="seconds"),
    # one per surviving shard of a plan: the sum is *serial* server
    # time, and the gather's (or a plan abort's) overlap_seconds is what
    # running in parallel saved (docs/parallel-offload.md)
    "offload.exec": _adds(server_seconds=_DUR, cod_seconds="cod_seconds"),
    "offload.gather": _adds(overlap_seconds="overlap_seconds"),
    # an abort's server_seconds is server compute: the partial
    # execution of a window that never got to emit offload.exec
    "offload.abort": _adds(server_seconds="server_seconds",
                           overlap_seconds="overlap_seconds"),
    "offload.straggler": _adds(replay_seconds="seconds"),
    "offload.fallback": _adds(replay_seconds="seconds", fallbacks=1),
    "offload.reject": _adds(probe_seconds="probe_seconds"),
    "offload.queue": _offload_queue,
    "transport.retry": _transport_retry,
    "transport.reconnect": _transport_reconnect,
    "transport.disconnect": _adds(disconnects=1),
    "uva.prefetch": _adds(uva_prefetch_bytes="bytes"),
    "uva.writeback": _adds(uva_writeback_bytes="bytes"),
    # dur is the same seconds as the paired comm.rtt: counted there
    "uva.fault": _adds(uva_cod_bytes="bytes"),
    "uva.delta": _adds(uva_delta_saved_bytes="saved_bytes"),
    "uva.cache": _uva_cache,
    "session.end": _adds(mobile_compute_seconds="mobile_compute_seconds"),
}

#: Categories that carry no accounted quantity: markers and summaries
#: whose seconds and bytes the events above already carried.
UNACCOUNTED = frozenset({
    "session.start", "decision",
    "offload.init", "offload.scatter", "offload.finalize",
})


def phase_totals(events: Iterable[TraceEvent]) -> Dict[str, float]:
    """Re-derive the Figure 7 phase breakdown from trace events.

    Mirrors :meth:`SessionResult.breakdown` exactly, on any link:

    * ``communication`` — every second the communication manager
      charged: message sends (failed ones too), remote I/O streams and
      control round trips.
    * ``remote_io`` — the forwarding cost of each ``rio.op``.
    * ``fn_ptr_translation`` — the per-invocation ``fnptr.window`` sums.
    * ``computation`` — mobile compute (from ``session.end``) plus raw
      server execution time (an aborted window's partial execution
      included) minus the fn-ptr time charged inside it, clamped at
      zero like the session does.
    """
    tally = Tally.of(events)
    return {
        "computation": tally.mobile_compute_seconds + max(
            tally.server_seconds - tally.fnptr_seconds, 0.0),
        "fn_ptr_translation": tally.fnptr_seconds,
        "remote_io": tally.remote_io_seconds,
        "communication": tally.comm_seconds,
    }


_TRAFFIC_FIELDS = (
    "payload_bytes_to_server", "payload_bytes_to_mobile",
    "wire_bytes_to_server", "wire_bytes_to_mobile",
    "messages", "compression_saved_bytes",
    "uva_prefetch_bytes", "uva_writeback_bytes", "uva_cod_bytes",
    "rio_bytes", "uva_delta_saved_bytes",
)


def traffic_totals(events: Iterable[TraceEvent]) -> Dict[str, int]:
    """Re-derive the byte accounting from trace events.

    Every payload byte crosses the communication manager exactly once,
    so summing the comm-layer events reproduces ``CommStats`` (a failed
    send delivered nothing and counts nothing); the UVA-layer numbers
    (prefetch / write-back / CoD) are *attributions* of subsets of that
    same traffic, not additional bytes.  See ``docs/trace-schema.md``
    ("Byte accounting").
    """
    tally = Tally.of(events)
    return {name: getattr(tally, name) for name in _TRAFFIC_FIELDS}


def render_metrics(events: Iterable[TraceEvent], dropped: int = 0) -> str:
    """The totals block of ``python -m repro trace``: per category the
    event count and summed ``dur``, then every non-zero :class:`Tally`
    field — a function of ``events`` alone, so a saved trace renders
    the block its live run printed.  ``dropped`` is the ring buffer's
    eviction count: above zero the block is labelled partial (the
    always-on ``SessionResult`` / ``*Stats`` fields are what survives
    truncation)."""
    events = list(events)
    per_category: Dict[str, List[float]] = {}
    for event in events:
        row = per_category.setdefault(event.category, [0, 0.0])
        row[0] += 1
        row[1] += event.dur
    tally = Tally.of(events)
    totals = {f.name: getattr(tally, f.name) for f in fields(Tally)}
    totals["queue_waits"] = len(tally.queue_waits)
    windows = totals.pop("prefetch_windows")
    totals["prefetch_hits"] = sum(w.hits for w in windows)
    totals["prefetch_wasted"] = sum(w.wasted for w in windows)
    lines = [f"metrics (folded from {len(events)} events"
             + (f"; partial — {dropped} earlier events dropped by the "
                f"ring buffer)" if dropped else ")"),
             "  [events]"]
    lines += [f"    {category:<32s} count={count} dur={_fmt_value(dur)}"
              for category, (count, dur) in sorted(per_category.items())]
    lines.append("  [totals]")
    lines += [f"    {name:<32s} {_fmt_value(value)}"
              for name, value in totals.items() if value]
    return "\n".join(lines)

"""Structured runtime observability for the Native Offloader.

The paper's entire evaluation (Figures 6-8, Tables 3-5) is built on
*observing* the runtime: per-phase execution breakdowns, page-fault
counts, wire traffic, offload/decline decisions.  This package gives the
simulated runtime the same first-class event log that real offloading
systems ship:

* :mod:`repro.trace.tracer` — ring-buffered :class:`TraceEvent` records
  with monotonic simulated time, a category, and a key/value payload,
  behind a :class:`Tracer` that is a strict no-op when disabled.  The
  runtime states each fact once, as an event; nothing accumulates
  beside the stream.
* :mod:`repro.trace.metrics` — the log-bucketed, mergeable
  :class:`Histogram` the analysis rolls distributions into.
* :mod:`repro.trace.export` — JSONL import/export, a line at a time
  in both directions, and a Chrome ``chrome://tracing`` /
  Perfetto-compatible export.
* :mod:`repro.trace.timeline` — the :class:`Tally` — what each event
  category contributes to every trace-derived number, defined once —
  and what folds a stream into one: the human-readable event timeline
  and totals block behind ``python -m repro trace``, and the per-phase
  totals that cross-check :meth:`SessionResult.breakdown`.
* :mod:`repro.trace.analysis` — the analysis engine behind
  ``python -m repro report``: span reconstruction, critical-path
  attribution, fleet aggregation, SLO findings and the
  baseline-diffing regression gate.

Tracing is **off by default** (``SessionOptions.enable_tracing``); the
disabled path shares a singleton :data:`NULL_TRACER` whose ``enabled``
flag gates every instrumentation site, so benchmark numbers are
bit-identical with tracing off.  The full event schema is documented in
``docs/trace-schema.md``.
"""

from .tracer import (CATEGORIES, CORE_CATEGORIES, NULL_TRACER, NullTracer,
                     TraceEvent, Tracer)
from .metrics import Histogram
from .export import (events_from_jsonl, events_to_chrome_json,
                     events_to_jsonl, iter_jsonl, load_jsonl,
                     read_jsonl_meta, write_chrome_trace, write_jsonl)
from .timeline import (Tally, phase_totals, render_metrics,
                       render_timeline, traffic_totals)

__all__ = [
    "CATEGORIES", "CORE_CATEGORIES", "NULL_TRACER", "NullTracer",
    "TraceEvent", "Tracer",
    "Histogram",
    "events_from_jsonl", "events_to_chrome_json", "events_to_jsonl",
    "iter_jsonl", "load_jsonl", "read_jsonl_meta", "write_chrome_trace",
    "write_jsonl",
    "Tally", "phase_totals", "render_metrics", "render_timeline",
    "traffic_totals",
]

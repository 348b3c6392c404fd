"""Trace analysis: spans, critical paths, aggregation, SLOs, reports.

The read-only consumer side of the observability stack.  The tracer and
the fleet scheduler *emit*; this package *explains*:

* :mod:`spans` — fold the flat event stream back into nested
  session → invocation → phase spans, with a lossless invariant, in
  one pass that keeps tallies and lets the events go.
* :mod:`critical_path` — split each invocation's wall clock into six
  disjoint buckets and name the dominant bottleneck.
* :mod:`aggregate` — roll many sessions up into percentile
  distributions, per-device/per-server tables and bucket totals.
* :mod:`slo` — declarative thresholds over sliding windows of simulated
  time, emitting structured findings.
* :mod:`report` — deterministic JSON + single-file HTML reports, and
  the baseline/bench regression diff behind
  ``python -m repro report --baseline``.

Nothing in here mutates runtime state or consumes randomness: analysis
of a trace is a pure function of its events (docs/observability.md).
"""

from .aggregate import (DISTRIBUTIONS, DeviceRow, FleetAggregate,
                        aggregate_sessions, invocation_counts,
                        nearest_rank_percentile)
from .critical_path import (BUCKETS, CriticalPath, attribute_invocation,
                            attribute_session, bucket_totals,
                            dominant_counts)
from .report import (GATED_METRICS, SCHEMA, build_report, diff_bench,
                     diff_reports, render_html, report_to_json)
from .slo import (DEFAULT_RULES, Finding, SloRule, evaluate_rules,
                  prefetch_waste_findings)
from .spans import (InvocationSpan, SessionSpan, reconstruct_session,
                    reconstruct_sessions, validate_sessions)

__all__ = [
    "DISTRIBUTIONS", "DeviceRow", "FleetAggregate",
    "aggregate_sessions", "invocation_counts",
    "nearest_rank_percentile",
    "BUCKETS", "CriticalPath", "attribute_invocation",
    "attribute_session", "bucket_totals", "dominant_counts",
    "GATED_METRICS", "SCHEMA", "build_report", "diff_bench",
    "diff_reports", "render_html", "report_to_json",
    "DEFAULT_RULES", "Finding", "SloRule", "evaluate_rules",
    "prefetch_waste_findings",
    "InvocationSpan", "SessionSpan",
    "reconstruct_session", "reconstruct_sessions", "validate_sessions",
]

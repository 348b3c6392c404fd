"""Fleet aggregation: one statistical view over many sessions' spans.

Everything here is derived from reconstructed spans (``spans.py``) —
the same numbers whether they come from a live run's tracer or a saved
JSONL file, which is what lets ``python -m repro report`` and the CLI
summary lines share one source of truth.  Distributions use the
log-bucketed :class:`~repro.trace.metrics.Histogram` so percentiles
survive cross-device merging without retaining samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..metrics import Histogram
from .critical_path import (BUCKETS, attribute_session, bucket_totals,
                            dominant_counts)
from .spans import STATUSES, SessionSpan

#: Histogram metrics the aggregate tracks, in serialization order.
DISTRIBUTIONS = ("invocation_seconds", "queue_wait_seconds",
                 "wire_bytes")


def nearest_rank_percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile over raw samples (deterministic, no
    interpolation).  The exact-sample companion of
    :meth:`Histogram.percentile`; ``fleet.scheduler`` sources its
    completion percentiles from here so the fleet summary and the
    report can never disagree on the definition."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def invocation_counts(invocations) -> Dict[str, int]:
    """Outcome counts over invocations that have a ``status`` (one of
    :data:`~.spans.STATUSES`) and a ``fallback_local`` flag: a session's
    :class:`InvocationRecord` list or a span tree's
    :class:`~.spans.InvocationSpan` list.  The one counting definition
    behind the CLI's summary lines, ``FleetResult.summary()`` and
    ``repro report``, so they cannot drift apart."""
    counts = dict.fromkeys(("total",) + STATUSES + ("local_fallbacks",), 0)
    for invocation in invocations:
        counts["total"] += 1
        counts[invocation.status] += 1
        counts["local_fallbacks"] += invocation.fallback_local
    return counts


@dataclass
class DeviceRow:
    """One device's line of the report's per-device table."""

    sid: Optional[str]
    program: str
    invocations: int
    offloaded: int
    declined: int
    rejected: int
    aborted: int
    total_seconds: float
    energy_mj: float
    partial: bool

    def to_json(self) -> dict:
        return {
            "sid": self.sid, "program": self.program,
            "invocations": self.invocations, "offloaded": self.offloaded,
            "declined": self.declined, "rejected": self.rejected,
            "aborted": self.aborted, "total_seconds": self.total_seconds,
            "energy_mj": self.energy_mj, "partial": self.partial,
        }


@dataclass
class FleetAggregate:
    """The cross-session rollup every report section reads from."""

    sessions: int = 0
    partial_sessions: int = 0
    invocations: Dict[str, int] = field(default_factory=dict)
    decline_reasons: Dict[str, int] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    critical_path: Dict[str, float] = field(default_factory=dict)
    dominant: Dict[str, int] = field(default_factory=dict)
    devices: List[DeviceRow] = field(default_factory=list)
    servers: Dict[int, Dict[str, float]] = field(default_factory=dict)
    totals: Dict[str, float] = field(default_factory=dict)

    @property
    def decline_rate(self) -> float:
        total = self.invocations.get("total", 0)
        if not total:
            return 0.0
        return (total - self.invocations.get("offloaded", 0)) / total

    @property
    def fallback_ratio(self) -> float:
        total = self.invocations.get("total", 0)
        if not total:
            return 0.0
        return self.invocations.get("local_fallbacks", 0) / total

    def summary_lines(self) -> List[str]:
        """The span-derived lines of ``repro trace``'s summary: the
        invocation outcomes, the critical path and, when any invocation
        had one, the dominant buckets."""
        inv = self.invocations
        cp = self.critical_path
        parts = ", ".join(f"{name} {cp[name] * 1e3:.2f} ms"
                          for name in BUCKETS if cp[name] > 0)
        lines = [f"  spans   : {inv['total']} invocations — "
                 f"{inv['offloaded']} offloaded, {inv['declined']} "
                 f"declined, {inv['rejected']} rejected, "
                 f"{inv['aborted']} aborted",
                 f"  critical: {parts or 'all buckets empty'}"]
        if self.dominant:
            dominant = ", ".join(f"{name} x{count}" for name, count in
                                 sorted(self.dominant.items()))
            lines.append(f"  dominant: {dominant}")
        return lines

    def to_json(self) -> dict:
        """A JSON-safe dict with a stable shape and key order."""
        histograms = {}
        for name in DISTRIBUTIONS:
            h = self.histograms[name]
            histograms[name] = {
                "count": h.count, "sum": h.total,
                "min": h.min if h.count else 0.0,
                "max": h.max if h.count else 0.0,
                "mean": h.mean,
                "p50": h.percentile(0.50),
                "p95": h.percentile(0.95),
                "p99": h.percentile(0.99),
            }
        return {
            "sessions": self.sessions,
            "partial_sessions": self.partial_sessions,
            "invocations": dict(sorted(self.invocations.items())),
            "decline_rate": self.decline_rate,
            "fallback_ratio": self.fallback_ratio,
            "decline_reasons": dict(sorted(self.decline_reasons.items())),
            "distributions": histograms,
            "critical_path_seconds": {name: self.critical_path.get(name,
                                                                   0.0)
                                      for name in BUCKETS},
            "dominant_bottlenecks": dict(sorted(self.dominant.items())),
            "devices": [row.to_json() for row in self.devices],
            "servers": {str(k): self.servers[k]
                        for k in sorted(self.servers)},
            "totals": dict(sorted(self.totals.items())),
        }


def aggregate_sessions(sessions: List[SessionSpan]) -> FleetAggregate:
    """Roll every session's spans up into one :class:`FleetAggregate`."""
    agg = FleetAggregate()
    agg.invocations = invocation_counts(())
    agg.histograms = {name: Histogram(name) for name in DISTRIBUTIONS}
    agg.critical_path = {name: 0.0 for name in BUCKETS}
    totals = {"total_seconds": 0.0, "energy_mj": 0.0,
              "comm_seconds": 0.0, "mobile_compute_seconds": 0.0,
              "server_compute_seconds": 0.0, "wire_bytes": 0,
              "retries": 0, "reconnects": 0, "disconnects": 0}

    for session in sessions:
        agg.sessions += 1
        if session.partial:
            agg.partial_sessions += 1
        counts = invocation_counts(session.invocations)
        for key, n in counts.items():
            agg.invocations[key] += n
        paths = attribute_session(session)
        for name, value in bucket_totals(paths).items():
            agg.critical_path[name] += value
        for name, n in dominant_counts(paths).items():
            agg.dominant[name] = agg.dominant.get(name, 0) + n

        for inv in session.invocations:
            if inv.status == "declined" and inv.reason:
                agg.decline_reasons[inv.reason] = \
                    agg.decline_reasons.get(inv.reason, 0) + 1
            tally = inv.tally
            wire = tally.wire_bytes_to_server + tally.wire_bytes_to_mobile
            totals["wire_bytes"] += wire
            totals["retries"] += tally.retries
            totals["reconnects"] += tally.reconnects
            totals["disconnects"] += tally.disconnects
            for server, wait in tally.queue_waits:
                row = agg.servers.setdefault(
                    server, {"queued_admissions": 0,
                             "queue_delay_s": 0.0})
                row["queued_admissions"] += 1
                row["queue_delay_s"] += wait
            if inv.status == "offloaded":
                agg.histograms["invocation_seconds"].observe(
                    inv.wall_seconds)
                agg.histograms["wire_bytes"].observe(float(wire))
            if tally.queue_seconds > 0.0:
                agg.histograms["queue_wait_seconds"].observe(
                    tally.queue_seconds)

        t = session.totals
        totals["total_seconds"] += float(t.get("total_seconds", 0.0))
        totals["energy_mj"] += float(t.get("energy_mj", 0.0))
        totals["comm_seconds"] += float(t.get("comm_seconds", 0.0))
        totals["mobile_compute_seconds"] += float(
            t.get("mobile_compute_seconds", 0.0))
        totals["server_compute_seconds"] += float(
            t.get("server_compute_seconds", 0.0))
        agg.devices.append(DeviceRow(
            sid=session.sid, program=session.program,
            invocations=counts["total"],
            offloaded=counts["offloaded"],
            declined=counts["declined"],
            rejected=counts["rejected"],
            aborted=counts["aborted"],
            total_seconds=float(t.get("total_seconds", 0.0)),
            energy_mj=float(t.get("energy_mj", 0.0)),
            partial=session.partial))
    agg.totals = totals
    return agg

"""The report: deterministic JSON + self-contained HTML + baseline diff.

``build_report`` turns an event stream (live tracer or loaded JSONL)
into one JSON-safe dict with a pinned schema (``repro.trace.report/1``)
and **no wall-clock anything** — two same-seed runs serialize
byte-identically, which is what lets CI diff reports at all.

``diff_reports`` / ``diff_bench`` implement the regression gate: compare
a baseline report (or a checked-in ``BENCH_*.json``) against a current
one and return structured regressions when a lower-is-better metric
worsened beyond the tolerance.  ``python -m repro report --baseline``
exits non-zero when any come back.
"""

from __future__ import annotations

import html as _html
import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..timeline import _fmt_value as _fmt
from ..tracer import TraceEvent
from .aggregate import FleetAggregate, aggregate_sessions
from .critical_path import BUCKETS
from .slo import DEFAULT_RULES, evaluate_rules
from .spans import reconstruct_sessions, validate_sessions

SCHEMA = "repro.trace.report/1"

#: Report metrics the baseline gate watches.  ``rel`` metrics compare
#: relative growth (seconds, bytes); ``abs`` metrics compare absolute
#: change (ratios in [0, 1], where "10% tolerance" means ten
#: percentage points).  All are lower-is-better.
GATED_METRICS: Tuple[Tuple[str, str], ...] = (
    ("fleet.distributions.invocation_seconds.mean", "rel"),
    ("fleet.distributions.invocation_seconds.p50", "rel"),
    ("fleet.distributions.invocation_seconds.p95", "rel"),
    ("fleet.distributions.invocation_seconds.p99", "rel"),
    ("fleet.distributions.queue_wait_seconds.p95", "rel"),
    ("fleet.distributions.wire_bytes.mean", "rel"),
    ("fleet.totals.total_seconds", "rel"),
    ("fleet.totals.energy_mj", "rel"),
    ("fleet.decline_rate", "abs"),
    ("fleet.fallback_ratio", "abs"),
)

#: Key-name fragments that orient the generic BENCH_*.json diff.
_LOWER_BETTER = ("makespan", "seconds", "_s", "delay", "decline",
                 "energy", "wire", "bytes_to", "total_bytes", "wasted")
_HIGHER_BETTER = ("throughput", "reduction", "speedup", "hit", "saved",
                  "admitted")


def build_report(events: Iterable[TraceEvent], *,
                 source: Optional[dict] = None,
                 dropped: int = 0,
                 declared_events: Optional[int] = None,
                 rules=DEFAULT_RULES,
                 servers: Optional[Sequence[dict]] = None) -> dict:
    """Analyze ``events`` into the full report dict, in one pass that
    keeps none of them: a generator (``iter_jsonl``) is analysed in
    memory proportional to its sessions.  ValueError for a stream out
    of per-``sid`` emission order (``reconstruct_sessions``).

    ``dropped`` and ``declared_events`` are what the stream's producer
    said about it — the ring buffer's eviction count and the event
    count a JSONL header declares; either disagreeing with a complete
    stream is reported as a warning that the figures are partial.

    ``servers`` is the optional pool-side per-server detail of a live
    fleet run (``FleetResult.summary()["servers_detail"]`` rows); the
    trace alone only sees queued admissions, so utilization, busy
    seconds, peak queue depth, tier and speed ride in from the pool and
    are merged into the ``fleet.servers`` table.  Reports built from a
    saved JSONL have no pool and keep the trace-derived columns only.
    """
    seen = 0

    def passed_on():
        nonlocal seen
        for event in events:
            seen += 1
            yield event

    sessions = reconstruct_sessions(passed_on())
    agg: FleetAggregate = aggregate_sessions(sessions)
    if servers:
        for row in servers:
            merged = agg.servers.setdefault(
                int(row["id"]),
                {"queued_admissions": 0, "queue_delay_s": 0.0})
            for key in ("tier", "speed", "capacity", "active", "admitted",
                        "rejected", "busy_seconds", "max_queue_depth",
                        "utilization"):
                merged[key] = row[key]
            # Scatter/gather fan-out (docs/parallel-offload.md); absent
            # from rows recorded before the plan refactor.
            if "shard_admissions" in row:
                merged["shard_admissions"] = row["shard_admissions"]
    findings = evaluate_rules(sessions, rules)
    invariant = validate_sessions(sessions, seen)
    warnings: List[str] = []
    if dropped:
        warnings.append(
            f"trace ring buffer dropped {dropped} events; span "
            f"reconstruction and every figure below are PARTIAL")
    if declared_events is not None and declared_events != seen:
        warnings.append(
            f"trace header declares {declared_events} events, file "
            f"holds {seen}; every figure below is PARTIAL")
    if agg.partial_sessions:
        warnings.append(
            f"{agg.partial_sessions} of {agg.sessions} sessions are "
            f"partial (truncated stream); their totals are excluded "
            f"from reconciliation")
    for issue in invariant:
        warnings.append(f"span invariant: {issue}")
    return {
        "schema": SCHEMA,
        "source": dict(sorted((source or {}).items())),
        "events": seen,
        "dropped_events": dropped,
        "warnings": warnings,
        "fleet": agg.to_json(),
        "findings": [f.to_json() for f in findings],
    }


def report_to_json(report: dict) -> str:
    """The canonical serialization (sorted keys, trailing newline) —
    byte-identical for same-seed runs."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# -- baseline diffing ----------------------------------------------------
def _lookup(report: dict, path: str):
    node = report
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) else None


def _check_tolerance(tolerance: float) -> None:
    """NaN switches a gate off (every ``delta > nan`` is False) and a
    negative tolerance fails a report against itself."""
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be >= 0; got {tolerance!r}")


def diff_reports(baseline: dict, current: dict,
                 tolerance: float = 0.10) -> List[dict]:
    """Regressions of ``current`` vs ``baseline`` over the gated
    metrics.  A ``rel`` metric regresses when it grew more than
    ``tolerance`` relative to the baseline; an ``abs`` metric when it
    grew more than ``tolerance`` in absolute terms."""
    _check_tolerance(tolerance)
    regressions: List[dict] = []
    for path, kind in GATED_METRICS:
        base = _lookup(baseline, path)
        cur = _lookup(current, path)
        if base is None or cur is None:
            continue
        delta = cur - base
        if kind == "rel":
            limit = tolerance * abs(base)
            # A zero baseline cannot scale a relative tolerance; any
            # growth beyond noise regresses.
            if base == 0:
                limit = 1e-9
        else:
            limit = tolerance
        if delta > limit:
            regressions.append({
                "metric": path, "kind": kind,
                "baseline": base, "current": cur,
                "delta": delta,
                "relative": (delta / abs(base)) if base else None,
                "tolerance": tolerance,
            })
    return regressions


def _numeric_leaves(node, prefix="") -> Dict[str, float]:
    out: Dict[str, float] = {}
    if isinstance(node, dict):
        for key in sorted(node):
            out.update(_numeric_leaves(node[key], f"{prefix}{key}."))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            out.update(_numeric_leaves(item, f"{prefix}{i}."))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix[:-1]] = float(node)
    return out


def _direction(path: str) -> int:
    """-1 lower-is-better, +1 higher-is-better, 0 informational."""
    leaf = path.rsplit(".", 1)[-1]
    for frag in _HIGHER_BETTER:
        if frag in leaf:
            return 1
    for frag in _LOWER_BETTER:
        if frag in leaf or leaf.endswith("_s"):
            return -1
    return 0


def diff_bench(baseline: dict, current: dict,
               tolerance: float = 0.10) -> List[dict]:
    """Generic numeric diff of two ``BENCH_*.json`` files.

    Walks every numeric leaf; a leaf whose key orients it (see
    ``_LOWER_BETTER`` / ``_HIGHER_BETTER``) regresses when it moved the
    wrong way by more than ``tolerance`` relative; unoriented leaves
    never fail the gate."""
    _check_tolerance(tolerance)
    base_leaves = _numeric_leaves(baseline)
    cur_leaves = _numeric_leaves(current)
    regressions: List[dict] = []
    for path in sorted(set(base_leaves) & set(cur_leaves)):
        direction = _direction(path)
        if direction == 0:
            continue
        base, cur = base_leaves[path], cur_leaves[path]
        worsened = (cur - base) * -direction  # positive = got worse
        limit = tolerance * abs(base) if base != 0 else 1e-9
        if worsened > limit:
            regressions.append({
                "metric": path,
                "kind": "bench",
                "baseline": base, "current": cur,
                "delta": cur - base,
                "relative": ((cur - base) / abs(base)) if base else None,
                "tolerance": tolerance,
            })
    return regressions


# -- HTML rendering ------------------------------------------------------
_CSS = """
body{font-family:system-ui,sans-serif;margin:2em auto;max-width:70em;
color:#1a1a2e}
h1{font-size:1.4em;border-bottom:2px solid #1a1a2e}
h2{font-size:1.1em;margin-top:1.6em}
table{border-collapse:collapse;margin:.6em 0}
th,td{border:1px solid #b8b8c8;padding:.25em .6em;text-align:right;
font-variant-numeric:tabular-nums}
th{background:#eef;text-align:center}
td.l{text-align:left}
.warn{background:#fff3cd;border:1px solid #cc9a06;padding:.5em .8em;
margin:.4em 0}
.finding-critical{background:#f8d7da}
.finding-warning{background:#fff3cd}
.ok{color:#0a6640}
""".strip()


def _esc(value) -> str:
    return _html.escape(str(value))


def _table(headers: Sequence[str], rows: Sequence[Sequence],
           left: int = 1) -> str:
    out = ["<table><tr>"]
    out += [f"<th>{_esc(h)}</th>" for h in headers]
    out.append("</tr>")
    for row in rows:
        out.append("<tr>")
        for i, cell in enumerate(row):
            cls = ' class="l"' if i < left else ""
            out.append(f"<td{cls}>{_esc(_fmt(cell))}</td>")
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


def render_html(report: dict) -> str:
    """One self-contained HTML page (inline CSS, no external assets,
    nothing non-deterministic)."""
    fleet = report["fleet"]
    parts: List[str] = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>repro trace report</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>repro trace report</h1>",
    ]
    if report["source"]:
        parts.append("<h2>Source</h2>")
        parts.append(_table(
            ["key", "value"],
            [(k, v) for k, v in sorted(report["source"].items())]))
    parts.append(
        f"<p>{report['events']} events, {fleet['sessions']} session(s), "
        f"{fleet['invocations']['total']} invocations.</p>")
    for warning in report["warnings"]:
        parts.append(f"<div class='warn'>&#9888; {_esc(warning)}</div>")

    inv = fleet["invocations"]
    parts.append("<h2>Invocations</h2>")
    parts.append(_table(
        ["total", "offloaded", "declined", "rejected", "aborted",
         "local fallbacks", "decline rate", "fallback ratio"],
        [[inv["total"], inv["offloaded"], inv["declined"],
          inv["rejected"], inv["aborted"], inv["local_fallbacks"],
          fleet["decline_rate"], fleet["fallback_ratio"]]], left=0))
    if fleet["decline_reasons"]:
        parts.append(_table(
            ["decline reason", "count"],
            sorted(fleet["decline_reasons"].items())))

    parts.append("<h2>Distributions</h2>")
    parts.append(_table(
        ["metric", "count", "mean", "p50", "p95", "p99", "min", "max"],
        [[name, d["count"], d["mean"], d["p50"], d["p95"], d["p99"],
          d["min"], d["max"]]
         for name, d in sorted(fleet["distributions"].items())]))

    parts.append("<h2>Critical path</h2>")
    cp = fleet["critical_path_seconds"]
    parts.append(_table(["bucket", "seconds"],
                        [(name, cp[name]) for name in BUCKETS]))
    if fleet["dominant_bottlenecks"]:
        parts.append(_table(
            ["dominant bottleneck", "invocations"],
            sorted(fleet["dominant_bottlenecks"].items())))

    if fleet["devices"]:
        parts.append("<h2>Devices</h2>")
        parts.append(_table(
            ["sid", "program", "invocations", "offloaded", "declined",
             "rejected", "aborted", "total s", "energy mJ", "partial"],
            [[d["sid"] or "-", d["program"], d["invocations"],
              d["offloaded"], d["declined"], d["rejected"], d["aborted"],
              d["total_seconds"], d["energy_mj"], d["partial"]]
             for d in fleet["devices"]], left=2))

    if fleet["servers"]:
        parts.append("<h2>Servers</h2>")
        # Pool-side columns (tier/speed/utilization/peak depth) exist
        # only for live fleet runs; JSONL-derived reports show "-".
        parts.append(_table(
            ["server", "tier", "speed", "admitted", "gang shards",
             "rejected", "queued admissions", "queue delay s", "busy s",
             "utilization", "peak queue depth"],
            [[sid, row.get("tier", "-"), row.get("speed", "-"),
              row.get("admitted", "-"), row.get("shard_admissions", "-"),
              row.get("rejected", "-"),
              row["queued_admissions"], row["queue_delay_s"],
              row.get("busy_seconds", "-"), row.get("utilization", "-"),
              row.get("max_queue_depth", "-")]
             for sid, row in sorted(fleet["servers"].items(),
                                    key=lambda kv: int(kv[0]))],
            left=2))

    parts.append("<h2>SLO findings</h2>")
    if report["findings"]:
        parts.append("".join(
            f"<div class='finding-{_esc(f['severity'])} warn'>"
            f"<b>{_esc(f['rule'])}</b> "
            f"[{_fmt(f['start_s'])}s &ndash; {_fmt(f['end_s'])}s] "
            f"value {_fmt(f['value'])} vs threshold "
            f"{_fmt(f['threshold'])} ({_esc(f['detail'])})"
            + (f" sid={_esc(f['sid'])}" if f["sid"] else "")
            + "</div>"
            for f in report["findings"]))
    else:
        parts.append("<p class='ok'>No SLO findings.</p>")
    parts.append("</body></html>")
    return "".join(parts) + "\n"

"""SLO / anomaly detection over sliding windows of simulated time.

A rule names a windowed metric, a comparison, and a threshold; the
evaluator slides a window (half-overlapping, so a burst straddling a
boundary is still seen whole) over the merged event timeline, computes
the metric per window, and emits one structured *finding* per violated
stretch — adjacent violated windows of the same rule merge into one.
Everything is read-only over the events and fully deterministic: the
same trace yields byte-identical findings.

The default rule set covers the failure modes the runtime can actually
exhibit (docs/observability.md, "SLO rules"):

* ``decline_rate_spike`` — the estimator stops offloading (saturated
  pool, dead link, failure cooldown);
* ``queue_pressure`` — admission waits approach the service time, the
  contention collapse of docs/fleet.md;
* ``retry_storm`` — transport-level recovery dominates a window;
* ``fallback_ratio`` — too many invocations end in a local replay;
* ``prefetch_waste_streak`` — the adaptive prefetcher keeps pushing
  pages the server never touches (a *streak* over consecutive
  invocations rather than a time window).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .spans import SessionSpan

#: Comparison operators a rule may use.
_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}


@dataclass(frozen=True)
class SloRule:
    """One declarative threshold.

    ``metric`` names a windowed metric the evaluator knows how to
    compute (see ``WINDOW_METRICS``); ``window_s`` is the sliding-window
    width in simulated seconds; ``min_samples`` suppresses findings from
    windows with too few observations to be meaningful.
    """

    name: str
    metric: str
    op: str
    threshold: float
    window_s: float = 0.05
    min_samples: int = 4
    severity: str = "warning"

    def violated(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)


@dataclass
class Finding:
    """One violated stretch of simulated time (or one streak)."""

    rule: str
    severity: str
    start_s: float
    end_s: float
    value: float          # the worst windowed value in the stretch
    threshold: float
    samples: int
    sid: Optional[str] = None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "rule": self.rule, "severity": self.severity,
            "start_s": self.start_s, "end_s": self.end_s,
            "value": self.value, "threshold": self.threshold,
            "samples": self.samples, "sid": self.sid,
            "detail": self.detail,
        }


#: The default rule set (tunable per call; thresholds chosen so healthy
#: fault-free runs stay quiet and the saturation/fault benchmarks light
#: up — see tests/test_analysis_report.py).
DEFAULT_RULES = (
    SloRule("decline_rate_spike", "decline_rate", ">", 0.6,
            window_s=0.05, min_samples=6),
    SloRule("queue_pressure", "mean_queue_wait_s", ">", 0.005,
            window_s=0.05, min_samples=4),
    SloRule("retry_storm", "retry_count", ">=", 6,
            window_s=0.02, min_samples=1, severity="critical"),
    SloRule("fallback_ratio", "fallback_ratio", ">", 0.25,
            window_s=0.1, min_samples=4),
)

#: Consecutive fully-wasted prefetch windows before the streak rule
#: fires (mirrors the adaptive prefetcher's demotion logic).
PREFETCH_WASTE_STREAK = 3


@dataclass
class Observation:
    """One invocation flattened to the fields the metrics consume.

    Shared with the fleet's :class:`~repro.fleet.autoscaler.Autoscaler`,
    which builds these live from admission outcomes instead of from
    reconstructed spans — same metrics, same thresholds, evaluated
    mid-simulation (docs/placement.md, "Autoscaler").
    """

    t: float
    offloaded: bool
    fallback: bool
    queue_wait_s: float
    retries: int


def _observe(sessions: Sequence[SessionSpan]) -> List[Observation]:
    obs: List[Observation] = []
    for session in sessions:
        for inv in session.invocations:
            tally = inv.tally
            obs.append(Observation(
                t=inv.start, offloaded=inv.status == "offloaded",
                fallback=tally.fallbacks > 0,
                queue_wait_s=tally.queue_seconds, retries=tally.retries))
    obs.sort(key=lambda o: o.t)
    return obs


def window_slice(observations: Sequence[Observation],
                 times: Sequence[float], start: float, end: float,
                 closed_end: bool = False) -> Sequence[Observation]:
    """The observations made in ``[start, end)`` — ``[start, end]`` with
    ``closed_end`` — in order.

    ``observations`` must be in time order and ``times`` their ``t``
    values, index for index: the window is then two bisections and a
    slice, whatever the length of the timeline.  Shared, like
    :func:`window_metric`, by the post-hoc rules (half-open windows on a
    fixed grid) and the live autoscaler (the closed trailing window
    ``[t - w, t]``)."""
    lo = bisect_left(times, start)
    hi = (bisect_right if closed_end else bisect_left)(times, end)
    return observations[lo:hi]


def window_metric(name: str, window: Sequence[Observation]) -> float:
    """One windowed metric over a non-empty observation window.

    The single implementation behind both the post-hoc report rules
    and the in-simulation autoscaler, so the two can never drift."""
    if name == "decline_rate":
        return sum(1 for o in window if not o.offloaded) / len(window)
    if name == "mean_queue_wait_s":
        return sum(o.queue_wait_s for o in window) / len(window)
    if name == "retry_count":
        return float(sum(o.retries for o in window))
    if name == "fallback_ratio":
        return sum(1 for o in window if o.fallback) / len(window)
    raise KeyError(f"unknown SLO metric {name!r}")


def _windows(span_end: float, width: float):
    """Half-overlapping window starts covering [0, span_end]."""
    stride = width / 2.0
    start = 0.0
    while start <= span_end:
        yield start
        start += stride
    # (span_end itself is covered by the last yielded window)


def evaluate_rules(sessions: Sequence[SessionSpan],
                   rules: Sequence[SloRule] = DEFAULT_RULES
                   ) -> List[Finding]:
    """Evaluate every rule over the sessions' merged timeline."""
    observations = _observe(sessions)
    findings: List[Finding] = []
    if observations:
        times = [o.t for o in observations]
        span_end = times[-1]
        for rule in rules:
            open_finding: Optional[Finding] = None
            for start in _windows(span_end, rule.window_s):
                end = start + rule.window_s
                window = window_slice(observations, times, start, end)
                if len(window) < rule.min_samples:
                    continue
                value = window_metric(rule.metric, window)
                if not rule.violated(value):
                    if open_finding is not None:
                        findings.append(open_finding)
                        open_finding = None
                    continue
                if (open_finding is not None
                        and start <= open_finding.end_s):
                    open_finding.end_s = end
                    open_finding.samples += len(window)
                    if abs(value) > abs(open_finding.value):
                        open_finding.value = value
                else:
                    if open_finding is not None:
                        findings.append(open_finding)
                    open_finding = Finding(
                        rule=rule.name, severity=rule.severity,
                        start_s=start, end_s=end, value=value,
                        threshold=rule.threshold, samples=len(window),
                        detail=f"{rule.metric} {rule.op} "
                               f"{rule.threshold:g}")
            if open_finding is not None:
                findings.append(open_finding)
    findings.extend(prefetch_waste_findings(sessions))
    findings.sort(key=lambda f: (f.start_s, f.rule, f.sid or ""))
    return findings


def prefetch_waste_findings(sessions: Sequence[SessionSpan],
                            streak: int = PREFETCH_WASTE_STREAK
                            ) -> List[Finding]:
    """Per-device streaks of fully-wasted prefetch windows.

    An adaptive-prefetch verdict (``Tally.prefetch_windows``) with
    ``wasted > 0`` and ``hits == 0`` means every page pushed for that
    invocation went unused; ``streak`` of them in a row is sustained
    wasted uplink the prefetcher should have adapted away.
    """
    findings: List[Finding] = []
    for session in sessions:
        run: List = []
        for inv in session.invocations:
            for window in inv.tally.prefetch_windows:
                if window.wasted > 0 and window.hits == 0:
                    run.append(window)
                else:
                    if len(run) >= streak:
                        findings.append(_streak_finding(session, run))
                    run = []
        if len(run) >= streak:
            findings.append(_streak_finding(session, run))
    return findings


def _streak_finding(session: SessionSpan, run: List) -> Finding:
    wasted = sum(window.wasted for window in run)
    return Finding(
        rule="prefetch_waste_streak", severity="warning",
        start_s=run[0].t, end_s=run[-1].t, value=float(len(run)),
        threshold=float(PREFETCH_WASTE_STREAK), samples=len(run),
        sid=session.sid,
        detail=f"{len(run)} consecutive fully-wasted prefetch windows "
               f"({wasted} pages)")

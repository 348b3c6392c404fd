"""SLO-driven elasticity: grow or shrink the pool mid-simulation.

PR 5's report evaluates sliding-window SLO rules *after* a run; the
autoscaler closes that loop by evaluating the same rules (same
:class:`~repro.trace.analysis.slo.SloRule` records, same
:func:`~repro.trace.analysis.slo.window_metric` implementation) *during*
the run, on :data:`~repro.fleet.events.AUTOSCALE` ticks the event-driven
scheduler fires between device events.

At each tick the autoscaler looks at the trailing window of admission
outcomes the scheduler observed.  A violated rule — queue pressure or a
decline-rate spike, the two contention findings of docs/observability.md
— produces a structured :class:`~repro.trace.analysis.slo.Finding` and,
capacity permitting, one new server cloned from the configured template
spec (``pool.add_server``).  A healthy stretch of
``SCALE_DOWN_AFTER`` consecutive ticks retires the most recently added
server, but only once it is idle — ``pool.remove_server`` refuses
otherwise and the autoscaler simply retries later.  Actions are
surfaced in ``FleetResult.summary()["autoscale"]``.

The autoscaler is pool control-plane work scheduled *as an event*
(docs/placement.md, "Autoscaler"), which the test-only lockstep
reference engine has no slot for.  Determinism is preserved — ticks fire at fixed simulated times with a
fixed tie-break index, so the same seed yields the same scaling story.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..runtime.backend import Admission
from ..trace.analysis.slo import (Finding, Observation, SloRule,
                                  window_metric, window_slice)
from .pool import ServerPool, ServerSpec

#: The contention subset of the report's DEFAULT_RULES: the two
#: findings a pool can actually act on by adding capacity.  Same
#: metrics and thresholds as repro.trace.analysis.slo.DEFAULT_RULES.
DEFAULT_AUTOSCALE_RULES: Tuple[SloRule, ...] = (
    SloRule("queue_pressure", "mean_queue_wait_s", ">", 0.005,
            window_s=0.05, min_samples=4),
    SloRule("decline_rate_spike", "decline_rate", ">", 0.6,
            window_s=0.05, min_samples=6),
)
#: Healthy ticks in a row before the newest added server is retired.
SCALE_DOWN_AFTER = 4


@dataclass(frozen=True)
class AutoscalerOptions:
    """Knobs for the SLO feedback loop."""

    interval_s: float = 0.005        # tick period in simulated seconds
    template: ServerSpec = ServerSpec()  # what a scale-up adds
    max_servers: int = 8             # cap on *active* servers

    def __post_init__(self) -> None:
        if self.interval_s <= 0.0:
            raise ValueError("interval_s must be > 0")
        if self.max_servers <= 0:
            raise ValueError("max_servers must be > 0")


class Autoscaler:
    """Consumes admission outcomes, emits pool resizes.

    ``observe`` is called by the scheduler for every served admission
    request; ``evaluate`` on every :data:`~repro.fleet.events.AUTOSCALE`
    tick.  ``findings`` collects the violated-window evidence,
    ``actions`` the resizes actually performed (both in simulated-time
    order; deterministic for a given seed).
    """

    def __init__(self, options: Optional[AutoscalerOptions] = None):
        self.options = options or AutoscalerOptions()
        self.findings: List[Finding] = []
        self.actions: List[dict] = []
        # time-ordered, with the times alongside for window_slice
        self._observations: List[Observation] = []
        self._times: List[float] = []
        self._added: List[int] = []     # ids of servers we grew, LIFO
        self._healthy_ticks = 0

    # -- data plane ----------------------------------------------------
    def observe(self, t: float, outcome) -> None:
        """Record one served admission request at global time ``t``.

        Rejections count as declines *and* carry the quoted wait —
        exactly how the post-hoc SLO evaluator scores a refused
        invocation's local fallback.
        """
        if isinstance(outcome, Admission):
            obs = Observation(t=t, offloaded=True, fallback=False,
                              queue_wait_s=outcome.queue_seconds,
                              retries=0)
        else:
            obs = Observation(t=t, offloaded=False, fallback=True,
                              queue_wait_s=outcome.estimated_wait_s,
                              retries=0)
        # The scheduler observes in event order, so this is an append;
        # a direct caller may not, and equal times keep arrival order.
        at = bisect_right(self._times, t)
        self._times.insert(at, t)
        self._observations.insert(at, obs)

    # -- control plane -------------------------------------------------
    def evaluate(self, t: float, pool: ServerPool) -> None:
        """One AUTOSCALE tick: check the trailing windows, maybe resize."""
        violation = self._violated_rule(t)
        if violation is None:
            self._healthy_ticks += 1
            if self._healthy_ticks >= SCALE_DOWN_AFTER and self._added:
                server_id = self._added[-1]
                if pool.remove_server(server_id, t):
                    self._added.pop()
                    self._healthy_ticks = 0
                    self.actions.append({
                        "t": t, "action": "scale_down",
                        "server": server_id,
                        "tier": self.options.template.tier,
                        "rule": None, "value": None,
                    })
            return
        rule, value, samples = violation
        self._healthy_ticks = 0
        self.findings.append(Finding(
            rule=rule.name, severity=rule.severity,
            start_s=max(0.0, t - rule.window_s), end_s=t,
            value=value, threshold=rule.threshold, samples=samples,
            detail=f"autoscaler: {rule.metric} {rule.op} "
                   f"{rule.threshold:g}"))
        if pool.active_servers < self.options.max_servers:
            server_id = pool.add_server(self.options.template)
            self._added.append(server_id)
            self.actions.append({
                "t": t, "action": "scale_up", "server": server_id,
                "tier": self.options.template.tier,
                "rule": rule.name, "value": value,
            })

    def _violated_rule(self, t: float):
        """First violated rule over its trailing window at time ``t``."""
        for rule in DEFAULT_AUTOSCALE_RULES:
            window = window_slice(self._observations, self._times,
                                  t - rule.window_s, t, closed_end=True)
            if len(window) < rule.min_samples:
                continue
            value = window_metric(rule.metric, window)
            if rule.violated(value):
                return rule, value, len(window)
        return None

    def summary(self) -> dict:
        """Deterministic JSON-ready accounting for FleetResult.summary."""
        return {
            "actions": list(self.actions),
            "findings": [f.to_json() for f in self.findings],
            "scale_ups": sum(1 for a in self.actions
                             if a["action"] == "scale_up"),
            "scale_downs": sum(1 for a in self.actions
                               if a["action"] == "scale_down"),
        }

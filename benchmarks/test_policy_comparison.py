"""Policy comparison benchmark: the four decision engines head to head,
plus SLO-driven autoscaling vs a fixed pool (docs/placement.md).

Two scenarios, both fully deterministic (no wall-clock keys — every
leaf in ``BENCH_policies.json`` is simulation output, so the CI smoke
regeneration must reproduce the checked-in file exactly and ``repro
report --bench`` gates the oriented leaves):

* **tiered burst** — a burst of deadline-carrying devices against a
  two-tier pool (one reference edge server, one 4x cloud server).
  ``fifo`` greedily minimizes each request's *own* queue-entry wait and
  queues every request it can, so under the burst its queue-wait tail
  grows past the deadline; ``deadline-aware`` refuses placements whose
  expected finish (wait + speed-scaled service estimate) misses the
  request's deadline — those requests fall back to local execution
  instead of queueing, which bounds the p95 queue wait *and* shortens
  the makespan.  The ISSUE 7 acceptance bar: at least one engine beats
  ``fifo`` on p95 queue seconds here.
* **autoscale** — the same burst against one short-queue server, fixed
  vs elastically grown by the :class:`~repro.fleet.autoscaler.
  Autoscaler`.  Scale-ups triggered by the in-run SLO rules must lower
  the decline rate.

``POLICY_OUT`` redirects the output file (the CI smoke job writes a
fresh copy and leaf-diffs it against the checked-in one).
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.fleet import (Autoscaler, AutoscalerOptions, DECISION_ENGINES,
                         FleetScheduler, PoolOptions, ServerPool,
                         ServerSpec, identical_devices)
from repro.runtime import FAST_WIFI
from repro.workloads import workload
from repro.trace.analysis.aggregate import nearest_rank_percentile

RESULT_PATH = Path(os.environ.get(
    "POLICY_OUT",
    Path(__file__).resolve().parent.parent / "BENCH_policies.json"))

SEED = 0
DEVICES = 12
SPACING_S = 0.002
#: Relative per-invocation deadline.  fifo ignores it; deadline-aware
#: rejects placements that cannot meet it (admission control).
DEADLINE_S = 0.010

#: The built-in three-invocation hot kernel on a small input.
POLICY_STDIN = b"150\n"
MICRO = dataclasses.replace(workload("fleet-micro"),
                            profile_stdin=POLICY_STDIN,
                            eval_stdin=POLICY_STDIN)

#: Tiered pool: server 0 is the paper's reference edge server, server 1
#: a 4x cloud server.  fifo's (wait, id) tie-break lands the first
#: burst wave on the slow edge box; finish-time-aware policies do not.
TIERED_QUEUE_LIMIT = 16
TIERED_SPECS = (ServerSpec(queue_limit=TIERED_QUEUE_LIMIT),
                ServerSpec(speed=4.0, tier="cloud",
                           queue_limit=TIERED_QUEUE_LIMIT))

#: Fixed pool of the autoscale scenario: one single-slot server with a
#: short queue, so the burst drives declines until capacity arrives.
FIXED_POOL = dict(servers=1, capacity=1, queue_limit=2)
AUTOSCALE_MAX = 4
AUTOSCALE_INTERVAL_S = 0.002


@pytest.fixture(scope="module")
def compiled():
    built = MICRO.build()
    return built.program, built.local()


def _specs(program, deadline_s=None, arrival="burst"):
    return identical_devices(DEVICES, program, FAST_WIFI,
                             stdin=POLICY_STDIN, arrival=arrival,
                             spacing_s=SPACING_S, seed=SEED,
                             deadline_s=deadline_s)


def _point(result) -> dict:
    """Deterministic per-run metrics (every leaf is simulation output)."""
    summary = result.summary()
    queue_waits = sorted(
        r.queue_seconds
        for d in result.devices for r in d.result.invocations
        if r.offloaded)
    return {
        "makespan_s": summary["makespan_s"],
        "decline_rate": summary["decline_rate"],
        "offloaded": summary["invocations"]["offloaded"],
        "rejected": summary["invocations"]["rejected"],
        "p95_queue_s": nearest_rank_percentile(queue_waits, 0.95),
        "mean_queue_s": summary["queue"]["mean_delay_s"],
        "queued_admissions": summary["queue"]["queued_admissions"],
    }


def test_policy_comparison(compiled):
    program, local = compiled

    engines = {}
    for engine in DECISION_ENGINES:
        pool = ServerPool(PoolOptions(specs=TIERED_SPECS),
                          engine=engine)
        result = FleetScheduler(
            _specs(program, deadline_s=DEADLINE_S), pool).run()
        assert not result.differences(local.output), engine
        engines[engine] = _point(result)

    # ISSUE 7 acceptance: a non-fifo engine beats fifo on p95 queue
    # seconds in this scenario.
    fifo_p95 = engines["fifo"]["p95_queue_s"]
    best = min(engines[e]["p95_queue_s"]
               for e in ("worst-fit", "deadline-aware"))
    assert best < fifo_p95, \
        f"no engine beat fifo's p95 queue wait {fifo_p95}: {engines}"

    # Uniformly staggered arrivals: rejections accumulate over the
    # whole run, so arrivals after the SLO-triggered scale-up actually
    # land on the added capacity (a single t=0 burst would finish
    # rejecting before the autoscaler's first evaluation tick).
    fixed = FleetScheduler(
        _specs(program, arrival="uniform"),
        ServerPool(PoolOptions(**FIXED_POOL))).run()
    scaler = Autoscaler(AutoscalerOptions(
        interval_s=AUTOSCALE_INTERVAL_S,
        template=ServerSpec(capacity=FIXED_POOL["capacity"],
                            queue_limit=FIXED_POOL["queue_limit"]),
        max_servers=AUTOSCALE_MAX))
    scaled = FleetScheduler(
        _specs(program, arrival="uniform"),
        ServerPool(PoolOptions(**FIXED_POOL)),
        autoscaler=scaler).run()
    assert not scaled.differences(local.output)

    fixed_point = _point(fixed)
    scaled_point = _point(scaled)
    scaled_point["scale_ups"] = scaled.summary()["autoscale"]["scale_ups"]
    scaled_point["servers_final"] = scaled.summary()["servers"]

    # ISSUE 7 acceptance: SLO-triggered scale-up lowers the decline
    # rate vs the fixed pool.
    assert scaled_point["scale_ups"] >= 1, scaled_point
    assert scaled_point["decline_rate"] < fixed_point["decline_rate"], \
        f"autoscaling did not help: {fixed_point} vs {scaled_point}"

    payload = {
        "workload": "policy-cmp (3x crunch per device, burst arrivals)",
        "network": "802.11ac",
        "seed": SEED,
        "devices": DEVICES,
        "deadline_s": DEADLINE_S,
        "tiered_burst": {
            "pool": [
                {"tier": s.tier, "speed": s.speed,
                 "capacity": s.capacity, "queue_limit": s.queue_limit}
                for s in TIERED_SPECS],
            "engines": engines,
        },
        "autoscale": {
            "pool": dict(FIXED_POOL),
            "max_servers": AUTOSCALE_MAX,
            "interval_s": AUTOSCALE_INTERVAL_S,
            "fixed": fixed_point,
            "autoscaled": scaled_point,
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

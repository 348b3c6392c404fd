"""Fleet-scaling benchmark: Figure 6 speedups under server contention
(docs/fleet.md).

The same multi-invocation hot-kernel workload runs on fleets of growing
size against a fixed two-server pool.  Per fleet size the sweep records
throughput, completion-time percentiles, per-server utilization and the
decline rate into ``BENCH_fleet.json``, and asserts the ISSUE 4
acceptance bar: as devices per server grow, the decline rate rises and
local fallbacks absorb the load the pool refuses — with every device
still producing output identical to the local run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.fleet import (FleetScheduler, PoolOptions, ServerPool,
                         identical_devices)
from repro.runtime import FAST_WIFI, SessionOptions
from repro.workloads import workload

from conftest import run_once

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

SEED = 0
SERVERS = 2
CAPACITY = 1
QUEUE_LIMIT = 2
FLEET_SIZES = [2, 6, 12, 20]

#: The built-in multi-invocation hot kernel on its own input.
MICRO = workload("fleet-micro")


@pytest.fixture(scope="module")
def compiled():
    built = MICRO.build()
    return built.program, built.local()


def _run_fleet(program, devices: int):
    specs = identical_devices(devices, program, FAST_WIFI,
                              stdin=MICRO.eval_stdin, spacing_s=0.002,
                              seed=SEED, options=SessionOptions())
    pool = ServerPool(PoolOptions(servers=SERVERS, capacity=CAPACITY,
                                  queue_limit=QUEUE_LIMIT))
    return FleetScheduler(specs, pool).run()


def test_fleet_scaling_sweep(benchmark, compiled):
    program, local = compiled

    def sweep():
        return [(n, _run_fleet(program, n)) for n in FLEET_SIZES]

    results = run_once(benchmark, sweep)

    points = []
    for n, result in results:
        assert not result.differences(local.output), \
            f"fleet of {n}: device output diverged from local run"
        summary = result.summary()
        summary["devices_per_server"] = n / SERVERS
        points.append(summary)

    decline = [p["decline_rate"] for p in points]
    fallbacks = [p["invocations"]["local_fallbacks"] for p in points]
    # Contention bites: the most loaded fleet declines a strictly
    # larger share than the least loaded one, monotonically by stage.
    assert decline == sorted(decline), \
        f"decline rate not monotone across fleet sizes: {decline}"
    assert decline[-1] > decline[0], \
        f"decline rate flat from {FLEET_SIZES[0]} to {FLEET_SIZES[-1]} " \
        f"devices: {decline}"
    # ...and the refused load lands on the devices themselves.
    assert fallbacks[-1] > fallbacks[0], \
        f"local fallbacks flat under load: {fallbacks}"
    # The pool is actually being used, not bypassed.
    busiest = max(s["utilization"]
                  for s in points[-1]["servers_detail"])
    assert busiest > 0.5, f"pool underutilized at peak: {busiest}"

    payload = {
        "workload": "fleet-bench (3x crunch per device)",
        "network": "802.11ac",
        "seed": SEED,
        "servers": SERVERS,
        "capacity": CAPACITY,
        "queue_limit": QUEUE_LIMIT,
        "sweep": points,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def test_fleet_smoke(compiled):
    """The CI smoke configuration: one small fleet, fixed seed, asserting
    determinism and output correctness only (fast enough for the
    paper-eval smoke job)."""
    program, local = compiled
    first = _run_fleet(program, 4)
    second = _run_fleet(program, 4)
    assert not first.differences(local.output)
    assert json.dumps(first.summary()) == json.dumps(second.summary())

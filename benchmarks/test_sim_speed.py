"""Simulator-scale benchmark: the event-driven fleet core swept to 10k
devices (docs/simulator.md).

The sweep records what makes that scale affordable, all of it
deterministic: the simulated makespan and the replay accounting (session
runs beyond the theoretical minimum, segment-cache hits) go into
``BENCH_simspeed.json``, whose every leaf ``tools/pinned.py`` pins
exactly — a broken segment cache shows up as ``session_runs_wasted >
0`` and fails the same way on every machine.  Host seconds are not
recorded here: the ``fleet-shared`` workload of ``bench/`` (20 000
devices through this same core) is the calibrated, paired measurement
of ``wall_s``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.fleet import (FleetScheduler, PoolOptions, ServerPool,
                         identical_devices)
from repro.runtime import FAST_WIFI
from repro.workloads import workload

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_simspeed.json"

SEED = 0
SPACING_S = 0.002
#: Uncontended pool: one server with ample slots, so every device sees
#: the same (zero-queue) admission script and the segment cache shares
#: all interpreter work.  Contended-pool *behavior* is BENCH_fleet.json
#: territory; this file measures the simulator itself.
POOL = dict(servers=1, capacity=64, queue_limit=8)
INVOCATIONS_PER_DEVICE = 3

EVENT_SIZES = [10, 100, 1000, 10000]

#: The built-in three-invocation hot kernel on a small input.
SIM_STDIN = b"150\n"
MICRO = dataclasses.replace(workload("fleet-micro"),
                            profile_stdin=SIM_STDIN, eval_stdin=SIM_STDIN)


@pytest.fixture(scope="module")
def compiled():
    built = MICRO.build()
    return built.program, built.local()


def _specs(program, devices: int):
    return identical_devices(devices, program, FAST_WIFI,
                             stdin=SIM_STDIN, spacing_s=SPACING_S,
                             seed=SEED)


def _measure(program, devices: int):
    scheduler = FleetScheduler(_specs(program, devices),
                               ServerPool(PoolOptions(**POOL)))
    result = scheduler.run()
    invocations = sum(len(d.result.invocations) for d in result.devices)
    stats = scheduler.replay.stats()
    point = {
        "devices": devices,
        "invocations": invocations,
        # Deterministic (gated): simulation output must not drift.
        "makespan_s": result.makespan_s,
        # Deterministic (gated): replays beyond the k+1 theoretical
        # minimum mean the segment cache broke.
        "session_runs_wasted": (stats["session_runs"]
                                - (INVOCATIONS_PER_DEVICE + 1)),
        "segment_cache_hits": stats["shared_hits"],
    }
    return point, result


def test_sim_speed_sweep(compiled):
    program, local = compiled

    event_points = {}
    for n in EVENT_SIZES:
        point, result = _measure(program, n)
        # Spot-check correctness on the cheapest fleet only — verifying
        # 10k stdouts would dominate the measurement.
        if n == EVENT_SIZES[0]:
            assert not result.differences(local.output)
        assert point["session_runs_wasted"] == 0, \
            f"segment cache broke at {n} devices: {point}"
        event_points[str(n)] = point

    payload = {
        "workload": "sim-speed (3x crunch per device, uncontended pool)",
        "network": "802.11ac",
        "seed": SEED,
        "spacing_s": SPACING_S,
        "pool": dict(POOL),
        # The shrunk sweep is gone; the key stays until the next
        # deliberate re-baseline of the pinned file.
        "smoke": False,
        "event": event_points,
    }

    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

"""Simulator-scale benchmark: the event-driven fleet core swept to 10k
devices (docs/simulator.md).

The sweep records what makes that scale affordable, all of it
deterministic: the simulated makespan and the replay accounting (session
runs beyond the theoretical minimum, segment-cache hits) go into
``BENCH_simspeed.json`` and CI gates them via ``python -m repro report
--bench`` — a broken segment cache shows up as ``session_runs_wasted >
0`` and fails the same way on every machine.  Host seconds are not
recorded here: the ``fleet-shared`` workload of ``bench/`` (20 000
devices through this same core) is the calibrated, paired measurement
of ``wall_s``.

``SIM_SPEED_SMOKE=1`` shrinks the sweep for the CI smoke job;
``SIM_SPEED_OUT`` redirects the output file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.fleet import (DeviceSpec, FleetScheduler, PoolOptions,
                         SeedFanout, ServerPool, arrival_offsets)
from repro.frontend import compile_c
from repro.offload import CompilerOptions, NativeOffloaderCompiler
from repro.profiler import profile_module
from repro.runtime import FAST_WIFI, run_local

SMOKE = bool(os.environ.get("SIM_SPEED_SMOKE"))
RESULT_PATH = Path(os.environ.get(
    "SIM_SPEED_OUT",
    Path(__file__).resolve().parent.parent / "BENCH_simspeed.json"))

SEED = 0
SPACING_S = 0.002
#: Uncontended pool: one server with ample slots, so every device sees
#: the same (zero-queue) admission script and the segment cache shares
#: all interpreter work.  Contended-pool *behavior* is BENCH_fleet.json
#: territory; this file measures the simulator itself.
POOL = dict(servers=1, capacity=64, queue_limit=8)
INVOCATIONS_PER_DEVICE = 3

EVENT_SIZES = [10, 100] if SMOKE else [10, 100, 1000, 10000]

SIM_SRC = r"""
int *data;
int n;

int crunch(void) {
    int i, r, acc = 0;
    for (r = 0; r < 40; r++) {
        for (i = 0; i < n; i++) {
            acc += (data[i] * 31 + r) ^ (acc >> 3);
        }
    }
    return acc;
}

int main() {
    int i, k;
    scanf("%d", &n);
    data = (int*) malloc(n * sizeof(int));
    for (i = 0; i < n; i++) data[i] = i * 7 + 3;
    for (k = 0; k < 3; k++) printf("crunched %d\n", crunch());
    return 0;
}
"""
SIM_STDIN = b"150\n"


@pytest.fixture(scope="module")
def compiled():
    module = compile_c(SIM_SRC, "sim-speed")
    profile = profile_module(module, stdin=SIM_STDIN)
    program = NativeOffloaderCompiler(
        CompilerOptions(forced_targets=["crunch"])).compile(
            module, profile)
    local = run_local(module, stdin=SIM_STDIN)
    return program, local


def _specs(program, devices: int):
    fan = SeedFanout(SEED)
    offsets = arrival_offsets("uniform", devices, SPACING_S,
                              fan.rng("arrivals"))
    return [DeviceSpec(device_id=f"dev{i:05d}", program=program,
                       network=FAST_WIFI, stdin=SIM_STDIN,
                       start_offset_s=offsets[i])
            for i in range(devices)]


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
            assert all(d.result.stdout == local.stdout
                       for d in result.devices)
        assert point["session_runs_wasted"] == 0, \
            f"segment cache broke at {n} devices: {point}"
        event_points[str(n)] = point

    payload = {
        "workload": "sim-speed (3x crunch per device, uncontended pool)",
        "network": "802.11ac",
        "seed": SEED,
        "spacing_s": SPACING_S,
        "pool": dict(POOL),
        "smoke": SMOKE,
        "event": event_points,
    }

    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

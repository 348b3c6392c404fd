"""Scatter/gather parallel-offload benchmark (docs/parallel-offload.md).

One device runs a data-parallel kernel against a four-server pool with
growing ``--shards``; per k the sweep records the offload invocation's
charged wall latency (trace-span derived — the same aggregation the
report uses), the parallel vs serial exec seconds and the gang fan-out
into ``BENCH_parallel.json``.  The ISSUE 9 acceptance bar: some k >= 2
plan beats the k=1 single-server invocation latency by >= 1.5x, with
program output byte-identical throughout — including under an injected
shard fault whose straggler range replays locally.

Every leaf is simulation output (no wall-clock keys), and
``tools/pinned.py`` regenerates the file and pins each leaf exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.fleet import (DeviceSpec, FleetScheduler, PoolOptions,
                         ServerPool)
from repro.runtime import FAST_WIFI, SessionOptions
from repro.trace.analysis import reconstruct_sessions
from repro.trace.analysis.critical_path import attribute_session
from repro.workloads import workload

from conftest import run_once

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

SERVERS = 4
SHARD_COUNTS = [1, 2, 4]
SPEEDUP_BAR = 1.5

# The built-in data-parallel kernel: one flat loop with enough
# per-element arithmetic that server exec dominates the transfer — the
# shape the shard analyzer accepts and the scatter actually pays off on.
MICRO = workload("parallel-micro")
PARALLEL_STDIN = MICRO.eval_stdin
TRIP_COUNT = 4000


@pytest.fixture(scope="module")
def compiled():
    built = MICRO.build()
    return built.program, built.local()


def _run(program, options: SessionOptions):
    spec = DeviceSpec(device_id="dev00", program=program,
                      network=FAST_WIFI, stdin=PARALLEL_STDIN,
                      options=options)
    pool = ServerPool(PoolOptions(servers=SERVERS, capacity=1))
    return FleetScheduler([spec], pool).run()


def _invocation_latency_s(result) -> float:
    """Charged wall seconds of the (one) offloaded smooth invocation,
    from the same span aggregation the report uses."""
    sessions = reconstruct_sessions(list(result.merged_events()))
    paths = [p for s in sessions for p in attribute_session(s)
             if p.status == "offloaded" and "smooth" in p.target]
    assert len(paths) == 1, paths
    return paths[0].total_seconds


def _point(result, shards: int) -> dict:
    record = max((r for d in result.devices
                  for r in d.result.invocations),
                 key=lambda r: r.shards)
    detail = result.summary()["servers_detail"]
    return {
        "shards": record.shards,
        "requested_shards": shards,
        "invocation_latency_s": _invocation_latency_s(result),
        "exec_wall_s": (record.shard_wall_seconds
                        if record.shards > 1 else record.server_seconds),
        "exec_serial_s": record.server_seconds,
        "shard_sizes": list(record.shard_sizes or []),
        "gang_shard_admissions": sum(r["shard_admissions"]
                                     for r in detail),
        "session_total_s": result.devices[0].result.total_seconds,
    }


def test_parallel_offload_speedup(benchmark, compiled):
    program, local = compiled

    def sweep():
        return [(k, _run(program,
                         SessionOptions(shards=k, enable_tracing=True)))
                for k in SHARD_COUNTS]

    results = run_once(benchmark, sweep)

    points = []
    for k, result in results:
        assert not result.differences(local.output), \
            f"k={k}: device output diverged from local run"
        points.append(_point(result, k))

    base = points[0]["invocation_latency_s"]
    for point in points:
        point["speedup"] = base / point["invocation_latency_s"]

    # The tentpole bar: some k >= 2 plan beats the single-server
    # invocation latency by >= 1.5x on this pool.
    best = max(p["speedup"] for p in points if p["requested_shards"] > 1)
    assert best >= SPEEDUP_BAR, \
        f"no plan reached {SPEEDUP_BAR}x: {points}"
    # Parallel exec wall must genuinely shrink below the serial sum.
    for point in points:
        if point["shards"] > 1:
            assert point["exec_wall_s"] < point["exec_serial_s"], point

    # Fault resilience rides along: an injected shard fault replays the
    # lost range locally and the program output cannot change.
    faulted = _run(program, SessionOptions(shards=4, shard_faults=(1,),
                                           enable_tracing=True))
    assert not faulted.differences(local.output), \
        "shard fault changed program output"
    frecord = max((r for d in faulted.devices
                   for r in d.result.invocations),
                  key=lambda r: r.shards)
    fault_point = {
        "shards": frecord.shards,
        "faults": [1],
        "stragglers": frecord.stragglers,
        "replay_seconds": frecord.local_seconds,
        "invocation_latency_s": _invocation_latency_s(faulted),
    }
    assert frecord.stragglers == 1, fault_point

    payload = {
        "workload": "parallel-bench (one smooth plan per device)",
        "network": "802.11ac",
        "servers": SERVERS,
        "capacity": 1,
        "trip_count": TRIP_COUNT,
        "speedup_bar": SPEEDUP_BAR,
        "sweep": points,
        "fault_replay": fault_point,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

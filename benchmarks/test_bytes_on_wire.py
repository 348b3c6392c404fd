"""Bytes-on-wire benchmark for the incremental UVA data plane
(docs/uva-data-plane.md).

A multi-invocation workload — the same hot function offloaded five
times with small working-set churn between calls — runs once with the
naive data plane (blanket invalidation, whole-page transfers) and once
with the cross-invocation page cache + sub-page deltas + adaptive
prefetch.  The run asserts the ISSUE acceptance bar (total UVA bytes on
the wire drop >= 40% with identical program output) and writes the
before/after numbers to ``BENCH_uva.json`` so the perf trajectory is
machine-readable across PRs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import WorkloadSpec
from repro.runtime import FAST_WIFI, SessionOptions

from conftest import run_once

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_uva.json"

# Acceptance bar: the incremental data plane must cut total UVA traffic
# by at least this fraction on the multi-invocation workload.
MIN_REDUCTION = 0.40

# Five offloads of ``crunch`` with a few words of churn between calls.
# ``forced_targets`` pins the offload target to the function itself so
# each call is a separate invocation (the outliner would otherwise lift
# main's loop and fuse all five into one).
MULTI_SRC = r"""
int *buf;
int n;

int crunch(int salt) {
    int i, r, acc = 0;
    for (r = 0; r < 8; r++) {
        for (i = 0; i < n; i++) {
            acc += ((buf[i] ^ salt) * (i & 7)) + (acc >> 5);
        }
    }
    for (i = 0; i < 64; i++) {
        buf[i] = acc + i;
    }
    return acc;
}

int main() {
    int i, k, total = 0;
    scanf("%d", &n);
    buf = (int*) malloc(n * sizeof(int));
    for (i = 0; i < n; i++) buf[i] = i * 2654435761u;
    for (k = 0; k < 5; k++) {
        buf[100 + k] = buf[100 + k] ^ (k * 97);
        total = total ^ crunch(k);
        printf("%d %d\n", k, total);
    }
    printf("total=%d\n", total);
    return 0;
}
"""
MULTI_STDIN = b"6000\n"


@pytest.fixture(scope="module")
def compiled():
    built = WorkloadSpec(name="multi", description="", source=MULTI_SRC,
                         profile_stdin=MULTI_STDIN, eval_stdin=MULTI_STDIN,
                         forced_targets=("crunch",)).build()
    return built, built.local()


def run_variant(built, incremental: bool):
    options = SessionOptions(enable_dynamic_estimation=False,
                             enable_incremental_uva=incremental)
    return built.session(FAST_WIFI, options).run()


def summarize(result) -> dict:
    us = result.uva_stats
    return {
        "bytes_to_server": result.bytes_to_server,
        "bytes_to_mobile": result.bytes_to_mobile,
        "bytes_total": result.bytes_to_server + result.bytes_to_mobile,
        "cod_faults": us.cod_faults,
        "prefetched_pages": us.prefetched_pages,
        "cache_kept_pages": us.cache_kept_pages,
        "cache_skipped_prefetch_pages": us.cache_skipped_prefetch_pages,
        "delta_saved_bytes": us.delta_saved_bytes,
        "prefetch_hit_rate": round(us.prefetch_hit_ratio, 4),
        "simulated_seconds": round(result.total_seconds, 6),
        "offloaded_invocations": result.offloaded_invocations,
        "invocations": len(result.invocations),
    }


def test_incremental_data_plane_cuts_bytes_on_wire(benchmark, compiled):
    built, local = compiled

    def both():
        return run_variant(built, False), run_variant(built, True)

    naive, incremental = run_once(benchmark, both)
    assert naive.output == local.output
    assert incremental.output == local.output

    before = summarize(naive)
    after = summarize(incremental)
    reduction = 1.0 - after["bytes_total"] / before["bytes_total"]
    assert reduction >= MIN_REDUCTION, (
        f"bytes-on-wire reduction {reduction:.1%} below the "
        f"{MIN_REDUCTION:.0%} bar (naive {before['bytes_total']}, "
        f"incremental {after['bytes_total']})")
    # the win must not come at the cost of simulated wall time
    assert after["simulated_seconds"] <= before["simulated_seconds"] * 1.01

    record = {
        "workload": "multi-invocation crunch (5 offloads, n=6000)",
        "network": "802.11ac",
        "naive": before,
        "incremental": after,
        "reduction": round(reduction, 4),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

"""Ablation A2 — the runtime's communication optimizations on/off:
prefetch, batching, compression, copy-on-demand (paper, Section 4).
"""

import pytest

from repro.runtime import SLOW_WIFI, SessionOptions

from conftest import build_on_profiling_input, run_once

NAME = "164.gzip"   # the heaviest-traffic program


@pytest.fixture(scope="module")
def compiled():
    built = build_on_profiling_input(NAME)
    return built, built.local()


def run_with(compiled, **flags):
    built, local = compiled
    options = SessionOptions(enable_dynamic_estimation=False, **flags)
    result = built.session(SLOW_WIFI, options).run()
    assert result.output == local.output  # every variant stays correct
    return result


def test_baseline_all_optimizations(benchmark, compiled):
    result = run_once(benchmark, run_with, compiled)
    assert result.offloaded_invocations >= 1


def test_compression_reduces_time_and_bytes(benchmark, compiled):
    def compare():
        on = run_with(compiled, enable_compression=True)
        off = run_with(compiled, enable_compression=False)
        return on, off
    on, off = run_once(benchmark, compare)
    assert on.compression_saved_bytes > 0
    assert on.comm_seconds < off.comm_seconds


def test_batching_reduces_time(benchmark, compiled):
    def compare():
        on = run_with(compiled, enable_batching=True)
        off = run_with(compiled, enable_batching=False)
        return on, off
    on, off = run_once(benchmark, compare)
    assert on.comm_seconds <= off.comm_seconds


def test_prefetch_avoids_cod_round_trips(benchmark, compiled):
    def compare():
        on = run_with(compiled, enable_prefetch=True)
        off = run_with(compiled, enable_prefetch=False)
        return on, off
    on, off = run_once(benchmark, compare)
    assert off.cod_faults > on.cod_faults
    # every fault is a round trip: pure-CoD sharing costs more time
    assert off.total_seconds > on.total_seconds


def test_cod_without_prefetch_still_correct(benchmark, compiled):
    """Copy-on-demand alone (no prefetch) moves exactly the pages the
    server touches — correctness holds, page count is bounded by the
    prefetch set."""
    def compare():
        pf = run_with(compiled, enable_prefetch=True)
        cod = run_with(compiled, enable_prefetch=False)
        return pf, cod
    pf, cod = run_once(benchmark, compare)
    assert cod.bytes_to_server <= pf.bytes_to_server * 1.05

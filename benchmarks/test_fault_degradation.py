"""Fault-degradation sweeps (docs/fault-model.md).

Two communication-heavy workloads — 164.gzip (heaviest traffic) and
300.twolf (remote-I/O heavy) — run over a fault-injected link at rising
severity.  Two properties are asserted:

* degradation is graceful: total time rises (monotonically-ish, small
  seeded noise allowed) with drop-rate severity, and output stays
  byte-identical to local at every point;
* failure is bounded: under a link that is dead from the first message,
  every workload falls back to local execution and finishes no worse
  than the local-only baseline plus the transport's bounded retry
  budget — a dead link can cost a timeout, never a hang or a wrong
  answer.
"""

import pytest

from repro.runtime import FAST_WIFI, FaultPlan, RetryPolicy, SessionOptions

from conftest import build_on_profiling_input, run_once

WORKLOADS = ("164.gzip", "300.twolf")

DROP_SWEEP = (0.0, 0.3, 0.6, 0.9)
# seeded runs are deterministic but one schedule can be slightly lucky;
# allow a small non-monotonic dip between adjacent severities
MONOTONIC_SLACK = 0.98


@pytest.fixture(scope="module", params=WORKLOADS)
def compiled(request):
    built = build_on_profiling_input(request.param)
    return built, built.local()


def run_with(compiled, fault_plan=None, retry_policy=None):
    built, local = compiled
    options = SessionOptions(enable_dynamic_estimation=False,
                             fault_plan=fault_plan,
                             retry_policy=retry_policy)
    result = built.session(FAST_WIFI, options).run()
    # semantics survive every fault schedule
    assert result.output == local.output
    return result


def test_drop_rate_degrades_gracefully(benchmark, compiled):
    """Rising transient-loss rates cost retries, timeouts and backoff —
    total time grows with severity and the retry counters grow strictly."""
    def sweep():
        results = []
        for rate in DROP_SWEEP:
            plan = (FaultPlan(seed=13, drop_rate=rate) if rate else None)
            # a generous retry budget: the sweep measures degradation,
            # not abort behavior
            results.append(run_with(
                compiled, fault_plan=plan,
                retry_policy=RetryPolicy(max_attempts=25)))
        return results
    results = run_once(benchmark, sweep)
    times = [r.total_seconds for r in results]
    retries = [r.transport_stats.retries for r in results]
    for prev, cur in zip(times, times[1:]):
        assert cur >= prev * MONOTONIC_SLACK
    assert times[-1] > times[0]           # severe loss is clearly slower
    assert retries == sorted(retries)     # retry work rises with severity
    assert retries[0] == 0 and retries[-1] > retries[1]


def test_disconnect_severity_sweep(benchmark, compiled):
    """Mid-invocation disconnects at different points (init, exec,
    finalize) all abort cleanly; the earlier the link dies, the less
    offload work completes, and output is always identical to local."""
    def sweep():
        results = []
        for after in (0, 1, 2, 4, 8):
            plan = FaultPlan(seed=5, disconnect_after_messages=after)
            results.append(run_with(compiled, fault_plan=plan))
        return results
    results = run_once(benchmark, sweep)
    for res in results:
        # every aborted invocation was replayed locally
        assert res.local_fallbacks == res.aborted_invocations
    # the link dead from message zero aborts the very first attempt
    assert results[0].aborted_invocations >= 1
    assert results[0].offloaded_invocations == 0


def test_dead_link_bounded_by_local_baseline(benchmark, compiled):
    """A link that never delivers costs the local-only time plus the
    transport's bounded retry budget — never a hang, never more than
    the budget, and bit-for-bit the local output."""
    _, local = compiled
    policy = RetryPolicy()

    def run_dead():
        return run_with(
            compiled,
            fault_plan=FaultPlan(disconnect_after_messages=0),
            retry_policy=policy)
    dead = run_once(benchmark, run_dead)
    assert dead.offloaded_invocations == 0
    assert dead.aborted_invocations >= 1
    assert dead.local_fallbacks == dead.aborted_invocations
    # bounded waste: each abort burns at most the retry budget of its
    # largest possible message — conservatively bounded by the time of
    # one message carrying the session's entire upload traffic
    upload_bound = FAST_WIFI.one_way_time(
        dead.bytes_to_server + dead.bytes_to_mobile + 1_000_000)
    budget = dead.aborted_invocations * policy.max_delivery_seconds(
        upload_bound)
    assert dead.wasted_seconds <= budget
    # ... and the wall clock is the local baseline plus that waste
    # (small slack for per-invocation dispatch overhead)
    assert dead.total_seconds <= (local.seconds + dead.wasted_seconds) * 1.05
    assert dead.total_seconds >= local.seconds

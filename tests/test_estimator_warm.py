"""Traffic coverage for both estimators (docs/uva-data-plane.md): the
static estimator's per-invocation Equation 1 and the dynamic estimator's
cold/warm traffic split, including the post-abort cold restart."""

from __future__ import annotations

import pytest

from repro.offload.estimator import EstimatorParams, mbps
from repro.offload.partition import OffloadTarget
from repro.profiler.profile_data import CandidateProfile, ProfileData
from repro.runtime import DynamicPerformanceEstimator, FAST_WIFI


def _candidate(seconds=1.0, invocations=1, mem_bytes=64 * 1024):
    prof = CandidateProfile("t", "function", "t")
    prof.total_seconds = seconds
    prof.invocations = invocations
    prof.pages_touched = set(range(max(1, mem_bytes // 4096)))
    return prof


def _profile(seconds=1.0, invocations=1, mem_bytes=64 * 1024):
    prof = _candidate(seconds, invocations, mem_bytes)
    return ProfileData(module_name="m", arch_name="arm32",
                       program_seconds=seconds, candidates={"t": prof})


class TestStaticWarmFraction:
    """The static estimator has no warm discount: Equation 1 as the
    paper states it."""

    def _estimator(self):
        return EstimatorParams(
            performance_ratio=4.0, bandwidth_bytes_per_s=mbps(200))

    def test_default_is_the_papers_equation(self):
        cand = _candidate(invocations=5)
        out = self._estimator().estimate(cand)
        # every invocation pays the full 2M/BW
        assert out.t_comm == pytest.approx(
            2.0 * cand.memory_bytes / mbps(200) * 5)

    def test_single_invocation_pays_full_cold_cost(self):
        cand = _candidate(invocations=1)
        assert self._estimator().estimate(cand).t_comm == \
            pytest.approx(2.0 * cand.memory_bytes / mbps(200))

    def test_zero_invocations_zero_comm(self):
        out = self._estimator().estimate(_candidate(invocations=0))
        # nothing ever crosses the wire, so the gain is pure t_ideal
        assert out.t_comm == 0.0
        assert out.gain == pytest.approx(out.t_ideal)


class TestDynamicWarmSplit:
    def _estimator(self):
        return DynamicPerformanceEstimator(_profile(), 4.0, FAST_WIFI)

    def test_first_invocation_uses_profiled_memory(self):
        est = self._estimator()
        out = est.estimate(OffloadTarget(1, "t", "function"))
        assert est.state["t"].observed_traffic_bytes is None
        assert out.memory_bytes == pytest.approx(64 * 1024)

    def test_first_observation_is_the_cold_figure(self):
        est = self._estimator()
        est.record_offload_traffic("t", 100_000.0)
        state = est.state["t"]
        assert state.observed_traffic_bytes == 100_000.0
        assert state.warm_traffic_bytes is None
        # with no warm figure yet, estimates still use the cold one
        out = est.estimate(OffloadTarget(1, "t", "function"))
        assert out.memory_bytes == pytest.approx(100_000.0)

    def test_warm_figure_preferred_and_smoothed(self):
        est = self._estimator()
        est.record_offload_traffic("t", 100_000.0)   # cold
        est.record_offload_traffic("t", 10_000.0)    # first warm
        out = est.estimate(OffloadTarget(1, "t", "function"))
        assert out.memory_bytes == pytest.approx(10_000.0)
        est.record_offload_traffic("t", 20_000.0)    # smoothed 0.5/0.5
        out = est.estimate(OffloadTarget(1, "t", "function"))
        assert out.memory_bytes == pytest.approx(15_000.0)

    def test_post_abort_cold_restart_refreshes_cold_figure(self):
        """An abort purges the page cache, so the next success ships
        cold traffic again; it must replace the cold figure, not drag
        the warm EWMA toward cold volumes."""
        est = self._estimator()
        est.record_offload_traffic("t", 100_000.0)   # cold
        est.record_offload_traffic("t", 10_000.0)    # warm
        est.record_offload_failure("t")
        state = est.state["t"]
        assert state.cold_restart
        est.record_offload_traffic("t", 120_000.0)   # cold again
        assert state.observed_traffic_bytes == 120_000.0
        assert state.warm_traffic_bytes == pytest.approx(10_000.0)
        assert not state.cold_restart
        # the next observation goes back into warm smoothing
        est.record_offload_traffic("t", 12_000.0)
        assert state.warm_traffic_bytes == pytest.approx(11_000.0)

    def test_success_clears_failure_backoff(self):
        est = self._estimator()
        est.record_offload_failure("t")
        state = est.state["t"]
        assert state.cooldown == 1
        est.record_offload_traffic("t", 50_000.0)
        assert state.failures == 0
        assert state.cooldown == 0

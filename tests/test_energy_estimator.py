"""Tests for the power/energy model and the dynamic performance
estimator."""

import pytest

from repro.machine import (DEFAULT_POWER_MW, EnergyMeter, PowerTrace,
                           TRANSMIT_MAX_MW)
from repro.offload.partition import OffloadTarget
from repro.profiler.profile_data import CandidateProfile, ProfileData
from repro.runtime import (DynamicPerformanceEstimator, FAST_WIFI,
                           FaultPlan, IDEAL_NETWORK, SessionOptions,
                           SLOW_WIFI)

from conftest import offload_c


class TestPowerTrace:
    def test_energy_integration(self):
        trace = PowerTrace()
        trace.record(0.0, 1.0, "compute", 3000.0)
        trace.record(1.0, 3.0, "wait", 1350.0)
        assert trace.total_energy_mj == pytest.approx(3000 + 2 * 1350)
        assert trace.duration == 3.0

    def test_zero_length_intervals_dropped(self):
        trace = PowerTrace()
        trace.record(1.0, 1.0, "idle", 300.0)
        assert not trace.intervals

    def test_backwards_interval_rejected(self):
        trace = PowerTrace()
        with pytest.raises(ValueError):
            trace.record(2.0, 1.0, "idle", 300.0)

    def test_sampling(self):
        trace = PowerTrace()
        trace.record(0.0, 0.1, "compute", 3000.0)
        trace.record(0.1, 0.2, "wait", 1350.0)
        samples = trace.sample(0.05)
        assert samples[0] == (0.0, 3000.0)
        powers = [p for _, p in samples]
        assert 1350.0 in powers

    def test_energy_by_state(self):
        trace = PowerTrace()
        trace.record(0.0, 1.0, "compute", 3000.0)
        trace.record(1.0, 2.0, "compute", 3000.0)
        trace.record(2.0, 3.0, "receive", 2000.0)
        by_state = trace.energy_by_state()
        assert by_state["compute"] == pytest.approx(6000)
        assert by_state["receive"] == pytest.approx(2000)


class TestEnergyMeter:
    def test_default_states_from_paper(self):
        meter = EnergyMeter()
        assert meter.power_of("idle") == 300.0
        assert meter.power_of("wait") == 1350.0
        assert meter.power_of("receive") == 2000.0

    def test_transmit_power_scales_with_utilization(self):
        meter = EnergyMeter()
        low = meter.transmit_power(0.0, slow_network=False)
        high = meter.transmit_power(1.0, slow_network=False)
        assert low == DEFAULT_POWER_MW["transmit_fast"]
        assert high == TRANSMIT_MAX_MW

    def test_slow_network_transmit_floor_lower(self):
        # Figure 8(c): the slow radio draws less per unit time
        meter = EnergyMeter()
        assert meter.transmit_power(0.2, slow_network=True) < \
            meter.transmit_power(0.2, slow_network=False)

    def test_charge_accumulates(self):
        meter = EnergyMeter()
        e = meter.charge(0.0, 2.0, "wait")
        assert e == pytest.approx(2700.0)
        assert meter.total_energy_mj == pytest.approx(2700.0)

    def test_unknown_state_rejected(self):
        with pytest.raises(KeyError):
            EnergyMeter().power_of("warp_drive")


def _profile_with(name, seconds, invocations, mem_bytes):
    prof = CandidateProfile(name, "function", name)
    prof.total_seconds = seconds
    prof.invocations = invocations
    prof.pages_touched = set(range(max(1, mem_bytes // 4096)))
    data = ProfileData(module_name="m", arch_name="arm32",
                       program_seconds=seconds,
                       candidates={name: prof})
    return data


# The phone rewrites ``data`` before each of four offloads and the server
# rewrites it in place, so every invocation moves pages both ways.  The
# scanf keeps the driving loop on the phone.
REWRITTEN_KERNEL_SRC = r"""
int *data;
int n;

int crunch(void) {
    int i, r, acc = 0;
    for (r = 0; r < 40; r++) {
        for (i = 0; i < n; i++) {
            acc += (data[i] * 31 + r) ^ (acc >> 3);
            data[i] = acc;
        }
    }
    return acc;
}

int main() {
    int i, k, seed;
    scanf("%d", &n);
    data = (int*) malloc(n * sizeof(int));
    for (k = 0; k < 4; k++) {
        scanf("%d", &seed);
        for (i = 0; i < n; i++) data[i] = i * seed + k;
        printf("crunched %d\n", crunch());
    }
    return 0;
}
"""


class TestDynamicEstimator:
    def test_compute_bound_offloads_everywhere(self):
        data = _profile_with("t", 1.0, 1, 64 * 1024)
        target = OffloadTarget(1, "t", "function")
        for network in (SLOW_WIFI, FAST_WIFI, IDEAL_NETWORK):
            est = DynamicPerformanceEstimator(data, 5.8, network)
            assert est.decide(target)[0]

    def test_comm_bound_declines_on_slow(self):
        # 10 ms of compute, 150 KB of state: loses on 10 MB/s (slow),
        # wins on 52.5 MB/s (fast)
        data = _profile_with("t", 0.010, 1, 150 * 1024)
        target = OffloadTarget(1, "t", "function")
        slow = DynamicPerformanceEstimator(data, 5.8, SLOW_WIFI)
        fast = DynamicPerformanceEstimator(data, 5.8, FAST_WIFI)
        assert not slow.decide(target)[0]
        assert fast.decide(target)[0]

    def test_observed_local_time_overrides_profile(self):
        data = _profile_with("t", 0.001, 1, 2 * 1024 * 1024)
        target = OffloadTarget(1, "t", "function")
        est = DynamicPerformanceEstimator(data, 5.8, FAST_WIFI)
        assert not est.decide(target)[0]
        est.record_local_time("t", 1.0)  # observed: much heavier
        assert est.decide(target)[0]

    def test_observed_traffic_overrides_profile(self):
        data = _profile_with("t", 0.050, 1, 4096)
        target = OffloadTarget(1, "t", "function")
        est = DynamicPerformanceEstimator(data, 5.8, SLOW_WIFI)
        assert est.decide(target)[0]
        est.record_offload_traffic("t", 50 * 1024 * 1024)
        assert not est.decide(target)[0]

    def test_gain_formula_matches_equation_one(self):
        data = _profile_with("t", 10.0, 1, 0)
        data.candidates["t"].pages_touched = set(range(
            12_000_000 // 4096))
        target = OffloadTarget(1, "t", "function")
        est = DynamicPerformanceEstimator(
            data, 5.0, SLOW_WIFI)  # 10 MB/s
        gain = est.estimate(target).gain
        mem = data.candidates["t"].memory_bytes
        expected = 10.0 * (1 - 1 / 5.0) - 2 * mem / 10e6
        assert gain == pytest.approx(expected)

    def test_equation_one_prices_the_nominal_bandwidth_on_a_collapsed_link(
            self):
        """Equation 1's bandwidth is the link's nominal rate on every
        invocation, however slow the transfers it has already seen."""
        _, result, _ = offload_c(
            REWRITTEN_KERNEL_SRC, stdin=b"1000 3 5 7 11", network=FAST_WIFI,
            session_options=SessionOptions(
                enable_tracing=True,
                fault_plan=FaultPlan(bandwidth_factor=0.25)))
        assert result.offloaded_invocations == 4
        decisions = [event for event in result.trace_events()
                     if event.category == "decision"]
        assert len(decisions) == 4
        assert {event.payload["bandwidth_bytes_per_s"]
                for event in decisions} == {FAST_WIFI.bandwidth_bytes_per_s}

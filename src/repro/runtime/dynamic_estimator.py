"""Dynamic performance estimation (paper, Sections 3.3 and 4).

Unlike the compile-time estimator, the runtime decides per invocation using
*current* conditions: the live network bandwidth, observed task execution
times and observed data volumes.  This is what lets Native Offloader
decline to offload 164.gzip-style tasks on a slow network instead of
suffering a slowdown (Figure 6, the ``*`` entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..offload.estimator import Estimate, equation1
from ..offload.partition import OffloadTarget
from ..profiler.profile_data import ProfileData
from .network import NetworkModel
from .transport import Transport

# After an aborted invocation the target sits out at most this many
# decisions, however many failures it has accumulated.
MAX_FAILURE_COOLDOWN = 8


@dataclass
class TargetRuntimeState:
    """Per-target observations refined as the program runs."""

    observed_local_seconds: Optional[float] = None
    observed_traffic_bytes: Optional[float] = None
    # Warm-path traffic: the incremental UVA data plane makes repeat
    # offloads much cheaper than the first (page cache + deltas), so the
    # first observation is kept apart as the cold figure and subsequent
    # invocations are smoothed here.  Estimates prefer the warm figure —
    # it is the one that predicts the *next* invocation.
    warm_traffic_bytes: Optional[float] = None
    # Link-failure awareness: aborted invocations put the target on an
    # exponentially growing decision cooldown (see record_offload_failure).
    failures: int = 0
    cooldown: int = 0
    # After an abort the next successful offload pays cold-path traffic
    # again (the abort rollback purged the page cache), so its volume
    # must replace the cold figure rather than pollute the warm EWMA.
    cold_restart: bool = False


class DynamicPerformanceEstimator:
    def __init__(self, profile: ProfileData,
                 performance_ratio: float,
                 network: NetworkModel,
                 transport: Optional[Transport] = None):
        self.profile = profile
        self.performance_ratio = performance_ratio
        self.network = network
        # Failure awareness: when the transport reports the link dead
        # with no prospect of reconnecting, every decision is a decline —
        # Equation 1 is moot on a link that cannot carry the traffic.
        self.transport = transport
        self.state: Dict[str, TargetRuntimeState] = {}
        # Contention awareness (fleet runs): observed queueing delay per
        # server id, EWMA-smoothed, plus the wait quoted by admission
        # rejections.  Both stay empty in single-session runs, keeping
        # t_queue identically zero there.
        self.queue_delay_ewma: Dict[int, float] = {}
        self.rejection_wait_ewma: Optional[float] = None
        # Heterogeneous-pool awareness (docs/placement.md): the speed
        # multiplier observed per server id, so Equation 1's compute
        # saving reflects the server the device actually lands on.
        # Empty outside fleet runs — the effective ratio is then the
        # base performance_ratio, bit-identically.
        self.server_speed: Dict[int, float] = {}

    def _state(self, name: str) -> TargetRuntimeState:
        return self.state.setdefault(name, TargetRuntimeState())

    # -- observations --------------------------------------------------
    def record_local_time(self, name: str, seconds: float) -> None:
        self._state(name).observed_local_seconds = seconds

    def record_offload_traffic(self, name: str, bytes_moved: float) -> None:
        state = self._state(name)
        # A completed offload proves the link carries traffic again.
        state.failures = 0
        state.cooldown = 0
        if state.cold_restart:
            # First success after an abort: the rollback purged the page
            # cache, so this volume is a cold figure — refresh it and
            # leave the warm EWMA describing steady-state invocations.
            state.observed_traffic_bytes = bytes_moved
            state.cold_restart = False
        elif state.observed_traffic_bytes is None:
            state.observed_traffic_bytes = bytes_moved
        elif state.warm_traffic_bytes is None:
            state.warm_traffic_bytes = bytes_moved
        else:  # exponential smoothing across warm invocations
            state.warm_traffic_bytes = (
                0.5 * state.warm_traffic_bytes + 0.5 * bytes_moved)

    def record_offload_failure(self, name: str) -> TargetRuntimeState:
        """An invocation of this target aborted on a dead link; sit out
        an exponentially growing number of decisions before retrying.
        Returns the target's state, whose backoff the abort reports."""
        state = self._state(name)
        state.failures += 1
        state.cold_restart = True
        state.cooldown = min(2 ** (state.failures - 1),
                             MAX_FAILURE_COOLDOWN)
        return state

    def record_queue_delay(self, server_id: int, seconds: float,
                           speed: float = 1.0) -> None:
        """One admission completed: fold the observed slot wait into the
        per-server EWMA (0 seconds is an observation too — it is how an
        idle pool talks a device back into offloading).  ``speed`` is
        the serving spec's multiplier; the latest observation wins
        because a server's speed is static for its lifetime."""
        self.server_speed[server_id] = speed
        prev = self.queue_delay_ewma.get(server_id)
        if prev is None:
            self.queue_delay_ewma[server_id] = seconds
        else:
            self.queue_delay_ewma[server_id] = 0.5 * prev + 0.5 * seconds

    def record_pool_rejection(self, estimated_wait_s: float) -> None:
        """The pool refused admission outright, quoting the wait it
        would have imposed; treat the quote as an observed delay."""
        if self.rejection_wait_ewma is None:
            self.rejection_wait_ewma = estimated_wait_s
        else:
            self.rejection_wait_ewma = (
                0.5 * self.rejection_wait_ewma + 0.5 * estimated_wait_s)

    def expected_queue_seconds(self) -> float:
        """The queueing-delay term of the generalized Equation 1.

        The dispatcher routes each request to the least-loaded server,
        so the expectation is the *best* per-server EWMA — but a pool
        that has been refusing admission is worse than its completed
        admissions suggest, so the rejection quote acts as a floor.
        """
        expected = 0.0
        if self.queue_delay_ewma:
            expected = min(self.queue_delay_ewma.values())
        if self.rejection_wait_ewma is not None:
            expected = max(expected, self.rejection_wait_ewma)
        return expected

    def plan_shard_sizes(self, total_iters: int, admissions) -> List[int]:
        """Resource-aware shard sizing for a scatter/gather plan (Elf's
        multi-offloading scheme; docs/parallel-offload.md).

        Each admitted server gets iterations proportional to its
        effective service rate: its speed multiplier damped by the
        queue-delay EWMA observed at that server (a saturated server is
        expected to start late, so it gets a proportionally smaller
        shard).  Apportionment is largest-remainder with a deterministic
        index tie-break, so same history + same admissions => same
        sizes.  A size may be 0 (the caller drops that shard and
        releases its admission immediately).
        """
        if total_iters <= 0 or not admissions:
            return [0 for _ in admissions]
        weights = []
        for admission in admissions:
            delay = max(self.queue_delay_ewma.get(
                admission.server_id, 0.0), 0.0)
            weights.append(max(admission.speed, 1e-9) / (1.0 + delay))
        total_weight = sum(weights)
        shares = [total_iters * w / total_weight for w in weights]
        sizes = [int(share) for share in shares]
        remainder = total_iters - sum(sizes)
        order = sorted(range(len(shares)),
                       key=lambda i: (-(shares[i] - sizes[i]), i))
        for i in order[:remainder]:
            sizes[i] += 1
        return sizes

    def expected_server_speed(self) -> float:
        """Speed multiplier of the server the next offload is expected
        to land on: the one behind the best queue-delay EWMA (the same
        server ``expected_queue_seconds`` bets on).  1.0 with no fleet
        history — the single-session no-op."""
        if not self.queue_delay_ewma:
            return 1.0
        best = min(self.queue_delay_ewma.items(),
                   key=lambda item: (item[1], item[0]))[0]
        return self.server_speed.get(best, 1.0)

    # -- the decision -------------------------------------------------
    def estimate(self, target: OffloadTarget) -> Estimate:
        """Per-invocation Equation 1 with run-time values: observed
        figures where there are any, profiled ones otherwise."""
        state = self._state(target.name)
        prof = self.profile.candidates.get(target.name)
        t_mobile = state.observed_local_seconds
        if t_mobile is None:
            t_mobile = (prof.seconds_per_invocation
                        if prof is not None and prof.invocations else 0.0)
        memory = (state.warm_traffic_bytes
                  if state.warm_traffic_bytes is not None
                  else state.observed_traffic_bytes)
        if memory is None:
            memory = float(prof.memory_bytes) if prof is not None else 0.0
        # The server the request is expected to land on may be faster
        # than the paper's reference (speed > 1); a 1.0 speed leaves
        # the ratio bit-identical to the single-server arithmetic.
        ratio = self.performance_ratio * self.expected_server_speed()
        return equation1(t_mobile, ratio, memory,
                         self.network.bandwidth_bytes_per_s,
                         t_queue=self.expected_queue_seconds())

    def decide(self, target: OffloadTarget
               ) -> Tuple[bool, str, Optional[Estimate]]:
        """``(offload, reason, estimate)`` for this invocation of
        ``target``; the estimate is None when the link or a failure
        backoff decided before Equation 1 was evaluated."""
        state = self._state(target.name)
        if self.transport is not None and not self.transport.usable:
            return False, "link_down", None
        if state.cooldown > 0:
            state.cooldown -= 1
            return False, "failure_backoff", None
        est = self.estimate(target)
        if est.gain > 0:
            return True, "positive_gain", est
        # Tell contention apart from a plain bad trade: the offload
        # would have paid off on an idle pool but the expected slot wait
        # eats the saving, so the device degrades to local execution.
        if est.t_queue > 0 and est.gain + est.t_queue > 0:
            return False, "queue_pressure", est
        return False, "negative_gain", est

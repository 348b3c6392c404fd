"""Wireless network models and the raw link medium.

The paper evaluates under two Wi-Fi environments: a slow 802.11n link
(144 Mbps nominal) and a fast 802.11ac link (844 Mbps nominal).  Effective
throughput of real Wi-Fi is well below nominal; the models below use
effective rates consistent with the paper's estimator example (80 Mbps for
the slow network, Table 3).

Two layers live here (docs/fault-model.md):

* :class:`NetworkModel` — the closed-form time model of one message on a
  healthy link.  Every message pays the link latency plus serialization
  of its payload *and* ``MESSAGE_HEADER_BYTES`` of protocol framing, so
  a zero-byte message is not free.
* :class:`Link` — the raw simulated medium used by
  :class:`repro.runtime.transport.Transport`: a :class:`NetworkModel`
  plus a seeded :class:`FaultPlan` injecting latency jitter, transient
  drops, hard disconnects and bandwidth collapse.  Every link holds a
  plan and transmits through one path; the empty plan draws nothing and
  its arithmetic reduces to :meth:`NetworkModel.one_way_time` exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

# Per-message protocol overhead.  Lives here (the medium) so that the
# time model and the wire-byte accounting of the communication manager
# agree on a single constant.
MESSAGE_HEADER_BYTES = 64


@dataclass(frozen=True)
class NetworkModel:
    """A symmetric wireless link."""

    name: str
    bandwidth_bps: float     # effective payload bandwidth, bits/second
    latency_s: float         # one-way latency per message
    slow: bool = False       # drives the transmit-power model (Fig. 8)

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.bandwidth_bps / 8.0

    def one_way_time(self, payload_bytes: int) -> float:
        """Latency + serialization for one message.

        Every message — including a zero-byte one — pays the link
        latency plus the serialization of ``MESSAGE_HEADER_BYTES`` of
        protocol framing: ``one_way_time(0) > latency_s`` on any finite link.
        """
        return (self.latency_s
                + (payload_bytes + MESSAGE_HEADER_BYTES)
                / self.bandwidth_bytes_per_s)

    def round_trip_time(self, request_bytes: int,
                        response_bytes: int) -> float:
        """Two messages, one each way; agrees with :meth:`one_way_time`
        (each direction pays its own latency and header)."""
        return (self.one_way_time(request_bytes)
                + self.one_way_time(response_bytes))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of link-level faults.

    All stochastic faults are driven by one ``random.Random(seed)``
    advanced per transmission attempt, so a (plan, message sequence)
    pair always reproduces the same fault schedule.  An empty plan (the
    default) is a strict no-op: it draws no random number, and the
    link's timing is bit-identical to the plain :class:`NetworkModel`
    formula (``latency + 0.0 == latency``, ``bandwidth * 1.0 ==
    bandwidth``).
    """

    seed: int = 0
    drop_rate: float = 0.0            # P(one attempt is silently lost)
    max_jitter_s: float = 0.0         # uniform extra latency [0, max)
    disconnect_after_messages: Optional[int] = None  # hard kill point
    disconnect_rate: float = 0.0      # P(one attempt kills the link)
    reconnect_rate: float = 0.0       # P(one reconnect attempt succeeds)
    bandwidth_factor: float = 1.0     # <1.0 models bandwidth collapse

    def __post_init__(self) -> None:
        for name in ("drop_rate", "disconnect_rate", "reconnect_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if self.max_jitter_s < 0.0:
            raise ValueError("max_jitter_s must be nonnegative")
        if self.bandwidth_factor <= 0.0:
            raise ValueError("bandwidth_factor must be positive")
        if (self.disconnect_after_messages is not None
                and self.disconnect_after_messages < 0):
            raise ValueError("disconnect_after_messages must be >= 0")

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return (self.drop_rate == 0.0
                and self.max_jitter_s == 0.0
                and self.disconnect_after_messages is None
                and self.disconnect_rate == 0.0
                and self.bandwidth_factor == 1.0)


NO_FAULTS = FaultPlan()


@dataclass(frozen=True)
class LinkAttempt:
    """The outcome of one transmission attempt on the raw medium."""

    delivered: bool
    seconds: float            # modeled medium time (0 when nothing moved)
    disconnected: bool = False


class Link:
    """The raw simulated medium: one :class:`NetworkModel` plus a
    :class:`FaultPlan` (``None`` is :data:`NO_FAULTS`).

    The link is *dumb*: it transmits, drops, jitters or dies, and it
    never retries — reliability is the transport layer's job
    (:class:`repro.runtime.transport.Transport`).
    """

    def __init__(self, network: NetworkModel,
                 plan: Optional[FaultPlan] = None):
        self.network = network
        self.plan = plan if plan is not None else NO_FAULTS
        self._rng = random.Random(self.plan.seed)
        self.alive = True
        self.attempts = 0
        self.disconnects = 0

    @property
    def faultless(self) -> bool:
        return self.plan.is_empty

    def expected_time(self, payload_bytes: int,
                      pipelined: bool = False,
                      overhead_s: float = 0.0) -> float:
        """The fault-free time of one attempt at the link's *current*
        effective bandwidth — what the transport sizes timeouts from."""
        net = self.network
        bandwidth = net.bandwidth_bytes_per_s * self.plan.bandwidth_factor
        if pipelined:
            return overhead_s + payload_bytes / bandwidth
        return (net.latency_s
                + (payload_bytes + MESSAGE_HEADER_BYTES) / bandwidth)

    def transmit(self, payload_bytes: int, pipelined: bool = False,
                 overhead_s: float = 0.0) -> LinkAttempt:
        """One transmission attempt.

        ``pipelined`` models an operation riding an established stream:
        no per-message latency or header, just a small fixed overhead —
        exactly the batched-output formula of the communication manager.
        Each fault kind draws only when its rate is set, so the empty
        plan consumes no randomness.
        """
        if not self.alive:
            return LinkAttempt(False, 0.0, disconnected=True)
        net, plan, rng = self.network, self.plan, self._rng
        self.attempts += 1
        if (plan.disconnect_after_messages is not None
                and self.attempts > plan.disconnect_after_messages):
            return self._kill()
        if plan.disconnect_rate and rng.random() < plan.disconnect_rate:
            return self._kill()
        if plan.drop_rate and rng.random() < plan.drop_rate:
            return LinkAttempt(False, 0.0)
        jitter = (rng.random() * plan.max_jitter_s
                  if plan.max_jitter_s else 0.0)
        bandwidth = net.bandwidth_bytes_per_s * plan.bandwidth_factor
        if pipelined:
            seconds = overhead_s + jitter + payload_bytes / bandwidth
        else:
            seconds = (net.latency_s + jitter
                       + (payload_bytes + MESSAGE_HEADER_BYTES) / bandwidth)
        return LinkAttempt(True, seconds)

    def _kill(self) -> LinkAttempt:
        self.alive = False
        self.disconnects += 1
        return LinkAttempt(False, 0.0, disconnected=True)

    def try_reconnect(self) -> bool:
        """One reconnect attempt; seeded like every other fault draw."""
        if self.alive:
            return True
        if not self.can_reconnect:
            return False
        if self._rng.random() < self.plan.reconnect_rate:
            self.alive = True
            return True
        return False

    @property
    def can_reconnect(self) -> bool:
        """Whether a dead link could ever come back: a reconnect rate is
        configured and the hard kill point has not been passed."""
        if self.plan.reconnect_rate <= 0.0:
            return False
        if (self.plan.disconnect_after_messages is not None
                and self.attempts > self.plan.disconnect_after_messages):
            return False
        return True


# 802.11n: 144 Mbps nominal -> ~80 Mbps effective (the paper's Table 3
# example bandwidth), higher latency.
SLOW_WIFI = NetworkModel("802.11n", bandwidth_bps=80e6, latency_s=2.0e-3,
                         slow=True)

# 802.11ac: 844 Mbps nominal -> ~420 Mbps effective.
FAST_WIFI = NetworkModel("802.11ac", bandwidth_bps=420e6, latency_s=1.0e-3,
                         slow=False)

# A distant cloud server reached over the WAN: similar bandwidth to the
# fast WLAN but ~25x the latency.  The paper's Section 6 cites Cloudlet:
# "the use of a nearby server instead of a cloud server that has higher
# latency and lower bandwidth" reduces communication latency — compare
# offloading over CLOUD_WAN against FAST_WIFI (the cloudlet).
CLOUD_WAN = NetworkModel("cloud-wan", bandwidth_bps=200e6,
                         latency_s=25e-3, slow=False)

# Overhead-free link for the "Ideal offloading" series of Figure 6.
IDEAL_NETWORK = NetworkModel("ideal", bandwidth_bps=1e18, latency_s=0.0,
                             slow=False)

NETWORKS = {net.name: net
            for net in (SLOW_WIFI, FAST_WIFI, CLOUD_WAN, IDEAL_NETWORK)}

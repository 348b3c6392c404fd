"""Reliable message transport over a faulty link.

The middle layer of the runtime communication stack
(docs/fault-model.md):

    Link (raw medium, fault injection)
      -> Transport (this module: per-message timeout, bounded retry with
         exponential backoff, reconnect)
        -> CommunicationManager (framing, batching, compression)

The transport turns the link's unreliable ``transmit`` into a
deliver-or-declare-dead primitive.  A transient drop costs one timeout
and one backoff wait, then the message is retried; a hard disconnect
triggers a bounded reconnect handshake.  When the retry or reconnect
budget is exhausted the transport raises :class:`LinkDownError` carrying
every simulated second burned on the failed delivery, so the session can
charge the wasted time to the timeline and the energy model before
falling back to local execution.

On a faultless link the transport is a strict pass-through: ``deliver``
returns exactly ``NetworkModel.one_way_time`` and consumes no
randomness, preserving the zero-fault no-op invariant (DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..trace import NULL_TRACER, Tracer
from .network import Link


class TransportError(RuntimeError):
    """Base class for transport-layer failures."""


class LinkDownError(TransportError):
    """The transport declared the link dead for one delivery.

    ``elapsed_seconds`` is the simulated time already burned on the
    failed delivery (timeouts, backoff waits, reconnect probes); the
    communication manager charges it to the session timeline before the
    error propagates up to :class:`repro.runtime.session.OffloadSession`,
    which aborts the invocation and replays the target locally.
    """

    def __init__(self, message: str, elapsed_seconds: float = 0.0):
        super().__init__(message)
        self.elapsed_seconds = elapsed_seconds


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff.

    ``max_attempts`` caps transmission attempts per message (first try
    included); a drop costs ``timeout_factor`` times the expected
    message time before it is detected, then the sender backs off
    ``backoff_base_s * backoff_multiplier**retry`` seconds.  After a
    hard disconnect the transport probes ``reconnect_attempts`` times at
    ``reconnect_timeout_s`` apiece.  Every figure is simulated time: the
    whole budget is charged to the mobile timeline and battery.
    """

    max_attempts: int = 5
    backoff_base_s: float = 0.005
    backoff_multiplier: float = 2.0
    timeout_factor: float = 2.0
    reconnect_attempts: int = 2
    reconnect_timeout_s: float = 0.02

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.reconnect_timeout_s < 0:
            raise ValueError("backoff and reconnect timeouts must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.timeout_factor <= 0:
            raise ValueError("timeout_factor must be positive")

    def backoff_s(self, retry_index: int) -> float:
        """Backoff before retry ``retry_index`` (0-based)."""
        return self.backoff_base_s * self.backoff_multiplier ** retry_index

    def max_delivery_seconds(self, expected_s: float) -> float:
        """An upper bound on the time one delivery can burn before the
        transport gives up — the "bounded retry budget" the degradation
        benchmarks assert against."""
        budget = self.max_attempts * self.timeout_factor * expected_s
        for retry in range(self.max_attempts - 1):
            budget += self.backoff_s(retry)
        budget += self.reconnect_attempts * self.reconnect_timeout_s
        return budget


@dataclass
class TransportStats:
    """Counters surfaced through ``python -m repro trace`` and
    :class:`repro.runtime.session.SessionResult`."""

    messages: int = 0           # successfully delivered messages
    retries: int = 0            # re-transmissions after a drop
    drops: int = 0              # transient losses observed
    disconnects: int = 0        # hard link deaths observed
    reconnects: int = 0         # successful reconnect handshakes
    failed_deliveries: int = 0  # deliveries that raised LinkDownError
    timeout_seconds: float = 0.0
    backoff_seconds: float = 0.0
    reconnect_seconds: float = 0.0


class Transport:
    """Framed, retrying message delivery over one :class:`Link`."""

    def __init__(self, link: Link, policy: Optional[RetryPolicy] = None,
                 tracer: Optional[Tracer] = None):
        self.link = link
        self.policy = policy or RetryPolicy()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = TransportStats()

    # -- state the upper layers key decisions off ----------------------
    @property
    def alive(self) -> bool:
        return self.link.alive

    @property
    def usable(self) -> bool:
        """False once the link is dead with no prospect of coming back —
        the signal the dynamic estimator uses to stop offloading."""
        return self.link.alive or self.link.can_reconnect

    # -- delivery ------------------------------------------------------
    def deliver(self, payload_bytes: int, direction: str = "to_server",
                pipelined: bool = False,
                overhead_s: float = 0.0) -> float:
        """Deliver one framed message; returns the modeled seconds spent,
        retries, timeouts and backoff included.

        Raises :class:`LinkDownError` (carrying the seconds burned) when
        the retry budget is exhausted or the link dies and cannot be
        re-established.
        """
        link = self.link
        if link.faultless:
            # Strict pass-through: bit-identical to the pre-transport
            # closed-form path.
            self.stats.messages += 1
            return link.transmit(payload_bytes, pipelined=pipelined,
                                 overhead_s=overhead_s).seconds
        policy = self.policy
        elapsed = 0.0
        attempts = 0
        while True:
            if not link.alive:
                elapsed += self._reconnect_or_die(direction, elapsed)
            attempt = link.transmit(payload_bytes, pipelined=pipelined,
                                    overhead_s=overhead_s)
            attempts += 1
            if attempt.delivered:
                self.stats.messages += 1
                return elapsed + attempt.seconds
            timeout = (policy.timeout_factor
                       * link.expected_time(payload_bytes,
                                            pipelined=pipelined,
                                            overhead_s=overhead_s))
            elapsed += timeout
            self.stats.timeout_seconds += timeout
            if attempt.disconnected:
                self.stats.disconnects += 1
                if self.tracer.enabled:
                    self.tracer.emit("transport.disconnect", direction,
                                     attempts=attempts,
                                     elapsed_seconds=elapsed)
                elapsed += self._reconnect_or_die(direction, elapsed)
            else:
                self.stats.drops += 1
            if attempts >= policy.max_attempts:
                self._give_up(direction, elapsed,
                              f"retry budget exhausted after "
                              f"{attempts} attempts")
            backoff = policy.backoff_s(attempts - 1)
            elapsed += backoff
            self.stats.backoff_seconds += backoff
            self.stats.retries += 1
            if self.tracer.enabled:
                self.tracer.emit("transport.retry", direction,
                                 attempt=attempts,
                                 backoff_seconds=backoff,
                                 timeout_seconds=timeout)

    def _reconnect_or_die(self, direction: str,
                          elapsed_before: float) -> float:
        """Probe for a reconnect; returns the seconds the handshake cost
        or raises :class:`LinkDownError` with the full elapsed time."""
        policy = self.policy
        spent = 0.0
        for _ in range(policy.reconnect_attempts):
            spent += policy.reconnect_timeout_s
            self.stats.reconnect_seconds += policy.reconnect_timeout_s
            if self.link.try_reconnect():
                self.stats.reconnects += 1
                if self.tracer.enabled:
                    self.tracer.emit("transport.reconnect", direction,
                                     seconds=spent)
                return spent
        # failed probes are real recovery time on the device timeline
        # (they ride the failed delivery's comm.send dur); without this
        # event the critical-path analysis could not attribute them
        if spent and self.tracer.enabled:
            self.tracer.emit("transport.reconnect", direction,
                             seconds=spent, failed=True)
        self._give_up(direction, elapsed_before + spent,
                      "link dead and reconnect failed")

    def _give_up(self, direction: str, elapsed: float, why: str) -> None:
        self.stats.failed_deliveries += 1
        raise LinkDownError(f"{why} ({direction})", elapsed)

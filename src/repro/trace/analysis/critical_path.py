"""Critical-path attribution: where did each invocation's wall clock go?

The paper's Figure 7 answers this per *program*; the analysis layer
answers it per *invocation*, splitting the device wall-clock time an
invocation charged to the timeline into six disjoint buckets:

``mobile_compute``
    Local execution after a decline is invisible to the span (it is
    ordinary interpreter time), so this bucket counts the *fallback
    replay* seconds of rejected/aborted invocations — the local run the
    device paid for because the offload did not complete.
``server_compute``
    Raw server execution (``offload.exec`` dur), fn-ptr translation
    included — the device waits through all of it.
``comm``
    Initialization and finalization transfers, remote-I/O forwarding,
    and the rejection probe round trip, minus the carve-outs below.
``queue``
    Fleet admission wait (``offload.queue`` dur).
``uva``
    Demand-paging service: the CoD fault round trips
    (``offload.exec`` payload ``cod_seconds``; the paired ``uva.fault``
    / ``comm.rtt`` event durations are the same seconds — counted once).
``retry_backoff``
    Transport-level recovery: retry timeouts, exponential backoff waits
    and reconnect probes (``transport.retry`` / ``transport.reconnect``
    payloads).  These seconds are *nested inside* the comm transfers
    that suffered them, so they are carved out of ``comm`` — the report
    shows fault-recovery cost separately from useful transfer time.

The buckets sum to the invocation's charged wall time, with one
documented approximation: a retried-but-successful CoD round trip books
its recovery seconds under ``retry_backoff`` (and ``comm`` is clamped at
zero), and an invocation aborted mid-exec never emits ``offload.exec``,
so its partial CoD traffic stays in ``comm`` as wasted transfer time
(the partial *server execution* is recovered from the ``offload.abort``
payload's ``server_seconds`` and books under ``server_compute``).

Scatter/gather plans (docs/parallel-offload.md): each surviving shard
emits its own ``offload.exec`` anchor, but the device only *waited*
through the slowest one — the ``offload.gather`` (or plan
``offload.abort``) payload's ``overlap_seconds`` is the serial-minus-
parallel difference, subtracted from ``server_compute`` so the buckets
still sum to charged wall.  A straggler's local replay books its
``offload.straggler`` payload seconds under ``mobile_compute``, exactly
as a fallback replay does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .spans import InvocationSpan, SessionSpan

#: Bucket names in canonical (serialization and tie-break) order.
BUCKETS = ("mobile_compute", "server_compute", "comm", "queue", "uva",
           "retry_backoff")


@dataclass
class CriticalPath:
    """The per-bucket split of one invocation's charged wall time."""

    target: str
    status: str
    buckets: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.buckets.values())

    @property
    def dominant(self) -> str:
        """The bucket that dominates the invocation's wall time (the
        "bottleneck" column of the report).  Ties break in canonical
        bucket order; an all-zero split (e.g. a declined invocation,
        which claims only its ``decision``) reports ``idle``."""
        best = max(BUCKETS, key=lambda b: self.buckets.get(b, 0.0))
        return best if self.buckets.get(best, 0.0) > 0.0 else "idle"


def attribute_invocation(inv: InvocationSpan) -> CriticalPath:
    """Split one invocation span into the six critical-path buckets."""
    tally = inv.tally
    buckets = {
        "mobile_compute": tally.replay_seconds,
        # a plan's shards ran in parallel: the device waited only
        # through the slowest survivor, not the serial sum
        "server_compute": max(
            tally.server_seconds - tally.overlap_seconds, 0.0),
        # Every comm-layer second the invocation charged (a refused
        # admission's probe round trip included), minus what is
        # attributed more specifically (CoD service -> uva, recovery
        # waits -> retry_backoff).  Remote-I/O forwarding stays here:
        # it is link time on the device timeline.
        "comm": max(tally.comm_seconds + tally.probe_seconds
                    - tally.cod_seconds - tally.recovery_seconds, 0.0),
        "queue": tally.queue_seconds,
        "uva": tally.cod_seconds,
        "retry_backoff": tally.recovery_seconds,
    }
    return CriticalPath(target=inv.target, status=inv.status,
                        buckets=buckets)


def attribute_session(session: SessionSpan) -> List[CriticalPath]:
    return [attribute_invocation(inv) for inv in session.invocations]


def bucket_totals(paths: List[CriticalPath]) -> Dict[str, float]:
    """Sum the per-invocation splits into one stacked-bar row."""
    totals = {name: 0.0 for name in BUCKETS}
    for path in paths:
        for name in BUCKETS:
            totals[name] += path.buckets.get(name, 0.0)
    return totals


def dominant_counts(paths: List[CriticalPath]) -> Dict[str, int]:
    """How many invocations each bucket dominated (plus ``idle``)."""
    counts: Dict[str, int] = {}
    for path in paths:
        dominant = path.dominant
        counts[dominant] = counts.get(dominant, 0) + 1
    return {k: counts[k] for k in sorted(counts)}

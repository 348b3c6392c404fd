"""Fleet run results: per-device outcomes, the fleet summary, and the
merged global trace.

:class:`~repro.fleet.scheduler.FleetScheduler` and the test-only
reference :class:`~repro.fleet.lockstep.LockstepFleetScheduler` both
produce exactly this structure — the differential test in
``tests/test_fleet_differential.py`` holds them to byte-identical
serializations of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..machine.fs import GuestOutput
from ..runtime.session import SessionResult
from ..trace.analysis.aggregate import (invocation_counts,
                                        nearest_rank_percentile)
from ..trace.tracer import TraceEvent
from .pool import ServerPool


def _shared(values):
    """The one value in ``values``, or None when they differ."""
    distinct = set(values)
    return distinct.pop() if len(distinct) == 1 else None


@dataclass
class DeviceOutcome:
    """One device's run, placed on the global timeline."""

    device_id: str
    index: int
    start_offset_s: float
    result: SessionResult

    @property
    def completion_s(self) -> float:
        """Global time the device's whole program finished."""
        return self.start_offset_s + self.result.total_seconds


@dataclass
class FleetResult:
    """Everything a fleet run produced.

    ``devices`` holds one :class:`DeviceOutcome` per
    :class:`~repro.fleet.spec.DeviceSpec`, in spec order; ``pool`` is
    the (now fully drained) :class:`~repro.fleet.pool.ServerPool` with
    its per-server statistics; ``makespan_s`` is the latest device
    completion on the global clock; ``autoscale`` is the
    :class:`~repro.fleet.autoscaler.Autoscaler`'s action/finding
    accounting when one ran (None otherwise).  :meth:`summary` renders
    the JSON-safe fleet report, :meth:`merged_events` the fleet-wide
    trace.
    """

    devices: List[DeviceOutcome]
    pool: ServerPool
    makespan_s: float
    autoscale: Optional[dict] = None

    def differences(self, expected: GuestOutput) -> Dict[str, List[str]]:
        """Device id -> the components of its output that differ from
        ``expected`` (the phone-only run's); devices that match are
        absent, so empty means offloading changed nothing anywhere."""
        found = ((d.device_id, d.result.output.differences(expected))
                 for d in self.devices)
        return {device: names for device, names in found if names}

    def summary(self) -> dict:
        """The JSON-safe fleet report (stable key order; two same-seed
        runs serialize byte-identically — tests/test_fleet.py)."""
        results = [d.result for d in self.devices]
        # One counting definition, shared with `repro report`
        # (repro.trace.analysis.aggregate).
        counts = invocation_counts(r for result in results
                                   for r in result.invocations)
        total_inv = counts["total"]
        offloaded = counts["offloaded"]
        declined = counts["declined"]
        rejected = counts["rejected"]
        aborted = counts["aborted"]
        fallbacks = counts["local_fallbacks"]
        queue_s = sum(r.queue_seconds for r in results)
        completions = [d.completion_s for d in self.devices]
        queued = sum(s.queued_admissions for s in self.pool.stats)
        specs = self.pool.options.server_specs()
        return {
            "devices": len(self.devices),
            # Actual pool width (the autoscaler may have grown it past
            # the configured size; retired servers still count here and
            # carry active=False in servers_detail).
            "servers": len(self.pool.stats),
            "servers_active": self.pool.active_servers,
            "engine": self.pool.engine_name,
            # specs override the homogeneous knobs, so these are read
            # off the configured servers.
            "capacity": _shared(spec.capacity for spec in specs),
            "queue_limit": _shared(spec.queue_limit for spec in specs),
            "makespan_s": self.makespan_s,
            "throughput_invocations_per_s": (
                total_inv / self.makespan_s if self.makespan_s > 0
                else 0.0),
            # nearest-rank, the report's definition (repro.trace.analysis)
            "completion_s": {
                "p50": nearest_rank_percentile(completions, 0.50),
                "p95": nearest_rank_percentile(completions, 0.95),
                "max": max(completions) if completions else 0.0,
            },
            "invocations": {
                "total": total_inv,
                "offloaded": offloaded,
                "declined": declined,
                "rejected": rejected,
                "aborted": aborted,
                "local_fallbacks": fallbacks,
            },
            "decline_rate": (
                (total_inv - offloaded) / total_inv if total_inv else 0.0),
            "queue": {
                "total_delay_s": queue_s,
                "mean_delay_s": (
                    queue_s / queued if queued else 0.0),
                "queued_admissions": queued,
            },
            "servers_detail": self.pool.servers_detail(self.makespan_s),
            "autoscale": self.autoscale or {},
            "energy_mj_total": sum(r.energy_mj for r in results),
        }

    @property
    def dropped_events(self) -> int:
        """Events lost to the devices' trace ring buffers, fleet-wide —
        the truncation signal ``write_jsonl`` headers and ``repro
        report`` surface."""
        return sum(d.result.trace.dropped for d in self.devices
                   if d.result.trace is not None)

    def merged_events(self) -> List[TraceEvent]:
        """One fleet-wide trace: every device's events shifted onto the
        global timeline, ordered by (time, device index, seq), each
        stamped with its device's id (``sid``).  This is the one place a
        fleet trace names its sources: a session's tracer stamps none,
        so identical devices can share one finished session."""
        merged = []
        for device in self.devices:
            tracer = device.result.trace
            if tracer is None:
                continue
            for e in tracer.events():
                merged.append((e.t + device.start_offset_s, device.index,
                               e.seq, e, device.device_id))
        merged.sort(key=lambda item: item[:3])
        return [TraceEvent(t=t, seq=e.seq, category=e.category,
                           name=e.name, dur=e.dur, payload=e.payload,
                           sid=sid)
                for t, _, _, e, sid in merged]

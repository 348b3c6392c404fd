"""Device specifications and arrival processes for fleet runs.

A fleet is just a list of :class:`DeviceSpec`s — each one the complete
recipe for a single-device :class:`~repro.runtime.session.OffloadSession`
plus its placement on the global timeline (``start_offset_s``) and the
deadline it asks the pool for (``deadline_s``).  The scheduler never
peeks inside the session; everything it needs to know about a device is
here.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..runtime.network import FaultPlan
from ..runtime.session import SessionOptions
from .seeding import SeedFanout

#: The largest device, server or slot count a fleet may ask for — far
#: past the largest benchmarked fleet (20 000 devices); a larger count
#: is refused rather than left to exhaust memory (docs/fleet.md).
MAX_COUNT = 1_000_000


@dataclass
class DeviceSpec:
    """One device of the fleet.

    The spec fully determines the device's behavior: ``program``,
    ``network``, ``stdin``, ``files`` and ``options`` fix the session's
    deterministic execution, and ``start_offset_s`` maps its
    session-local clock onto global fleet time.  The event-driven scheduler
    relies on this: two devices whose specs agree on everything but
    ``device_id`` and ``start_offset_s`` are behaviorally identical and
    can share replayed execution segments (docs/simulator.md).
    """

    device_id: str
    program: object                 # compiled OffloadProgram
    network: object                 # NetworkModel
    stdin: bytes = b""
    files: Optional[Dict[str, bytes]] = None
    start_offset_s: float = 0.0     # global time the device starts
    options: Optional[SessionOptions] = None
    # Relative per-invocation deadline (seconds from each admission
    # request) for the deadline-aware decision engine
    # (docs/placement.md); None = no deadline.
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        offset = self.start_offset_s
        if not (math.isfinite(offset) and offset >= 0):
            raise ValueError(
                f"{self.device_id}: start offset must be a finite number "
                f">= 0 seconds; got {offset!r}")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError(
                f"deadline must be > 0 seconds; got {self.deadline_s!r}")


def arrival_offsets(pattern: str, devices: int, spacing_s: float,
                    rng) -> List[float]:
    """Start offsets for ``devices`` devices.

    * ``uniform`` — fixed ``spacing_s`` between consecutive starts;
    * ``poisson`` — exponential inter-arrivals with mean ``spacing_s``,
      drawn from ``rng`` (a fan-out child, never a shared global);
    * ``burst`` — everyone at t=0, the worst case for the pool.
    """
    if not 0 <= devices <= MAX_COUNT:
        raise ValueError(
            f"devices must be in 0..{MAX_COUNT:,}; got {devices!r}")
    if spacing_s < 0:
        raise ValueError(f"spacing must be >= 0; got {spacing_s!r}")
    if pattern == "uniform":
        return [i * spacing_s for i in range(devices)]
    if pattern == "poisson":
        offsets, t = [], 0.0
        for _ in range(devices):
            offsets.append(t)
            t += rng.expovariate(1.0 / spacing_s) if spacing_s > 0 else 0.0
        return offsets
    if pattern == "burst":
        return [0.0] * devices
    raise ValueError(f"unknown arrival pattern {pattern!r}")


def identical_devices(count: int, program, network, *,
                      stdin: bytes = b"",
                      files: Optional[Dict[str, bytes]] = None,
                      arrival: str = "uniform",
                      spacing_s: float = 0.002,
                      seed: int = 0,
                      options: Optional[SessionOptions] = None,
                      fault_plan: Optional[FaultPlan] = None,
                      deadline_s: Optional[float] = None
                      ) -> List[DeviceSpec]:
    """Seed -> fleet: ``count`` devices ``dev00``, ``dev01``, ... that
    differ only in when they start and how their link misbehaves.

    This is the determinism contract of docs/fleet.md, stated once:
    every random draw fans out from the one ``seed`` — the arrival
    process draws from one child RNG, and device *i* runs
    ``fault_plan`` reseeded with its own child seed (no ``fault_plan``:
    perfect links, ``options`` used as given).  The two labels below
    are written nowhere else.  ``ValueError`` for a bad count, spacing,
    arrival pattern or deadline.
    """
    fan = SeedFanout(seed)
    offsets = arrival_offsets(arrival, count, spacing_s,
                              fan.rng("arrivals"))
    specs = []
    for i, offset in enumerate(offsets):
        device_options = options
        if fault_plan is not None:
            plan = dataclasses.replace(fault_plan, seed=fan.seed("fault", i))
            device_options = dataclasses.replace(
                options or SessionOptions(), fault_plan=plan)
        specs.append(DeviceSpec(
            device_id=f"dev{i:02d}", program=program, network=network,
            stdin=stdin, files=files, start_offset_s=offset,
            options=device_options, deadline_s=deadline_s))
    return specs

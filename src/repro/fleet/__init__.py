"""Fleet-scale offloading: many devices sharing a contended server pool.

The paper evaluates one mobile device against one dedicated server; this
package answers the production question — what happens to its speedups
when N devices share M servers — without touching a line of session
logic.  Devices are plain :class:`~repro.runtime.session.OffloadSession`
instances wired to a shared :class:`~repro.fleet.pool.ServerPool`
through the :class:`~repro.runtime.backend.OffloadDispatcher` seam, and
a single-threaded discrete-event :class:`FleetScheduler` serializes
their interactions (docs/fleet.md, docs/simulator.md).  It is the only
engine; the one-thread-per-device engine it replaced is kept in
:mod:`repro.fleet.lockstep`, un-re-exported, as the reference the
differential test checks it against.

Placement is a swappable layer (docs/placement.md): the pool ranks
eligible servers by an engine's key from
:data:`~repro.fleet.engines.ENGINES` (``fifo`` / ``worst-fit`` /
``best-fit`` / ``deadline-aware``), servers are heterogeneous
:class:`ServerSpec` records spanning an edge/cloud tier hierarchy, and
an optional :class:`Autoscaler` resizes the pool mid-simulation off the
same sliding-window SLO rules the report uses.
"""

from .autoscaler import (DEFAULT_AUTOSCALE_RULES, Autoscaler,
                         AutoscalerOptions)
from .clock import EventQueue, SimClock
from .engines import (DECISION_ENGINES, DEFAULT_DECISION_ENGINE, ENGINES,
                      Candidate, PlacementRequest)
from .events import (ADMISSION_REQUEST, ARRIVAL, AUTOSCALE, COMPLETION,
                     EVENT_KINDS, DeviceState)
from .pool import TIERS, PoolOptions, ServerPool, ServerSpec, ServerStats
from .replay import (ScriptedDispatcher, Segment, SegmentBoundary,
                     SegmentCache, TrieNode, behavior_key)
from .result import DeviceOutcome, FleetResult
from .scheduler import FleetScheduler
from .seeding import SeedFanout, derive_seed
from .spec import DeviceSpec, arrival_offsets, identical_devices

__all__ = [
    "EventQueue", "SimClock",
    "ARRIVAL", "ADMISSION_REQUEST", "COMPLETION", "AUTOSCALE",
    "EVENT_KINDS", "DeviceState",
    "PoolOptions", "ServerPool", "ServerSpec", "ServerStats", "TIERS",
    "Candidate", "PlacementRequest", "ENGINES",
    "DECISION_ENGINES", "DEFAULT_DECISION_ENGINE",
    "Autoscaler", "AutoscalerOptions", "DEFAULT_AUTOSCALE_RULES",
    "ScriptedDispatcher", "Segment", "SegmentBoundary", "SegmentCache",
    "TrieNode", "behavior_key",
    "DeviceOutcome", "DeviceSpec", "FleetResult",
    "FleetScheduler", "arrival_offsets", "identical_devices",
    "SeedFanout", "derive_seed",
]

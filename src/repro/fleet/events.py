"""The fleet simulator's event taxonomy and device state machine.

The event-driven scheduler (docs/simulator.md) drives every device
through an explicit lifecycle::

    IDLE -> ARRIVED -> REQUESTING -> EXECUTING -> ... -> COMPLETE
                          ^                |
                          +----------------+   (one cycle per admission)

Three event kinds drive devices, and each is the *only* way a device in
the matching state makes progress:

* :data:`ARRIVAL` — fires at the device's ``start_offset_s``; the
  device runs from program start to its first admission request (or to
  completion, if it never offloads).
* :data:`ADMISSION_REQUEST` — fires at the global time the device asked
  for a server.  Processing it performs the *only* shared-state
  mutation in the simulator: ``pool.admit`` followed by the matching
  ``pool.release`` once the device's next execution segment is known.
* :data:`COMPLETION` — fires when the device's program finished; purely
  observational (no shared state is touched), so ties between a
  completion and any other event are outcome-neutral by construction.

A fourth kind belongs to the control plane, not to any device:

* :data:`AUTOSCALE` — a periodic tick at which the
  :class:`~repro.fleet.autoscaler.Autoscaler` evaluates its sliding
  SLO windows and may grow or shrink the pool (docs/placement.md).
  Ticks carry an index above every device's, so at equal times all
  device events are served before the pool is resized.

Simultaneous events order by ``(time, device index)`` through the
:class:`~repro.fleet.clock.EventQueue` — the same tie-break the lockstep
scheduler applied to admission requests, which is what makes the two
engines byte-identical (docs/fleet.md, "Reference engine").
"""

from __future__ import annotations

import enum

#: Event kinds, in the order a device experiences them; AUTOSCALE is
#: the control-plane tick (no device state attached).
ARRIVAL = "arrival"
ADMISSION_REQUEST = "admission_request"
COMPLETION = "completion"
AUTOSCALE = "autoscale"

EVENT_KINDS = (ARRIVAL, ADMISSION_REQUEST, COMPLETION, AUTOSCALE)


class DeviceState(enum.Enum):
    """Lifecycle states of one device inside the event-driven core.

    Transitions (enforced by :class:`~repro.fleet.scheduler.
    FleetScheduler`, asserted by tests/test_fleet_differential.py):

    * ``IDLE -> ARRIVED`` when the :data:`ARRIVAL` event fires;
    * ``ARRIVED -> REQUESTING`` when the first execution segment ends at
      an admission request, or ``ARRIVED -> EXECUTING`` directly when
      the program never offloads;
    * ``REQUESTING -> EXECUTING`` when the scheduler serves the request
      (admission *or* rejection — a rejected invocation still executes,
      locally);
    * ``EXECUTING -> REQUESTING`` at the next admission request;
    * ``EXECUTING -> COMPLETE`` when the :data:`COMPLETION` event fires.
    """

    IDLE = "idle"
    ARRIVED = "arrived"
    REQUESTING = "requesting"
    EXECUTING = "executing"
    COMPLETE = "complete"

    # Members are singletons compared by identity, so the identity hash
    # is equivalent to Enum's hash-of-the-name — and C-level, which the
    # scheduler's nine TRANSITIONS look-ups per device notice.
    __hash__ = object.__hash__


#: Legal state-machine transitions, as (from, to) pairs.  Kept next to
#: the enum so the scheduler and the tests share one definition.
TRANSITIONS = frozenset({
    (DeviceState.IDLE, DeviceState.ARRIVED),
    (DeviceState.ARRIVED, DeviceState.REQUESTING),
    (DeviceState.ARRIVED, DeviceState.EXECUTING),
    (DeviceState.REQUESTING, DeviceState.EXECUTING),
    (DeviceState.EXECUTING, DeviceState.REQUESTING),
    (DeviceState.EXECUTING, DeviceState.COMPLETE),
})

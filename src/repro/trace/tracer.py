"""The structured event tracer.

A :class:`Tracer` collects :class:`TraceEvent` records into a bounded
ring buffer.  Each event carries

* ``t`` — the simulated mobile wall-clock time at emission (seconds).
  The tracer clamps timestamps so the stored stream is monotonically
  non-decreasing even if a clock source momentarily disagrees;
* ``seq`` — a global sequence number that breaks ties between events
  emitted at the same simulated instant (e.g. every copy-on-demand fault
  during one server execution window carries the mobile timestamp at
  which the mobile started waiting);
* ``category`` — a dotted event type from :data:`CATEGORIES`
  (``comm.send``, ``uva.fault``, ...), documented field-by-field in
  ``docs/trace-schema.md``;
* ``name`` — an event-specific label (offload target, remote-I/O
  function, transfer direction);
* ``dur`` — the modeled duration of the event in seconds (0 for instant
  events);
* ``payload`` — free-form key/value details.

Overhead discipline: the runtime's hot paths guard every emission with
``if tracer.enabled:``, and the disabled singleton :data:`NULL_TRACER`
additionally turns ``emit`` into a no-op, so a session with tracing off
performs exactly the arithmetic it performed before this subsystem
existed (the tracing-disabled invariant recorded in ``DESIGN.md``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from sys import intern, maxsize
from typing import Callable, Dict, List, Optional, Tuple

DEFAULT_CAPACITY = 262_144

# The full event vocabulary.  docs/trace-schema.md documents each
# category's payload; tests assert the runtime never emits outside it.
# Interned, as every category a reader parses is, so a loaded trace
# shares these objects instead of holding one string per event.
CATEGORIES = tuple(map(intern, (
    "session.start",      # one per OffloadSession.run()
    "session.end",        # final accounting totals
    "decision",           # offload / decline: reason, Equation 1 terms
    "offload.init",       # initialization phase of one invocation
    "offload.exec",       # server execution window of one invocation
    "offload.finalize",   # finalization phase of one invocation
    "offload.scatter",    # a k-shard plan's request phase (its init)
    "offload.gather",     # a k-shard plan's return phase (its finalize)
    "offload.straggler",  # an abandoned shard's range replayed locally
    "uva.prefetch",       # likely-used page push at initialization
    "uva.fault",          # one copy-on-demand page fault
    "uva.writeback",      # dirty-page write-back at finalization
    "uva.cache",          # page-cache sync summary / adaptive hit-waste
    "uva.delta",          # sub-page delta transfer (prefetch/CoD/writeback)
    "comm.send",          # one batched/unbatched message transfer
    "comm.stream",        # pipelined one-way remote I/O forwarding
    "comm.rtt",           # a control round trip
    "rio.op",             # one forwarded remote I/O operation
    "fnptr.window",       # fn-ptr translations of one invocation
    "transport.retry",    # one dropped/timed-out delivery being retried
    "transport.disconnect",  # the link went down mid-delivery
    "transport.reconnect",   # a reconnect probe succeeded
    "offload.abort",      # an invocation lost the link mid-flight
    "offload.fallback",   # an aborted invocation replayed locally
    "offload.queue",      # time spent waiting for a pooled server slot
    "offload.reject",     # the server pool refused admission
)))

# Categories every offloading run emits (workload-independent).  The
# remainder depend on program structure: uva.fault needs CoD misses,
# rio.op/comm.stream need server-side I/O, fnptr.window needs function
# pointers.
CORE_CATEGORIES = (
    "session.start", "session.end", "decision",
    "offload.init", "offload.exec", "offload.finalize",
    "uva.prefetch", "uva.writeback", "comm.send",
)


def _slotted(cls):
    """Rebuild a dataclass with ``__slots__`` for its fields, as
    ``dataclass(slots=True)`` does from Python 3.10 (CI runs 3.9): no
    per-instance ``__dict__``, which is most of what a resident event
    or tally costs.  Construction, ``==``, ``repr`` and
    ``dataclasses.fields`` are the decorated class's own."""
    namespace = dict(cls.__dict__)
    names = tuple(f.name for f in fields(cls))
    for name in names + ("__dict__", "__weakref__"):
        namespace.pop(name, None)       # the defaults live in __init__
    namespace["__slots__"] = names
    return type(cls)(cls.__name__, cls.__bases__, namespace)


@_slotted
@dataclass
class TraceEvent:
    """One structured runtime event."""

    t: float                 # simulated seconds, monotonic within a trace
    seq: int                 # global emission order (tie-break for t)
    category: str
    name: str
    dur: float = 0.0         # modeled duration in seconds (0 = instant)
    payload: Dict[str, object] = field(default_factory=dict)
    # The device a fleet trace attributes the event to: stamped by
    # FleetResult.merged_events and carried by loaded traces, never by a
    # session's own tracer.
    sid: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "t": self.t, "seq": self.seq, "cat": self.category,
            "name": self.name, "dur": self.dur, "args": self.payload}
        # Serialized only when set so single-session traces keep their
        # exact pre-fleet wire format.
        if self.sid is not None:
            data["sid"] = self.sid
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object],
                  payload: Optional[Dict[str, object]] = None
                  ) -> "TraceEvent":
        """The event a ``to_dict`` mapping describes; ValueError or
        TypeError for a field that breaks :func:`check_envelope`.  The
        vocabulary — category, name, device id and payload keys — is
        interned: a trace repeats a few dozen distinct strings, and a
        parsed one would otherwise hold a fresh copy of each per
        event.  A ``payload`` read apart from ``data`` (which then holds
        no ``args``), its keys interned already, is the event's own."""
        t, seq, category, name = data["t"], data["seq"], data["cat"], \
            data["name"]
        dur, sid = data.get("dur", 0.0), data.get("sid")
        args = data.get("args", {}) if payload is None else payload
        if not (type(t) is float and not t - t and type(dur) is float
                and not dur - dur and type(seq) is int
                and type(category) is str and type(name) is str
                and type(args) is dict
                and (sid is None or type(sid) is str)):
            t, dur = check_envelope(t, seq, category, name, dur, args, sid)
        if payload is None:
            args = dict(zip(map(intern, args), args.values()))
        return cls(t, seq, intern(category), intern(name), dur, args,
                   None if sid is None else intern(sid))


def check_envelope(t: object, seq: object, category: object, name: object,
                   dur: object, args: object, sid: object
                   ) -> Tuple[float, float]:
    """The one rule for a trace line's envelope, read or written: ``t``
    and ``dur`` are finite numbers, ``seq`` an int, ``cat`` and ``name``
    strings, ``sid`` a string or absent, ``args`` an object.  Returns
    ``t`` and ``dur`` as float seconds; ValueError or TypeError for the
    first field that breaks the rule.  Payload values are free."""
    t, dur = _seconds("t", t), _seconds("dur", dur)
    if (type(seq) is not int or type(category) is not str
            or type(name) is not str or type(args) is not dict
            or not (sid is None or type(sid) is str)):
        raise TypeError(
            "seq must be an int, cat and name strings, sid a string "
            f"or absent, args an object; got seq={seq!r}, "
            f"cat={category!r}, name={name!r}, sid={sid!r}, "
            f"args of type {type(args).__name__}")
    return t, dur


def _seconds(key: str, value: object) -> float:
    """``value`` as the float seconds a ``t`` or ``dur`` field holds:
    a finite int or float, never a bool, a string or a NaN.  A float
    subclass counts: the JSON encoder writes it as a float."""
    try:
        if type(value) is int:
            return float(value)
        if isinstance(value, float) and not value - value:
            return float(value)
    except OverflowError:       # an int beyond the float range
        pass
    raise ValueError(f"{key} must be a finite number; got {value!r}")


class Tracer:
    """Ring-buffered structured event sink."""

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 clock: Optional[Callable[[], float]] = None):
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        if capacity > maxsize:      # the longest deque there can be
            raise ValueError(f"tracer capacity must be at most {maxsize}; "
                             f"got {capacity}")
        self.capacity = capacity
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self._events: deque = deque(maxlen=capacity)
        self._seq = 0
        self._last_t = 0.0
        self.dropped = 0      # events evicted by the ring buffer

    # -- emission -------------------------------------------------------
    def emit(self, category: str, name: str, t: Optional[float] = None,
             dur: float = 0.0, **payload) -> Optional[TraceEvent]:
        """Record one event, stamping it with the simulated clock.

        Timestamps are clamped to be monotonically non-decreasing in
        emission order; ``seq`` preserves the exact order for equal
        timestamps.
        """
        if t is None:
            t = self.clock()
        if t < self._last_t:
            t = self._last_t
        self._last_t = t
        if len(self._events) == self.capacity:
            self.dropped += 1
        event = TraceEvent(t=t, seq=self._seq, category=category,
                           name=name, dur=dur, payload=payload)
        self._seq += 1
        self._events.append(event)
        return event

    # -- access ---------------------------------------------------------
    def events(self, category: Optional[str] = None) -> List[TraceEvent]:
        if category is None:
            return list(self._events)
        return [e for e in self._events if e.category == category]

    def categories(self) -> List[str]:
        return sorted({e.category for e in self._events})

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(list(self._events))

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0
        self._last_t = 0.0


class NullTracer(Tracer):
    """The disabled sink: ``enabled`` is False and ``emit`` is a no-op.

    Instrumentation sites check ``tracer.enabled`` before doing any
    payload computation; this class is the belt-and-braces second layer
    that guarantees an unguarded emit still records nothing.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def emit(self, category: str, name: str, t: Optional[float] = None,
             dur: float = 0.0, **payload) -> Optional[TraceEvent]:
        return None


#: Shared disabled sink used wherever no tracer was provided.
NULL_TRACER = NullTracer()

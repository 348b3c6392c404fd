"""Span reconstruction: fold the flat event stream into nested spans.

The tracer emits a *flat* stream of :class:`~repro.trace.TraceEvent`
records; the paper's evaluation (Figures 6-8, Tables 3-5) and every
question the report answers ("where did this invocation's wall clock
go?") need the stream folded back into its natural nesting:

    session (one per ``sid``)
      └─ invocation (one per dynamic offload decision site execution)
           └─ phase (decide / queue / init / exec / finalize /
                     reject / abort / fallback)

Reconstruction is a deterministic state machine fed the per-``sid``
stream in emission (``seq``) order, mirroring the runtime's control flow
in ``repro/runtime/backend.py``:

* an invocation opens at its ``decision`` event;
* a declined decision closes it immediately (the local run of a declined
  target is ordinary mobile compute, not an offload span);
* an offloaded decision advances through ``queue`` (fleet admission
  wait), ``init`` (everything up to and including ``offload.init``),
  ``exec`` (up to ``offload.exec``; ``fnptr.window`` trails the exec
  marker but belongs to the window), ``finalize`` (up to
  ``offload.finalize``);
* ``offload.reject`` / ``offload.abort`` divert to their own phases and
  the closing ``offload.fallback`` ends the invocation;
* a decision while an invocation is open is nested in it (a local replay
  reached another target): the new invocation runs to its close, then
  the interrupted one resumes in the phase it was in.

This module only *routes*: which phase of which invocation an event
belongs to.  What the event is worth — seconds, bytes, counts — is the
business of :class:`repro.trace.timeline.Tally`, which each span folds
its events into as it claims them, in emission order; the rest of the
analysis is arithmetic over those tallies, so a span keeps the tally
and a per-phase count and lets the event go — a stream of any length
folds in memory proportional to its sessions.

**Lossless invariant**: every event of the input stream is claimed by
exactly one phase (or by the session span itself, for
``session.start``/``session.end``), and per-span duration sums reconcile
with the ``session.end`` accounting totals to the same ``1e-9``
tolerance as :func:`repro.trace.phase_totals` —
:func:`validate_sessions` checks both and returns the discrepancies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..timeline import Tally
from ..tracer import TraceEvent

#: Tolerance for duration reconciliation — matches the existing
#: phase/traffic reconciliation tests (tests/test_trace.py).
RECONCILE_TOLERANCE = 1e-9

#: Invocation outcome classification.
STATUSES = ("offloaded", "declined", "rejected", "aborted")


@dataclass
class InvocationSpan:
    """One dynamic offload decision site execution.

    ``tally`` is what the invocation's events add up to
    (:class:`repro.trace.timeline.Tally`), folded as each event is
    claimed; everything downstream of reconstruction reads it instead
    of walking the events again."""

    index: int                      # 0-based within the session
    target: str
    sid: Optional[str]
    status: str = "declined"        # one of STATUSES
    reason: Optional[str] = None    # decision payload reason
    gain_seconds: Optional[float] = None
    abort_phase: Optional[str] = None
    # events claimed per phase: decide | queue | init | exec |
    # finalize | reject | abort | fallback
    phases: Dict[str, int] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)

    def claim(self, phase: str, event: TraceEvent) -> None:
        self.phases[phase] = self.phases.get(phase, 0) + 1
        self.tally.add(event)

    @property
    def fallback_local(self) -> bool:
        return self.tally.fallbacks > 0

    @property
    def start(self) -> float:
        return self.tally.start

    @property
    def end(self) -> float:
        return self.tally.end

    @property
    def wall_seconds(self) -> float:
        """The invocation's span on the device timeline.  An upper
        bound: ``end`` extends to ``t + dur`` of the last event, and a
        dur that attributes time rather than places it (the serial
        server time of a k-shard plan's ``offload.exec``) can overstate
        the charged time."""
        return max(self.end - self.start, 0.0)


@dataclass
class SessionSpan:
    """One device session: the root of the span tree for one ``sid``."""

    sid: Optional[str]
    program: str = ""
    start: float = 0.0
    end: float = 0.0
    partial: bool = False           # stream truncated (no session.start)
    tally: Tally = field(default_factory=Tally)     # of its own events
    invocations: List[InvocationSpan] = field(default_factory=list)
    totals: Dict[str, object] = field(default_factory=dict)  # session.end

    def tallies(self) -> List[Tally]:
        """Every tally of the tree: the session's own, then one per
        invocation."""
        return [self.tally] + [inv.tally for inv in self.invocations]


# Categories that always belong to the *exec* window even though the
# runtime emits them after the ``offload.exec`` anchor (the fn-ptr
# window is aggregated and flushed once the server returns).
_TRAILS_EXEC = ("fnptr.window",)


class _SessionFolder:
    """The span state machine of one ``sid``: :meth:`feed` it the
    session's events in emission order, :meth:`finish` returns the
    tree.  It keeps what an event is worth, never the event."""

    def __init__(self, sid: Optional[str]):
        self.session = SessionSpan(sid=sid)
        self.inv: Optional[InvocationSpan] = None
        self.phase = "decide"
        # What a nested decision interrupted: a local replay (fallback,
        # straggler shard) that calls another target decides that
        # target's invocation inside its own.
        self.interrupted: List[Tuple[InvocationSpan, str]] = []
        self.saw_start = False
        self.last_seq: Optional[int] = None

    def feed(self, event: TraceEvent) -> None:
        session = self.session
        last = self.last_seq
        if last is not None and event.seq <= last:
            raise ValueError(
                f"sid {session.sid!r}: seq {event.seq} after seq {last} — "
                f"not in emission order (two sessions sharing an id, or "
                f"a re-sorted file)")
        self.last_seq = event.seq

        cat = event.category
        if cat == "session.start":
            session.program = event.name
            session.start = event.t
            session.tally.add(event)
            self.saw_start = True
            return
        if cat == "session.end":
            # Truncation or a protocol break may have left an
            # invocation open: it keeps what it claimed.
            self.inv = None
            self.interrupted.clear()
            session.program = session.program or event.name
            session.end = event.t + event.dur
            session.totals = dict(event.payload)
            session.tally.add(event)
            return

        inv = self.inv
        if cat == "decision":
            if inv is not None:
                self.interrupted.append((inv, self.phase))
            inv = self.inv = InvocationSpan(
                index=len(session.invocations), target=event.name,
                sid=session.sid, reason=event.payload.get("reason"),
                gain_seconds=event.payload.get("gain_seconds"))
            session.invocations.append(inv)
            inv.claim("decide", event)
            if event.payload.get("offloaded"):
                inv.status = "offloaded"
                self.phase = "init"
            else:
                self._close()
        elif inv is None:
            # No open invocation: pre-invocation noise (possible on a
            # truncated stream) is owned by the session span.
            session.tally.add(event)
        elif cat == "offload.queue":
            inv.claim("queue", event)
        elif cat in ("offload.init", "offload.scatter"):
            # offload.scatter is the plan's init anchor
            # (docs/parallel-offload.md)
            inv.claim("init", event)
            self.phase = "exec"
        elif cat == "offload.exec":
            # A scatter/gather plan emits one exec anchor per surviving
            # shard; each belongs to the exec phase regardless of where
            # the phase cursor already advanced to.
            inv.claim("exec", event)
            self.phase = "finalize"
        elif cat in _TRAILS_EXEC:
            inv.claim("exec", event)
        elif cat in ("offload.finalize", "offload.gather"):
            # offload.gather closes a plan exactly as offload.finalize
            # closes a classic invocation; the plan's straggler-replay
            # events (offload.straggler) precede it by construction.
            inv.claim("finalize", event)
            self._close()
        elif cat == "offload.reject":
            inv.status = "rejected"
            inv.claim("reject", event)
            self.phase = "fallback"
        elif cat == "offload.abort":
            inv.status = "aborted"
            inv.abort_phase = event.payload.get("phase")
            inv.claim("abort", event)
            self.phase = "fallback"
        elif cat == "offload.fallback":
            inv.claim("fallback", event)
            self._close()
        else:
            # Everything else (uva.*, comm.*, transport.*, rio.op)
            # rides the current phase.
            inv.claim(self.phase, event)

    def _close(self) -> None:
        """End the open invocation and resume the one it interrupted."""
        self.inv, self.phase = (self.interrupted.pop() if self.interrupted
                                else (None, "decide"))

    def finish(self) -> SessionSpan:
        """The tree of what was fed.  Tolerant of a ring-buffer-
        truncated head: a stream that does not open with
        ``session.start`` is marked ``partial``, and the events that
        preceded its first reconstructible invocation are owned by the
        session span."""
        session = self.session
        session.partial = not self.saw_start or not session.totals
        if session.end == 0.0:
            session.end = max(t.end for t in session.tallies())
        return session


def reconstruct_session(events: Iterable[TraceEvent],
                        sid: Optional[str] = None) -> SessionSpan:
    """Fold one session's events (one ``sid``, emission order) into its
    span tree."""
    folder = _SessionFolder(sid)
    for event in events:
        folder.feed(event)
    return folder.finish()


def reconstruct_sessions(events: Iterable[TraceEvent]
                         ) -> List[SessionSpan]:
    """Reconstruct the span tree of every session of a (possibly merged
    fleet) stream, in one pass that keeps no event: each goes to its
    ``sid``'s state machine as it arrives.  The stream's contract
    (docs/trace-schema.md, ``seq``) is per-``sid`` emission order;
    ValueError naming the ``sid`` and both ``seq`` values for an event
    that breaks it.  Sessions are ordered by first appearance in the
    stream, which for merged fleet traces is global-time order."""
    folders: Dict[Optional[str], _SessionFolder] = {}
    for event in events:
        folder = folders.get(event.sid)
        if folder is None:
            folder = folders[event.sid] = _SessionFolder(event.sid)
        folder.feed(event)
    return [folder.finish() for folder in folders.values()]


#: ``session.end`` totals the spans must reproduce, with the tally field
#: that re-derives each.
_RECONCILED = (("comm_seconds", "comm_seconds"),
               ("fnptr_seconds", "fnptr_seconds"),
               ("remote_io_seconds", "remote_io_seconds"),
               ("server_compute_seconds", "server_seconds"))


def validate_sessions(sessions: List[SessionSpan],
                      stream_length: int,
                      tolerance: float = RECONCILE_TOLERANCE
                      ) -> List[str]:
    """The lossless invariant, as a list of discrepancies (empty = ok).

    * every input event is claimed by exactly one span (conservation:
      claimed count == ``stream_length``, the number of events that
      were fed to reconstruction; the construction claims each event at
      most once by design, so equality implies the bijection);
    * per-session duration sums reconcile with the ``session.end``
      accounting: communication, fn-ptr translation, remote I/O and raw
      server execution re-derived from the spans' tallies match the
      totals the session reported, within ``tolerance``.

    Sessions marked ``partial`` (ring-buffer truncation) skip the
    reconciliation checks — their totals are unknowable by construction.
    """
    issues: List[str] = []
    claimed = sum(t.events for s in sessions for t in s.tallies())
    if claimed != stream_length:
        issues.append(f"event conservation: {claimed} claimed vs "
                      f"{stream_length} in the stream")
    for session in sessions:
        label = session.sid or "session"
        if session.partial:
            continue
        tallies = session.tallies()
        for name, derived_from in _RECONCILED:
            derived = sum(getattr(t, derived_from) for t in tallies)
            reported = float(session.totals.get(name, 0.0))
            if abs(derived - reported) > tolerance:
                issues.append(f"{label}: {name} {derived!r} from spans "
                              f"vs {reported!r} reported")
        for inv in session.invocations:
            if inv.status not in STATUSES:
                issues.append(f"{label}: invocation {inv.index} has "
                              f"unknown status {inv.status!r}")
            # Bound-check on event *timestamps* only: ``dur`` is an
            # attribution quantity, not a placement, so ``t + dur`` may
            # legitimately pass the session end.
            last_t = inv.tally.last_t
            if inv.start < session.start - tolerance or \
                    last_t > session.end + tolerance:
                issues.append(f"{label}: invocation {inv.index} "
                              f"[{inv.start}, {last_t}] outside the "
                              f"session [{session.start}, {session.end}]")
    return issues

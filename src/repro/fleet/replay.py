"""Scripted re-execution: how the event-driven scheduler advances a
device without a thread.

The guest interpreter is deeply recursive (one Python frame per guest
frame), so a device session cannot be suspended mid-stack and resumed
later — the test-only reference engine (:mod:`repro.fleet.lockstep`)
parks each session on its own OS thread precisely to get that
suspension.  The event-driven core takes the opposite route: a device
is advanced by *re-running its session from program start* against a
:class:`ScriptedDispatcher` that replays the admission outcomes the
pool already granted, verbatim, and stops the session at the first
admission request the script does not cover (docs/simulator.md,
"Replay, not resumption").

This is exact, not approximate, because a session is a deterministic
function of the session-visible part of its admission outcomes — every
:class:`~repro.runtime.backend.Admission` field but ``start_s`` and
``token`` (pool bookkeeping the session never touches), and the whole
:class:`~repro.runtime.backend.Rejection`.  :func:`edge_label` keeps
exactly that part of a pool record, and the script is those labels.
Same script in, same execution out: same timeline, same energy, same
trace, same estimator state.

Naively this costs O(k^2) interpreter work for a device with k
admissions.  The :class:`SegmentCache` removes that in the common case:
devices whose specs agree on everything behavior-relevant (program,
network, stdin, files, deadline, options) form a *behavior class*, and
within a class a segment replay is a pure function of the outcome
script — so N identical devices with identical scripts cost k+1
session runs **total**, not per device, traced or not: a session's
trace names no device (:meth:`~repro.fleet.result.FleetResult.
merged_events` stamps the ids), so a finished result is as shareable
as a request boundary.

The cache does O(1) work per event whatever the option count or script
length.  A device's class is *interned* once, when it arrives:
:func:`behavior_key` is built, looked up, and dropped — what the device
keeps is a reference to a node of the class's **outcome trie**
(:class:`TrieNode`), whose edges are the per-request outcome tuples.
Serving a request steps the device one edge down; the node it lands on
holds the segment every device of the class executes after that
history.  A script is therefore never stored per device and never
re-hashed: it *is* the path from the root, rebuilt by walking parents
only when a node has to be run (``TrieNode.script``).
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..runtime.backend import Admission, OffloadDispatcher, Rejection
from ..runtime.session import OffloadSession, SessionOptions, SessionResult
from .spec import DeviceSpec


def edge_label(outcome):
    """What one pool outcome looks like to a session: an admission with
    its pool bookkeeping (``start_s``/``token``) zeroed, or the
    rejection itself.  Both are immutable and hash by value, so a tuple
    of these — one per gang member, or the one rejection — labels a
    :class:`SegmentCache` trie edge, and a replayed session is handed
    the labels themselves."""
    if isinstance(outcome, Rejection):
        return outcome
    return Admission(outcome[0], outcome[1], 0.0, None, *outcome[4:])


#: One device's history with the pool: per admission request, the
#: labels of what it was granted (one per gang member) or of the
#: rejection.
Script = Tuple[tuple, ...]


class SegmentBoundary(BaseException):
    """Raised inside a replayed session at the first unscripted
    admission request — the signal that the segment is over.

    Deliberately a ``BaseException``: the runtime has no broad
    ``except BaseException`` handlers on the session path, so the
    boundary unwinds cleanly through the recursive interpreter without
    being mistaken for a guest-program error.
    """

    def __init__(self, target_name: str, now_s: float, shards: int = 1):
        super().__init__(target_name, now_s, shards)
        self.target_name = target_name
        self.now_s = now_s
        # The gang width the unscripted request asked for — the
        # scheduler must ask the real pool for the same width when it
        # serves this request.
        self.shards = shards


class ScriptedDispatcher(OffloadDispatcher):
    """Replays a recorded outcome script into a session.

    Admission request k gets the script's k-th outcome; the first
    request past the end of the script raises :class:`SegmentBoundary`.
    Releases are recorded as ``(admission, session-local time)`` pairs
    so the scheduler can hand each *real* pool slot back at exactly the
    instant the device itself would have.  Identity matters: a plan's
    members do not all release at one instant — the backend hands a
    zero-share member's slot back at sizing time while the rest release
    at plan end — so chronological release order is not grant order,
    and pairing by position would free the wrong server's slot.
    """

    def __init__(self, script: Script):
        self._script = script
        self._cursor = 0
        self._admissions_granted = 0
        self._last_grant: List[Admission] = []
        self.release_log: List[Tuple[Admission, float]] = []

    def admit(self, target_name: str, now_s: float, shards: int = 1):
        if self._cursor >= len(self._script):
            raise SegmentBoundary(target_name, now_s, shards)
        edge = self._script[self._cursor]
        self._cursor += 1
        if isinstance(edge[0], Rejection):
            self._last_grant = []
            return edge[0]
        grant = list(edge)
        self._admissions_granted += len(grant)
        self._last_grant = grant
        return grant

    def release(self, admission: Admission, now_s: float) -> None:
        self.release_log.append((admission, now_s))

    @property
    def last_release_ts(self) -> Tuple[float, ...]:
        """Session-local release times of the script's final grant, in
        GRANT order (empty when the script is empty or ends in a
        rejection) — matched by admission identity (the log holds every
        released admission alive, so ``id`` is collision-free), which is
        what lets the scheduler zip them against the real pool's grant
        list even when a zero-share member released early."""
        if len(self.release_log) != self._admissions_granted:
            raise RuntimeError(
                "replayed session ended with an unreleased admission "
                f"({len(self.release_log)} releases for "
                f"{self._admissions_granted} admissions)")
        times = {id(a): t for a, t in self.release_log}
        return tuple(times[id(m)] for m in self._last_grant)


@dataclass
class Segment:
    """What one replayed execution segment produced.

    Either the device stopped at its next admission request
    (``target``/``local_t``/``shards`` set) or it ran to completion
    (``result`` set).  ``release_local_ts`` holds the session-local
    times the members of the script's final grant were released, in
    grant order — the scheduler applies them to the real pool before
    serving anyone else, preserving the pool call order admit(k),
    release(k), admit(k+1).
    """

    target: Optional[str] = None
    local_t: Optional[float] = None
    result: Optional[SessionResult] = None
    shards: int = 1     # gang width the boundary request asked for
    release_local_ts: Tuple[float, ...] = ()

    @property
    def done(self) -> bool:
        return self.result is not None


#: Every SessionOptions field is behavior-relevant.  The names are fixed
#: at import, so one C-level attrgetter reads them all.
_option_values = operator.attrgetter(
    *(field.name for field in dataclasses.fields(SessionOptions)))


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        value = ("id", id(value))
    return value


def behavior_key(spec: DeviceSpec, engine: str = "fifo") -> tuple:
    """The behavior class of a device: a hashable key equal for two
    specs exactly when their sessions are behaviorally interchangeable
    under identical outcome scripts.

    ``engine`` is the pool's decision-engine name: outcome scripts are
    produced by a specific placement policy, so segments must never be
    shared across engines even when the device specs agree
    (docs/placement.md).

    Unhashable or stateful option values (fault plans are frozen and
    hash by value; anything else falls back to object identity) only
    ever make the key *finer*, never coarser — a too-fine key costs
    speed, a too-coarse one would cost correctness.
    """
    parts = _option_values(spec.options or SessionOptions())
    try:
        hash(parts)
    except TypeError:       # rare: some option value needs converting
        parts = tuple(map(_hashable, parts))
    if spec.files:
        files_key = tuple(sorted(
            (name, bytes(data)) for name, data in spec.files.items()))
    else:
        files_key = None
    return (engine, id(spec.program), id(spec.network),
            bytes(spec.stdin), spec.deadline_s, files_key, parts)


def run_segment(spec: DeviceSpec, script: Script) -> Segment:
    """Run one fresh session for ``spec`` under ``script`` and capture
    where it stops."""
    dispatcher = ScriptedDispatcher(script)
    session = OffloadSession(spec.program, spec.network,
                             options=spec.options, stdin=spec.stdin,
                             files=spec.files, dispatcher=dispatcher)
    try:
        result = session.run()
    except SegmentBoundary as boundary:
        return Segment(target=boundary.target_name,
                       local_t=boundary.now_s,
                       shards=boundary.shards,
                       release_local_ts=dispatcher.last_release_ts)
    return Segment(result=result,
                   release_local_ts=dispatcher.last_release_ts)


class TrieNode:
    """One point in a behavior class's outcome trie: the history "these
    outcomes, in this order" of every device of the class that reached
    it.

    ``segment`` is what such a device executes next, once some device
    has run it (None until then); ``children`` maps the outcome tuple
    of the next admission request to the node that history continues
    at.  ``parent``/``edge`` lead back to the root,
    so the script is the path and is stored nowhere else.
    """

    __slots__ = ("parent", "edge", "children", "segment")

    def __init__(self, parent: Optional["TrieNode"] = None,
                 edge: tuple = ()):
        self.parent = parent
        self.edge = edge
        self.children: Dict[tuple, TrieNode] = {}
        self.segment: Optional[Segment] = None

    def child(self, outcomes: tuple) -> "TrieNode":
        """The node one admission request further on, the request
        having been answered with ``outcomes``."""
        node = self.children.get(outcomes)
        if node is None:
            node = self.children[outcomes] = TrieNode(self, outcomes)
        return node

    def script(self) -> Script:
        """The outcome script that leads here, rebuilt from the path."""
        edges = []
        node = self
        while node.parent is not None:
            edges.append(node.edge)
            node = node.parent
        return tuple(reversed(edges))


class SegmentCache:
    """Cross-device memoization of replayed segments.

    One outcome trie per behavior class, and every segment run is
    stored on its node: neither a request boundary nor a finished
    result carries per-device identity, so every device that reaches
    the node shares it — a finished result, its trace included, is one
    object for all of them.
    """

    def __init__(self, engine: str = "fifo") -> None:
        self._classes: Dict[tuple, TrieNode] = {}
        self.engine = engine
        self.session_runs = 0
        self.shared_hits = 0

    @property
    def behavior_classes(self) -> int:
        """How many behavior classes the fleet's devices fell into."""
        return len(self._classes)

    def enroll(self, spec: DeviceSpec) -> TrieNode:
        """The root of ``spec``'s behavior class — where a device that
        has made no admission request yet stands.  The class key is
        built here, once per device, and kept once per class."""
        key = behavior_key(spec, self.engine)
        root = self._classes.get(key)
        if root is None:
            root = self._classes[key] = TrieNode()
        return root

    def advance(self, spec: DeviceSpec, node: TrieNode) -> Segment:
        """The segment ``spec`` executes from ``node`` — from cache
        when a behaviorally identical device already ran it."""
        hit = node.segment
        if hit is not None:
            self.shared_hits += 1
            return hit
        segment = node.segment = run_segment(spec, node.script())
        self.session_runs += 1
        return segment

    def stats(self) -> dict:
        """Replay accounting (surfaced by benchmarks/test_sim_speed.py
        to gate cache regressions)."""
        return {
            "session_runs": self.session_runs,
            "shared_hits": self.shared_hits,
            # every run is stored on its own node
            "distinct_segments": self.session_runs,
        }

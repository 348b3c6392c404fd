"""The execution backend: the seam between *deciding* where an offload
target runs and the machinery that actually runs it.

:class:`RemoteBackend` runs one invocation of a target through the full
offload protocol over the session's transport/UVA/communication stack,
and owns the one way back to the mobile device: a sub-interpreter that
shares the suspended caller's stack, used for the replay after a
mid-invocation link failure, for invocations the server pool refuses to
admit and for a plan's abandoned shards.

Every invocation the remote backend starts flows through one skeleton:
admit → request phase → server execution → return phase → complete,
with one abort path around it.  Admission goes through an
:class:`OffloadDispatcher` and is list-shaped: a grant is a list of
:class:`Admission` objects, one per index-range shard of a
scatter/gather plan (docs/parallel-offload.md), and the paper's
single-server invocation is the plan of one.  The dispatcher is the
session's constructor argument, not an option: the default
(``OffloadSession(..., dispatcher=None)`` — the paper's
one-device/one-server world) resolves to :class:`DirectDispatcher`,
whose grants are immediate and free; a fleet run passes a dispatcher
wired to a shared :class:`repro.fleet.pool.ServerPool`, so admission
can carry a queueing delay (charged to the device timeline and battery
exactly as link time is) or be refused outright, in which case the
invocation degrades to local execution (docs/fleet.md).  The event-driven
:class:`repro.fleet.scheduler.FleetScheduler` supplies a
:class:`repro.fleet.replay.ScriptedDispatcher` that replays recorded
pool outcomes into the session; sessions only ever read the
session-visible fields of an :class:`Admission` (``server_id``,
``queue_seconds``, and the heterogeneous-pool fields ``speed`` /
``network`` / ``tier`` / ``deadline_s``) and the
``estimated_wait_s`` of a :class:`Rejection`, which is what makes that
replay exact (docs/simulator.md, "Replay, not resumption").

Heterogeneous pools (docs/placement.md): an admission may carry a
``speed`` multiplier — server compute time divides by it — and a
``network`` override, under which every byte of the invocation travels
the admitting tier's link (a cloud server is fast-far: big ``speed``,
WAN network).  Both default to no-ops, keeping the single-session and
homogeneous-fleet arithmetic bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, TYPE_CHECKING

from ..ir.types import I32
from ..machine.interpreter import Interpreter
from ..machine.values import decode_scalar, to_signed
from ..offload.partition import OffloadTarget
from ..offload.shard import contiguous_ranges
from .transport import LinkDownError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import OffloadSession


@dataclass
class InvocationRecord:
    """Accounting for one dynamic offload decision site execution."""

    target: str
    offloaded: bool
    init_seconds: float = 0.0
    server_seconds: float = 0.0
    cod_seconds: float = 0.0
    remote_io_seconds: float = 0.0
    fnptr_seconds: float = 0.0
    finalize_seconds: float = 0.0
    bytes_to_server: int = 0
    bytes_to_mobile: int = 0
    cod_faults: int = 0
    local_seconds: float = 0.0
    # Mid-invocation failure accounting: an aborted invocation burned
    # `wasted_seconds` on the dead link in `abort_phase`
    # (init/exec/finalize), then replayed the target locally
    # (`fallback_local`).
    aborted: bool = False
    abort_phase: Optional[str] = None
    fallback_local: bool = False
    wasted_seconds: float = 0.0
    # Fleet accounting (docs/fleet.md): time spent queued for a server
    # slot, which server served the invocation, and whether the pool
    # refused admission (the invocation then ran locally).
    queue_seconds: float = 0.0
    server_id: Optional[int] = None
    rejected: bool = False
    # Placement accounting (docs/placement.md): the tier that served
    # the invocation, and the deadline the request carried into the
    # pool's decision engine.
    tier: Optional[str] = None
    deadline_s: Optional[float] = None
    # Scatter/gather plan accounting (docs/parallel-offload.md): how
    # many index-range shards served the invocation, which servers they
    # landed on, the iteration count each carried, the parallel wall
    # time the mobile actually waited (max surviving shard), and how
    # many shards were abandoned and replayed locally.
    shards: int = 1
    shard_servers: Optional[List[int]] = None
    shard_sizes: Optional[List[int]] = None
    shard_wall_seconds: float = 0.0
    stragglers: int = 0

    @property
    def traffic_bytes(self) -> int:
        return self.bytes_to_server + self.bytes_to_mobile

    @property
    def status(self) -> str:
        """The outcome, in the trace spans' vocabulary
        (``repro.trace.analysis.spans.STATUSES``)."""
        if self.offloaded:
            return "offloaded"
        if self.rejected:
            return "rejected"
        return "aborted" if self.aborted else "declined"


class Admission(NamedTuple):
    """A granted server slot for one offload invocation (an immutable
    tuple: the pool builds one per admission).

    Sessions read every field but ``start_s``/``token``, which are pool
    bookkeeping.  The event-driven fleet scheduler's replay depends on
    that split: :func:`repro.fleet.replay.edge_label` zeroes those two,
    so a field added here is session-visible — and replayed — unless
    that function zeroes it too.
    """

    server_id: int = 0
    queue_seconds: float = 0.0    # time the device waits before service
    start_s: float = 0.0          # global fleet time service begins
    token: object = None          # pool-internal reservation handle
    # Heterogeneous-pool fields (docs/placement.md).  speed divides
    # server compute time; network, when set, is the admitting tier's
    # link the comm layer uses for the whole invocation.  tier and
    # deadline_s are echoes for InvocationRecord accounting.
    speed: float = 1.0
    network: object = None        # NetworkModel override or None
    tier: Optional[str] = None
    deadline_s: Optional[float] = None


@dataclass(frozen=True)
class Rejection:
    """Admission refused: every eligible queue was full."""

    estimated_wait_s: float = 0.0  # the wait the job would have faced


class OffloadDispatcher:
    """Where :class:`RemoteBackend` asks for servers.

    ``admit`` receives the target name, the *session-local* current
    time and how many index-range shards the invocation could use, and
    returns a :class:`Rejection` or a grant: a list of one to ``shards``
    :class:`Admission` objects.  Fewer than asked is the
    degrade-to-fewer ladder of docs/parallel-offload.md; ``shards=1`` is
    the paper's single-server invocation.  ``release`` hands one granted
    slot back at the session-local end time.  Fleet dispatchers
    translate session-local time to global fleet time by adding the
    device's start offset.
    """

    def admit(self, target_name: str, now_s: float, shards: int = 1):
        raise NotImplementedError

    def release(self, admission: Admission, now_s: float) -> None:
        raise NotImplementedError


class DirectDispatcher(OffloadDispatcher):
    """The paper's dedicated server: admission is immediate and free."""

    def admit(self, target_name: str, now_s: float,
              shards: int = 1) -> List[Admission]:
        # The dedicated server runs every shard itself; the plan's
        # speedup model is k slots of the same machine.
        return [Admission(server_id=0, queue_seconds=0.0, start_s=now_s)
                for _ in range(shards)]

    def release(self, admission: Admission, now_s: float) -> None:
        pass


class RemoteBackend:
    """The full offload protocol of the paper's Figure 5, over the
    session's transport/UVA/communication stack, with local execution on
    the mobile device as its degradation path."""

    def __init__(self, session: "OffloadSession",
                 dispatcher: Optional[OffloadDispatcher] = None):
        self.session = session
        # None (the default) is the paper's dedicated server; fleet
        # runs substitute a pooled dispatcher here.
        self.dispatcher = dispatcher or DirectDispatcher()

    # -- the offload protocol -----------------------------------------
    def execute(self, target: OffloadTarget, interp: Interpreter,
                args: List):
        session = self.session
        tr = session.tracer
        session._mark_compute()
        record = InvocationRecord(target=target.name, offloaded=True)

        # ---- admit ------------------------------------------------
        # A shardable target asks for a gang of zero-wait slots and
        # scatters its index range across the ones it gets
        # (docs/parallel-offload.md).  Every other outcome — target not
        # shardable, trip count too small, gang degraded to one slot —
        # is the plan of one: the paper's single-server invocation.
        spec, trip = self._plan_shards(target, args)
        grant = self.dispatcher.admit(target.name, session.now(),
                                      min(session.options.shards, trip))
        if isinstance(grant, Rejection):
            return self._rejected(target, interp, args, record, grant)
        if not isinstance(grant, list):
            # An Admission is a tuple too: a bare one would read as a
            # gang of its eight fields.
            raise TypeError(f"dispatcher granted {grant!r}; a grant is a "
                            "list of Admission")
        shards = self._size_shards(spec, trip, grant)
        override = None
        if len(shards) == 1:
            admission = shards[0][0]
            record.server_id = admission.server_id
            record.tier = admission.tier
            record.deadline_s = admission.deadline_s
            if admission.queue_seconds > 0.0:
                record.queue_seconds = admission.queue_seconds
                if tr.enabled:
                    tr.emit("offload.queue", target.name,
                            dur=admission.queue_seconds,
                            server=admission.server_id)
                if not session.options.zero_overhead:
                    session._advance(admission.queue_seconds, "queue")
            # gang members never carry one: a plan speaks one link
            override = admission.network
        else:
            record.shards = len(shards)
            record.shard_servers = [a.server_id for a, _ in shards]
            record.shard_sizes = [hi - lo for _, (lo, hi) in shards]

        # ---- tier network override (docs/placement.md) ------------
        # A cloud-tier admission carries the WAN NetworkModel the
        # device must talk through for this invocation (without one the
        # device keeps its own).  Swap it in for the protocol body and
        # restore the device's own link afterwards — the finally runs
        # even when the body returns through the abort/local-fallback
        # paths.
        saved = session.network
        network = override or saved
        session.network = network
        session.comm.set_network(network)
        try:
            return self._protocol(target, interp, args, record, spec,
                                  shards)
        finally:
            session.network = saved
            session.comm.set_network(saved)

    def _plan_shards(self, target: OffloadTarget, args: List):
        """The ``(spec, trip_count)`` of a scatterable invocation, or
        ``(None, 1)`` for the plan of one: the target was not proven
        shardable at compile time, the session did not ask for shards,
        or the runtime trip count is too small to split."""
        session = self.session
        spec = session.program.shard_specs.get(target.name)
        if session.options.shards <= 1 or spec is None:
            return None, 1
        trip = spec.static_trip_count()
        if trip is None:
            if spec.bound_global is not None:
                # an int of the mobile program, in the mobile's layout
                mobile = session.mobile
                addr = mobile.address_of_global(spec.bound_global)
                bound = decode_scalar(mobile.memory.read(addr, 4), I32,
                                      mobile.layout)
            else:
                bound = int(args[spec.bound_arg])
            bound = to_signed(bound, 32)
            trip = max(0, bound - spec.iv_init)
        if trip < 2:
            return None, 1
        return spec, trip

    def _size_shards(self, spec, trip: int, grant: List[Admission]):
        """Pair each granted slot with the ``[lo, hi)`` index range it
        serves.  A grant of one — or a gang whose speed/queue-aware
        sizing left fewer than two non-empty shares — is the plan of
        one: ``[(admission, None)]``, the whole target on one server."""
        if len(grant) >= 2:
            sizes = self.session.estimator.plan_shard_sizes(trip, grant)
            shards = []
            for admission, rng in zip(
                    grant, contiguous_ranges(spec.iv_init, sizes)):
                if rng[1] > rng[0]:
                    shards.append((admission, rng))
                else:
                    # a zero share: hand the slot straight back
                    self._release([admission])
            if len(shards) >= 2:
                return shards
            grant = [admission for admission, _ in shards]
        return [(grant[0], None)]

    def _protocol(self, target: OffloadTarget, interp: Interpreter,
                  args: List, record: InvocationRecord, spec, shards):
        """The admitted protocol body: request → server execution →
        return → complete, for a plan of any width.

        The plan of one is Figure 5 verbatim (init → offloading
        execution → finalize): the target itself runs on the admitting
        server, and the return message carries its dirty pages and the
        allocator state.  A wider plan runs the compile-time
        ``__no_shard_`` wrapper once per ``[lo, hi)`` slice.  Its
        shards share the invocation's read-only pages through the
        ordinary UVA copy-on-demand machinery and write disjoint index
        ranges (the shard analysis proves stores are affine in the
        induction variable), so their dirty deltas merge without
        conflict at gather time.  The mobile device charges the scatter
        once, waits through the *slowest surviving* shard (that is the
        whole speedup) and replays abandoned shards locally.  Shardable
        targets cannot call, so a wide plan has no remote I/O, no
        function-pointer window and no allocator state to pull back.

        Runs under the admitting tier's network override when one is in
        effect; ``admission.speed`` divides server compute time (a 1.0
        speed is a bit-exact no-op)."""
        session = self.session
        opts = session.options
        zero = opts.zero_overhead
        tr = session.tracer
        wide = len(shards) > 1
        admissions = [admission for admission, _ in shards]
        request_phase, return_phase = (("scatter", "gather") if wide
                                       else ("init", "finalize"))
        bytes_s0 = session.comm.stats.bytes_to_server
        bytes_m0 = session.comm.stats.bytes_to_mobile
        faults0 = session.uva.stats.cod_faults

        # Observable-state snapshot for abort-and-replay: remote I/O
        # mutates the mobile environment mid-execution, so a failed
        # invocation must roll those effects back before the local
        # replay.  Only taken on a faulty link — the fault-free path
        # does no extra work (the zero-fault no-op invariant).
        io_snapshot = (session.mobile.io.snapshot()
                       if session._faulty else None)
        if tr.enabled:
            prefetch_pages0 = session.uva.stats.prefetched_pages
            fnptr_seconds0 = session.fnptr_seconds
            fnptr_lookups0 = session.fcn_table.total_lookups
            writeback_pages0 = session.uva.stats.written_back_pages
            writeback_bytes0 = session.uva.stats.written_back_bytes

        # ---- request phase (Figure 5 initialization) --------------
        # One batched message carries the page table, the allocator
        # state, the prefetched pages and one offload request per
        # shard (target id, stack pointer, argument registers; a wide
        # plan adds each shard's [lo, hi) bounds).  The simulated link
        # is a single medium, so a scatter is broadcast-priced: shards
        # on different servers still share the one uplink.
        session.uva.begin_invocation(target.name)
        comm_phase0 = session.comm.stats.comm_seconds
        session.comm.begin_batch(to_server=True)
        try:
            request_s = session.uva.synchronize_page_table()
            request_s += session.uva.push_allocator_state()
            if opts.enable_prefetch:
                request_s += session.uva.prefetch(
                    session._prefetch_pages(interp.sp))
            request = ((32 + 16 * (len(args) + 2)) * len(shards) if wide
                       else 32 + 16 * len(args))
            request_s += session.comm.send_to_server(
                [b"\x00" * request]).seconds
            request_s += session.comm.flush_batch().seconds
        except LinkDownError:
            return self._abort(
                target, interp, args, record, request_phase,
                session.comm.stats.comm_seconds - comm_phase0,
                "transmit", io_snapshot, admissions)
        if zero:
            request_s = 0.0
        record.init_seconds = request_s
        if tr.enabled:
            fields = (dict(shards=len(shards),
                           ranges=[list(rng) for _, rng in shards])
                      if wide else {})
            tr.emit("offload." + request_phase, target.name,
                    dur=request_s, **fields,
                    prefetch_pages=(session.uva.stats.prefetched_pages
                                    - prefetch_pages0),
                    bytes_to_server=(session.comm.stats.bytes_to_server
                                     - bytes_s0),
                    args=len(args))
        session._advance(request_s, "transmit",
                         session.meter.transmit_power(
                             0.9, session.network.slow))

        # ---- server execution -------------------------------------
        # The simulator has one server Machine; a wide plan's shards
        # run on it sequentially and the parallel wall time is
        # reconstructed analytically below (max over surviving shards).
        # Each shard's dirty pages are captured and staged between
        # executions so the shards never observe each other's writes —
        # exactly the isolation k independent servers would give.
        injected = frozenset(opts.shard_faults or () if wide else ())
        fn = session.server.module.function(
            spec.wrapper if wide else target.name)
        rio0 = session._rio_pending
        session._rio_pending = 0.0
        comm_phase0 = session.comm.stats.comm_seconds
        runs: List[Optional[dict]] = []
        server_interp: Optional[Interpreter] = None
        result = None
        try:
            for index, (admission, rng) in enumerate(shards):
                if index in injected:
                    # injected shard fault: this server never answered
                    runs.append(None)
                    server_interp = None
                    continue
                session.server.memory.clear_dirty()
                server_interp = Interpreter(session.server)
                cod_before = session.uva.stats.cod_seconds
                faults_before = session.uva.stats.cod_faults
                result = server_interp.call_function(
                    fn, list(args) + list(rng) if wide else args)
                session.server_instructions += (
                    server_interp.instruction_count)
                run = {
                    "index": index,
                    "exec": server_interp.time_seconds / admission.speed,
                    "instructions": server_interp.instruction_count,
                    "cod": (0.0 if zero
                            else session.uva.stats.cod_seconds
                            - cod_before),
                    "faults": (session.uva.stats.cod_faults
                               - faults_before),
                }
                if wide:
                    run["capture"], run["payloads"] = (
                        session.uva.capture_shard_writeback())
                runs.append(run)
        except LinkDownError:
            # A CoD fault or remote I/O burst hit a dead link while a
            # server was computing.  Every execution so far — including
            # the partial one — is real server work the mobile waited
            # through in parallel: charge the max as wall time, account
            # the sum as server compute, and report the overlap so the
            # trace buckets reconcile; then abort and replay.
            session._rio_pending = rio0
            executed = [run["exec"] for run in runs if run]
            if server_interp is not None:
                session.server_instructions += (
                    server_interp.instruction_count)
                executed.append(
                    server_interp.time_seconds / admission.speed)
            total_exec = sum(executed)
            wall = max(executed, default=0.0)
            record.server_seconds = total_exec
            if wide:
                record.shard_wall_seconds = wall
            session.server_compute_seconds += total_exec
            if not zero:
                session._advance(wall, "wait")
            if tr.enabled:
                self._trace_fnptr_window(target, fnptr_lookups0,
                                         fnptr_seconds0)
            return self._abort(
                target, interp, args, record, "exec",
                session.comm.stats.comm_seconds - comm_phase0,
                "receive", io_snapshot, admissions,
                overlap_seconds=max(total_exec - wall, 0.0))
        rio_seconds = session._rio_pending
        session._rio_pending = rio0

        # ---- straggler decision -----------------------------------
        # A shard is a straggler when its fault was injected or when it
        # ran longer than straggler_factor x the fastest shard (never
        # true of a plan of one).  Its captured delta is discarded
        # (never applied, never priced) and its index range is replayed
        # locally after the merge; a *late* straggler's server time is
        # wasted work, not wall time.
        done = [run["exec"] for run in runs if run]
        fastest = min(done) if done else 0.0
        factor = opts.straggler_factor
        stragglers = [
            index for index, run in enumerate(runs)
            if run is None or (factor > 0.0
                               and run["exec"] > factor * fastest)]
        for index in stragglers:
            run = runs[index]
            if run is not None:
                session.uva.discard_shard_writeback(run["capture"])
                record.wasted_seconds += run["exec"]
        record.stragglers = len(stragglers)
        survivors = [run for run in runs
                     if run and run["index"] not in stragglers]

        # ---- survivors become the invocation's server compute -----
        wall_wait = 0.0
        server_total = 0.0
        cod_total = 0.0
        for run in survivors:
            wall_wait = max(wall_wait, run["exec"])
            server_total += run["exec"]
        for run in runs:
            if run is not None:
                cod_total += run["cod"]
        overlap = max(server_total - wall_wait, 0.0)
        session.server_compute_seconds += server_total
        record.server_seconds = server_total
        record.cod_seconds = cod_total
        record.remote_io_seconds = rio_seconds
        if wide:
            record.shard_wall_seconds = wall_wait
        if tr.enabled:
            for run in survivors:
                fields = dict(instructions=run["instructions"],
                              cod_faults=run["faults"],
                              cod_seconds=run["cod"])
                if wide:
                    index = run["index"]
                    lo, hi = shards[index][1]
                    fields = dict(shard=index, lo=lo, hi=hi,
                                  server=admissions[index].server_id,
                                  **fields)
                else:
                    fields["remote_io_seconds"] = rio_seconds
                tr.emit("offload.exec", target.name, dur=run["exec"],
                        **fields)
            self._trace_fnptr_window(target, fnptr_lookups0,
                                     fnptr_seconds0)

        def charge_waits() -> None:
            # the mobile waits while the servers compute (through the
            # slowest surviving shard of a wide plan); it receives
            # during CoD transfers and services remote I/O bursts
            session._advance(wall_wait, "wait")
            session._advance(cod_total, "receive")
            session._advance(rio_seconds, "remote_io")

        # The plan of one charges its waits before the return message;
        # a wide plan after its gather — the order each path's trace
        # timestamps were pinned with, kept byte for byte.
        if not wide:
            charge_waits()

        # ---- return phase (Figure 5 finalization) -----------------
        # One batched, compressed message carries the dirty pages (a
        # wide plan: every surviving shard's staged delta), the
        # allocator state (plan of one only) and a termination record
        # with the return value.  Transactional: everything is staged
        # on the UVA manager's one list and applied by commit_finalize
        # only after the whole message survives the transport — a
        # mid-return link death leaves mobile memory untouched and the
        # whole target replays locally (abort-and-replay invariant,
        # DESIGN.md §5).
        comm_phase0 = session.comm.stats.comm_seconds
        session.comm.begin_batch(to_server=False)
        try:
            if wide:
                return_s = sum(session.uva.send_writeback(run["payloads"])
                               for run in survivors)
            else:
                return_s, _ = session.uva.write_back()
                return_s += session.uva.pull_allocator_state()
            return_s += session.comm.send_to_mobile(
                [b"\x00" * 64]).seconds
            return_s += session.comm.flush_batch().seconds
        except LinkDownError:
            if wide and not zero:
                charge_waits()   # the parallel wait already happened
            return self._abort(
                target, interp, args, record, return_phase,
                session.comm.stats.comm_seconds - comm_phase0,
                "receive", io_snapshot, admissions,
                overlap_seconds=overlap)
        if zero:
            return_s = 0.0
        record.finalize_seconds = return_s
        if wide:
            charge_waits()
            session._advance(return_s, "receive")
        session.uva.commit_finalize()
        session.uva.end_invocation()

        # ---- straggler local replay -------------------------------
        # After the survivors' deltas are merged, each abandoned index
        # range re-executes on the mobile copy of the wrapper, charged
        # as ordinary mobile compute (time and energy).  The replay
        # writes the same elements a healthy shard would have, which
        # also re-dirties those pages mobile-side — the next
        # synchronization invalidates any stale server copy.
        for index in stragglers:
            lo, hi = shards[index][1]
            sub, _ = self._replay(spec.wrapper, interp,
                                  list(args) + [lo, hi])
            record.local_seconds += sub.time_seconds
            if tr.enabled:
                tr.emit("offload.straggler", target.name,
                        dur=sub.time_seconds,
                        seconds=sub.time_seconds,
                        shard=index, lo=lo, hi=hi,
                        reason=("fault" if index in injected
                                else "late"),
                        instructions=sub.instruction_count)

        # The return event closes the invocation span.  A gather's
        # overlap_seconds is what the parallel wait saved versus serial
        # execution and is what lets the critical-path buckets sum to
        # charged wall.
        if tr.enabled:
            bytes_to_mobile = (session.comm.stats.bytes_to_mobile
                               - bytes_m0)
            if wide:
                tr.emit("offload.gather", target.name, dur=return_s,
                        shards=len(shards), survivors=len(survivors),
                        stragglers=len(stragglers),
                        overlap_seconds=overlap,
                        bytes_to_mobile=bytes_to_mobile)
            else:
                tr.emit("offload.finalize", target.name, dur=return_s,
                        writeback_pages=(
                            session.uva.stats.written_back_pages
                            - writeback_pages0),
                        writeback_bytes=(
                            session.uva.stats.written_back_bytes
                            - writeback_bytes0),
                        bytes_to_server=(
                            session.comm.stats.bytes_to_server
                            - bytes_s0),
                        bytes_to_mobile=bytes_to_mobile)
        if not wide:
            session._advance(return_s, "receive")

        # ---- complete ---------------------------------------------
        record.bytes_to_server = (session.comm.stats.bytes_to_server
                                  - bytes_s0)
        record.bytes_to_mobile = (session.comm.stats.bytes_to_mobile
                                  - bytes_m0)
        record.cod_faults = session.uva.stats.cod_faults - faults0
        session.invocations.append(record)
        session.estimator.record_offload_traffic(
            target.name, record.traffic_bytes)
        self._release(admissions)
        return spec.ret_const if wide else result

    # -- admission refused: degrade to local execution ----------------
    def _rejected(self, target: OffloadTarget, interp: Interpreter,
                  args: List, record: InvocationRecord,
                  rejection: Rejection):
        """Every eligible server queue was full.  The refused request
        still cost one control round trip on the link; charge it, teach
        the estimator the pool is saturated, and run the target on the
        mobile device (docs/fleet.md, "Admission control")."""
        session = self.session
        record.offloaded = False
        record.rejected = True
        probe = 0.0
        if not session.options.zero_overhead:
            probe = session.network.round_trip_time(16, 16)
            session._advance(probe, "wait")
        record.wasted_seconds = probe
        session.estimator.record_pool_rejection(
            rejection.estimated_wait_s)
        tr = session.tracer
        if tr.enabled:
            tr.emit("offload.reject", target.name,
                    estimated_wait_s=rejection.estimated_wait_s,
                    probe_seconds=probe)
        session.invocations.append(record)
        return self._fall_back(target, interp, args, record)

    # -- mid-invocation failure: abort and replay locally --------------
    def _abort(self, target: OffloadTarget, interp: Interpreter,
               args: List, record: InvocationRecord, phase: str,
               wasted_seconds: float, power_state: str,
               io_snapshot: Optional[dict],
               admissions: List[Admission],
               overlap_seconds: float = 0.0):
        """The transport declared the link dead mid-invocation: discard
        every server-side effect, roll the mobile environment back to
        its pre-invocation state, charge the wasted wall time and replay
        the target locally (docs/fault-model.md, "Fallback
        semantics")."""
        session = self.session
        record.offloaded = False
        record.aborted = True
        record.abort_phase = phase
        record.wasted_seconds = wasted_seconds
        # tear down the distributed state: the open batch and every
        # staged or server-side UVA effect
        session.comm.discard_batch()
        session.uva.abort_invocation()
        if io_snapshot is not None:
            session.mobile.io.restore(io_snapshot)
        if not session.options.zero_overhead:
            # "transmit" has no flat power figure: its draw scales with
            # link utilization, exactly as on the successful init path.
            power_mw = (session.meter.transmit_power(
                            0.9, session.network.slow)
                        if power_state == "transmit" else None)
            session._advance(wasted_seconds, power_state, power_mw)
        backoff = session.estimator.record_offload_failure(target.name)
        self._release(admissions)
        tr = session.tracer
        if tr.enabled:
            # server_seconds: partial server execution a mid-exec abort
            # already charged into server_compute_seconds — without it
            # here the trace could not reconcile that total
            # (repro.trace.analysis.spans.validate_sessions).  An abort
            # in the return phase reports none: the offload.exec events
            # already emitted carry the compute.  A plan abort also
            # reports the parallel overlap so the critical-path buckets
            # still sum to charged wall.  failures / failure_cooldown
            # are the target's decision backoff after this abort.
            payload = dict(
                phase=phase, wasted_seconds=wasted_seconds,
                server_seconds=(record.server_seconds
                                if phase == "exec" else 0.0),
                failures=backoff.failures,
                failure_cooldown=backoff.cooldown)
            if record.shards > 1:
                payload["shards"] = record.shards
                payload["overlap_seconds"] = overlap_seconds
            tr.emit("offload.abort", target.name, **payload)
        session.invocations.append(record)
        return self._fall_back(target, interp, args, record)

    # -- local execution on the mobile device --------------------------
    def _replay(self, fn_name: str, interp: Interpreter, args: List):
        """Run one function of the mobile module on a sub-interpreter and
        charge it to ``interp``; returns ``(sub-interpreter, return
        value)``.  Shared by whole-target fallbacks and the per-range
        replay of a plan's abandoned shards.

        The sub-interpreter shares the suspended interpreter's stack
        pointer — a fresh interpreter would start at stack_top and
        clobber the live frames of the suspended caller.  Its cycles are
        charged (unscaled) to the main interpreter so the run is
        ordinary mobile compute time on the timeline and in the energy
        model, and its observer feeds the dynamic estimator an observed
        local execution time for the target."""
        session = self.session
        fn = session.mobile.module.function(fn_name)
        sub = Interpreter(session.mobile, observer=interp.observer)
        sub.sp = interp.sp
        result = sub.call_function(fn, args)
        interp.charge_raw_cycles(sub.cycles)
        session._replay_instructions += sub.instruction_count
        return sub, result

    def _fall_back(self, target: OffloadTarget, interp: Interpreter,
                   args: List, record: InvocationRecord):
        """Run a refused or aborted invocation's whole target locally."""
        sub, result = self._replay(target.body, interp, args)
        record.fallback_local = True
        record.local_seconds = sub.time_seconds
        tr = self.session.tracer
        if tr.enabled:
            tr.emit("offload.fallback", target.name,
                    seconds=sub.time_seconds,
                    instructions=sub.instruction_count)
        return result

    def _trace_fnptr_window(self, target: OffloadTarget, lookups0: int,
                            seconds0: float) -> None:
        """One ``fnptr.window`` event for the look-ups the server made
        since the invocation began, whether its window completed or was
        aborted mid-execution.  Lookups are nanosecond-scale and
        frequent, so they are traced per invocation, not one by one;
        the function address table counts them whether or not anyone
        traces."""
        session = self.session
        lookups = session.fcn_table.total_lookups - lookups0
        if lookups:
            session.tracer.emit("fnptr.window", target.name,
                                lookups=lookups,
                                seconds=session.fnptr_seconds - seconds0)

    def _release(self, admissions: List[Admission]) -> None:
        """Hand the granted slots back — a plan releases every member
        at the same session-local instant — and feed the observed
        queueing delay into the estimator (the contention feedback loop
        of docs/fleet.md)."""
        session = self.session
        now_s = session.now()
        for admission in admissions:
            self.dispatcher.release(admission, now_s)
            session.estimator.record_queue_delay(
                admission.server_id, admission.queue_seconds,
                speed=admission.speed)

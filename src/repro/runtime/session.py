"""The Native Offloader runtime: seamless cooperative execution of the
offloading-enabled binaries (paper, Section 4, Figure 5).

An :class:`OffloadSession` owns one mobile machine and one server machine,
loads the two partitions, wires the runtime services (dynamic estimation,
UVA copy-on-demand, remote I/O forwarding, function-pointer mapping), and
executes the program with full time/energy accounting:

    local execution -> [decision] -> initialization -> offloading
    execution (CoD faults, remote I/O) -> finalization -> local execution

Simulated wall-clock time on the mobile device is the sum of its own
compute time plus everything it waits for; the power-state model integrates
that timeline into battery energy (Figures 6(b) and 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional

from ..machine.energy import EnergyMeter, PowerTrace
from ..machine.fs import GuestOutput, IOEnvironment
from ..machine.interpreter import Interpreter, Observer
from ..machine.libc import STDIO, StdioOp
from ..machine.machine import MOBILE_STACK_TOP, UVA_HEAP_BASE, boot
from ..offload.partition import OffloadTarget, OFFLOAD_PREFIX, SHOULD_OFFLOAD
from ..offload.pipeline import OffloadProgram
from ..offload.server_opt import (M2S_FCN_MAP, REMOTE_IO_FUNCTIONS,
                                  REMOTE_IO_PREFIX, S2M_FCN_MAP)
from ..runtime.backend import (InvocationRecord, OffloadDispatcher,
                               RemoteBackend)
from ..runtime.comm import CommunicationManager
from ..runtime.dynamic_estimator import DynamicPerformanceEstimator
from ..runtime.fcn_table import (FunctionAddressTable, MAP_LOOKUP_CYCLES)
from ..runtime.local import GuestRun
from ..runtime.network import FaultPlan, NetworkModel
from ..runtime.transport import RetryPolicy, TransportStats
from ..runtime.uva import UVAManager, UVAStats
from ..targets.arch import performance_ratio
from ..trace import NULL_TRACER, Tracer
from ..trace.tracer import DEFAULT_CAPACITY as TRACE_DEFAULT_CAPACITY


@dataclass
class SessionOptions:
    enable_prefetch: bool = True
    enable_batching: bool = True
    enable_compression: bool = True
    # Incremental UVA data plane (docs/uva-data-plane.md): cross-
    # invocation page cache + version vectors, sub-page delta transfers,
    # and fault-history-driven adaptive prefetch, on or off together.
    # Off, the data plane is the naive one (full invalidation, whole
    # pages) — the differential tests assert bit-identical program
    # output and final mobile memory between the two.
    enable_incremental_uva: bool = True
    enable_dynamic_estimation: bool = True
    enable_stack_reallocation: bool = True
    # Ideal-offloading mode: overheads (communication, remote I/O,
    # function-pointer translation) cost zero time; Figure 6's "Ideal".
    zero_overhead: bool = False
    # Structured tracing (repro.trace): off by default and strictly
    # observational — with tracing disabled the session performs exactly
    # the arithmetic it performs without the subsystem (the
    # tracing-disabled invariant; see docs/observability.md).
    enable_tracing: bool = False
    trace_capacity: int = TRACE_DEFAULT_CAPACITY
    # Link fault injection (docs/fault-model.md): a seeded FaultPlan
    # turns the perfect simulated link into one with jitter, drops,
    # disconnects and bandwidth collapse.  None (or an empty plan) keeps
    # every session number bit-identical to the fault-free runtime — the
    # zero-fault no-op invariant of DESIGN.md §5.
    fault_plan: Optional[FaultPlan] = None
    # Transport retry/backoff/reconnect budget; None uses the defaults.
    retry_policy: Optional[RetryPolicy] = None
    # Scatter/gather parallel offload (docs/parallel-offload.md).
    # ``shards`` is the *desired* plan width k: a shardable target's
    # invocation is split into up to k index-range shards scattered
    # across servers and gathered afterwards.  1 (the default) is the
    # paper's single-server path, byte-identical to the pre-plan
    # runtime; non-shardable targets degrade to 1 at any setting.
    shards: int = 1
    # Straggler policy: a shard whose execution time exceeds
    # ``straggler_factor`` x the fastest shard's is abandoned and
    # replayed locally (charged to mobile time/energy).  0.0 disables
    # lateness detection (only injected faults straggle); any other
    # value must be >= 1.0 — a factor in (0, 1) would brand every
    # shard, the fastest included, a straggler.
    straggler_factor: float = 0.0
    # Fault injection for the shard-fault differential tests: shard
    # indices in this tuple never execute server-side and are replayed
    # locally on gather (DESIGN.md §5, shard-fault invariant).
    shard_faults: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.straggler_factor != 0.0 and self.straggler_factor < 1.0:
            raise ValueError(
                "straggler_factor must be 0.0 (disabled) or >= 1.0; "
                f"got {self.straggler_factor!r} — a factor below 1.0 "
                "would abandon every shard, the fastest included")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1; got {self.shards!r}")


@dataclass
class SessionResult(GuestRun):
    program: str
    network: str
    output: GuestOutput
    total_seconds: float
    mobile_compute_seconds: float
    server_compute_seconds: float
    comm_seconds: float
    remote_io_seconds: float
    fnptr_seconds: float
    energy_mj: float
    power_trace: PowerTrace
    invocations: List[InvocationRecord]
    instructions_mobile: int
    instructions_server: int
    cod_faults: int
    bytes_to_server: int
    bytes_to_mobile: int
    compression_saved_bytes: int
    # The session's tracer when SessionOptions.enable_tracing was set
    # (None otherwise); carries the event ring buffer.  See
    # docs/observability.md.
    trace: Optional[Tracer] = None
    # Transport-layer counters (retries, drops, reconnects, backoff);
    # all zeros on a fault-free link.
    transport_stats: Optional[TransportStats] = None
    # UVA data-plane counters (prefetch/write-back timing, page-cache
    # hits, delta savings, adaptive-prefetch hit/waste).
    uva_stats: Optional[UVAStats] = None

    def trace_events(self):
        """The captured trace events ([] when tracing was disabled)."""
        return self.trace.events() if self.trace is not None else []

    @property
    def offloaded_invocations(self) -> int:
        return sum(1 for r in self.invocations if r.offloaded)

    @property
    def queue_seconds(self) -> float:
        """Simulated time spent waiting for a server slot (fleet runs)."""
        return sum(r.queue_seconds for r in self.invocations)

    @property
    def aborted_invocations(self) -> int:
        """Invocations that started offloading but lost the link."""
        return sum(1 for r in self.invocations if r.aborted)

    @property
    def local_fallbacks(self) -> int:
        """Invocations that degraded to local execution after starting
        down the offload path: aborted ones (all of them, unless the
        abort itself failed — which would have raised) plus
        pool-rejected ones."""
        return sum(1 for r in self.invocations if r.fallback_local)

    @property
    def wasted_seconds(self) -> float:
        """Simulated time burned on deliveries that never completed."""
        return sum(r.wasted_seconds for r in self.invocations)

    def breakdown(self) -> Dict[str, float]:
        """The Figure 7 stack: computation / fn-ptr / remote I/O / comm."""
        return {
            "computation": (self.mobile_compute_seconds
                            + self.server_compute_seconds),
            "fn_ptr_translation": self.fnptr_seconds,
            "remote_io": self.remote_io_seconds,
            "communication": self.comm_seconds,
        }

    @property
    def traffic_per_invocation_mb(self) -> float:
        n = max(self.offloaded_invocations, 1)
        return (self.bytes_to_server + self.bytes_to_mobile) / n / 1e6

    # -- the summary lines `repro run` and `repro trace` print -----------
    def scatter_lines(self) -> List[str]:
        """How many invocations ran as multi-shard plans and what the
        fan-out bought (docs/parallel-offload.md); none without one."""
        plans = [r for r in self.invocations if r.shards > 1]
        if not plans:
            return []
        shards = sum(r.shards for r in plans)
        wall = sum(r.shard_wall_seconds for r in plans)
        serial = sum(r.server_seconds for r in plans)
        stragglers = sum(r.stragglers for r in plans)
        return [f"  scatter : {len(plans)} plan(s), {shards} shards, "
                f"parallel exec {wall * 1e3:.2f} ms "
                f"(serial {serial * 1e3:.2f} ms), "
                f"{stragglers} straggler(s) replayed locally"]

    def uva_lines(self) -> List[str]:
        """The UVA data plane (docs/uva-data-plane.md).  Phase seconds
        are the values the prefetch/write_back calls charged directly;
        inside a batching window the batch flush carries the wall time,
        so these read 0."""
        us = self.uva_stats
        if us is None:
            return []
        attempts = us.prefetch_hits + us.prefetch_wasted
        hit_pct = 100.0 * us.prefetch_hit_ratio
        return [f"  uva     : prefetch {us.prefetched_pages} pages "
                f"({us.prefetch_seconds * 1e3:.2f} ms), "
                f"writeback {us.written_back_pages} pages "
                f"({us.writeback_seconds * 1e3:.2f} ms), "
                f"{us.cod_faults} CoD faults",
                f"  uva+    : cache kept {us.cache_kept_pages} pages, "
                f"skipped {us.cache_skipped_prefetch_pages} prefetches "
                f"({us.cache_saved_bytes / 1024:.1f} KiB), "
                f"delta saved {us.delta_saved_bytes / 1024:.1f} KiB "
                f"on {us.delta_pages} pages, "
                f"prefetch hits {us.prefetch_hits}/{attempts} "
                f"({hit_pct:.0f}%)"]

    def fault_lines(self) -> List[str]:
        """Transport faults and the local fallbacks they cost."""
        ts = self.transport_stats
        return [f"  faults  : {ts.drops} drops, {ts.disconnects} "
                f"disconnects, {ts.retries} retries, {ts.reconnects} "
                f"reconnects, {ts.failed_deliveries} failed deliveries",
                f"  fallback: {self.aborted_invocations} aborted "
                f"invocations, {self.local_fallbacks} replayed locally, "
                f"{self.wasted_seconds * 1e3:.2f} ms wasted on the link"]


class _TargetTimer(Observer):
    """Times the bodies of offload targets run on the mobile device so
    the dynamic estimator can refine each target's Tm with observed
    run-time values (paper, Section 4: "target execution time information")."""

    watched = frozenset()

    def __init__(self, session: "OffloadSession"):
        # the session keeps the interpreter that keeps this: no way back
        self.estimator = session.estimator
        self.targets = {t.body: t.name for t in session.program.targets}
        self.clock_hz = session.mobile.arch.clock_hz
        self._stack = []

    def enter_function(self, fn, cycles: float) -> None:
        if fn.name in self.targets:
            self._stack.append((fn.name, cycles))

    def exit_function(self, fn, cycles: float) -> None:
        if self._stack and self._stack[-1][0] == fn.name:
            body, start = self._stack.pop()
            self.estimator.record_local_time(
                self.targets[body], (cycles - start) / self.clock_hz)


class OffloadSession:
    """Executes one offloading-enabled program over one network.

    ``dispatcher`` is where the remote backend asks for servers before
    each invocation (docs/fleet.md): None is the paper's dedicated
    server, whose grants are immediate and free; a fleet scheduler
    passes a pooled or scripted one so admission can queue or refuse.
    Like ``stdin`` and ``files`` it is wiring, not behaviour, so it is
    not a :class:`SessionOptions` field."""

    def __init__(self, program: OffloadProgram, network: NetworkModel,
                 options: Optional[SessionOptions] = None,
                 stdin: bytes = b"",
                 files: Optional[Dict[str, bytes]] = None,
                 dispatcher: Optional[OffloadDispatcher] = None):
        self.program = program
        self.network = network
        self.options = options or SessionOptions()
        self.dispatcher = dispatcher
        opts = self.options

        mobile_arch = program.options.mobile_arch
        server_arch = program.options.server_arch
        # Both partitions ask for the unified (mobile) data layout.
        self.mobile = boot(program.mobile_module, mobile_arch, "mobile",
                           IOEnvironment(files=files, stdin=stdin))
        self.server = boot(program.server_module, server_arch, "server")
        if not opts.enable_stack_reallocation:
            self.server.stack_top = MOBILE_STACK_TOP

        # The structured tracer observes every runtime service; the
        # shared NULL_TRACER keeps the disabled path free of new work.
        # Its clock is this session's, set by _wire.
        self.tracer = (Tracer(capacity=opts.trace_capacity)
                       if opts.enable_tracing else NULL_TRACER)
        self.comm = CommunicationManager(
            network,
            enable_batching=opts.enable_batching,
            enable_compression=opts.enable_compression,
            server_clock_hz=server_arch.clock_hz,
            mobile_clock_hz=mobile_arch.clock_hz,
            tracer=self.tracer,
            fault_plan=opts.fault_plan,
            retry_policy=opts.retry_policy)
        # Snapshot/rollback machinery only engages on a faulty link:
        # IOEnvironment.snapshot copies every file, and a fault-free
        # invocation can never roll back.
        self._faulty = not self.comm.transport.link.faultless
        self._replay_instructions = 0
        self.uva = UVAManager(
            self.mobile, self.server, self.comm,
            enable_prefetch=opts.enable_prefetch,
            enable_incremental_uva=opts.enable_incremental_uva,
            tracer=self.tracer)
        self.fcn_table = FunctionAddressTable(self.mobile, self.server)
        self.estimator = DynamicPerformanceEstimator(
            program.profile,
            performance_ratio(server_arch, mobile_arch), network,
            transport=self.comm.transport)
        self.meter = EnergyMeter()
        # The execution-backend seam (repro.runtime.backend), made by
        # _wire: the backend owns the offload protocol over the stack
        # built above and its local degradation path (aborts, pool
        # rejections, straggler shards).
        self.remote_backend: Optional[RemoteBackend] = None

        # Timeline bookkeeping (see _advance / _mark_compute).
        self.extra_seconds = 0.0      # non-compute wall time so far
        self._compute_mark = 0.0      # mobile interp seconds already traced
        self.remote_io_seconds = 0.0
        self.server_instructions = 0
        self.server_compute_seconds = 0.0
        self.fnptr_seconds = 0.0
        self.invocations: List[InvocationRecord] = []
        self.mobile_interp: Optional[Interpreter] = None
        self._rio_pending = 0.0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, argv: tuple = ()) -> SessionResult:
        self._wire()
        try:
            return self._execute(argv)
        finally:
            self._release()

    def _wire(self) -> None:
        """Point the runtime's services back at this session for one run:
        the tracer's clock, the copy-on-demand fault handler, the
        backend and the runtime builtins.  Construction makes none of
        these references, so a session that is never run is freed by
        reference counting as well."""
        if self.tracer.enabled:         # never the shared NULL_TRACER
            self.tracer.clock = self.now
        self.uva.attach()
        self.remote_backend = RemoteBackend(self, dispatcher=self.dispatcher)
        self._register_runtime_builtins()

    def _release(self) -> None:
        """Break every reference from what a run leaves behind — the
        result's tracer, the machines — back to this session, so that it
        and both address spaces are freed by reference counting, not by
        the next cycle collection, and a kept result keeps no machine.
        The machines and every statistic stay readable here."""
        if self.tracer.enabled:         # never the shared NULL_TRACER
            self.tracer.clock = float   # float() is 0.0: a stopped clock
        self.mobile.builtins.clear()
        self.server.builtins.clear()
        self.uva.detach()
        self.remote_backend = None

    def _execute(self, argv: tuple) -> SessionResult:
        tr = self.tracer
        if tr.enabled:
            tr.emit("session.start", self.program.name,
                    network=self.network.name,
                    targets=[t.name for t in self.program.targets],
                    zero_overhead=self.options.zero_overhead)
        interp = Interpreter(self.mobile, observer=_TargetTimer(self))
        self.mobile_interp = interp
        exit_code = interp.run_main(argv)
        self._mark_compute()
        trace = self.meter.trace
        total = self.now()
        if tr.enabled:
            tr.emit("session.end", self.program.name,
                    exit_code=exit_code,
                    total_seconds=total,
                    mobile_compute_seconds=interp.time_seconds,
                    server_compute_seconds=self.server_compute_seconds,
                    comm_seconds=self.comm.stats.comm_seconds,
                    remote_io_seconds=self.remote_io_seconds,
                    fnptr_seconds=self.fnptr_seconds,
                    energy_mj=trace.total_energy_mj,
                    instructions_mobile=(interp.instruction_count
                                         + self._replay_instructions),
                    instructions_server=self.server_instructions)
        return SessionResult(
            program=self.program.name,
            network=self.network.name,
            output=self.mobile.io.output(exit_code),
            total_seconds=total,
            mobile_compute_seconds=interp.time_seconds,
            server_compute_seconds=max(
                self.server_compute_seconds - self.fnptr_seconds, 0.0),
            comm_seconds=(0.0 if self.options.zero_overhead
                          else self.comm.stats.comm_seconds),
            remote_io_seconds=self.remote_io_seconds,
            fnptr_seconds=self.fnptr_seconds,
            energy_mj=trace.total_energy_mj,
            power_trace=trace,
            invocations=self.invocations,
            instructions_mobile=(interp.instruction_count
                                 + self._replay_instructions),
            instructions_server=self.server_instructions,
            cod_faults=self.uva.stats.cod_faults,
            bytes_to_server=self.comm.stats.bytes_to_server,
            bytes_to_mobile=self.comm.stats.bytes_to_mobile,
            compression_saved_bytes=self.comm.stats.compression_saved_bytes,
            trace=tr if tr.enabled else None,
            transport_stats=self.comm.transport.stats,
            uva_stats=self.uva.stats,
        )

    def now(self) -> float:
        """Current simulated mobile wall-clock time."""
        mobile = (self.mobile_interp.time_seconds
                  if self.mobile_interp is not None else 0.0)
        return mobile + self.extra_seconds

    # ------------------------------------------------------------------
    # Timeline / power helpers
    # ------------------------------------------------------------------
    def _mark_compute(self) -> None:
        """Emit the pending mobile-compute interval into the power trace."""
        if self.mobile_interp is None:
            return
        compute = self.mobile_interp.time_seconds
        if compute > self._compute_mark:
            start = self._compute_mark + self.extra_seconds
            end = compute + self.extra_seconds
            self.meter.charge(start, end, "compute")
            self._compute_mark = compute

    def _advance(self, seconds: float, state: str,
                 power_mw: Optional[float] = None) -> None:
        """Advance wall time by a non-compute interval."""
        if seconds <= 0:
            return
        start = self.now()
        self.extra_seconds += seconds
        self.meter.charge(start, start + seconds, state, power_mw)

    # ------------------------------------------------------------------
    # Runtime builtins
    # ------------------------------------------------------------------
    def _register_runtime_builtins(self) -> None:
        mobile, server = self.mobile, self.server
        mobile.register_builtin(SHOULD_OFFLOAD, self._bi_should_offload)
        for target in self.program.targets:
            mobile.register_builtin(OFFLOAD_PREFIX + target.name,
                                    self._make_offload_builtin(target))
        server.register_builtin(M2S_FCN_MAP, self._bi_m2s)
        server.register_builtin(S2M_FCN_MAP, self._bi_s2m)
        for name in REMOTE_IO_FUNCTIONS:
            server.register_builtin(
                REMOTE_IO_PREFIX + name,
                partial(self._remote_io, name, STDIO[name]))

    # -- decision ---------------------------------------------------------
    def _bi_should_offload(self, interp: Interpreter, args) -> int:
        target = self.program.partition.target_by_id(int(args[0]))
        interp.charge("alu", 40)  # estimation cost
        if not self.options.enable_dynamic_estimation:
            offload, reason, est = True, "estimation_disabled", None
        else:
            offload, reason, est = self.estimator.decide(target)
        if not offload:
            self.invocations.append(
                InvocationRecord(target=target.name, offloaded=False))
        tr = self.tracer
        if tr.enabled:
            # A gain is reported only when its sign decided.
            gain = (est.gain if reason in ("positive_gain", "negative_gain")
                    else None)
            terms = {}
            if est is not None:     # Equation 1 was evaluated
                state = self.estimator.state[target.name]
                terms = dict(
                    t_mobile=est.t_mobile, t_ideal=est.t_ideal,
                    t_comm=est.t_comm, t_queue=est.t_queue,
                    memory_bytes=est.memory_bytes,
                    bandwidth_bytes_per_s=est.bandwidth,
                    observed_time=state.observed_local_seconds is not None,
                    observed_traffic=(state.observed_traffic_bytes
                                      is not None))
            tr.emit("decision", target.name, offloaded=offload,
                    reason=reason, gain_seconds=gain, **terms)
        return 1 if offload else 0

    # -- fn-ptr mapping ---------------------------------------------------
    def _charge_fnptr(self, interp: Interpreter) -> None:
        if self.options.zero_overhead:
            return
        interp.charge_raw_cycles(MAP_LOOKUP_CYCLES)
        self.fnptr_seconds += (MAP_LOOKUP_CYCLES
                               / self.server.arch.clock_hz)

    def _bi_m2s(self, interp: Interpreter, args) -> int:
        self._charge_fnptr(interp)
        return self.fcn_table.map_m2s(int(args[0]))

    def _bi_s2m(self, interp: Interpreter, args) -> int:
        self._charge_fnptr(interp)
        return self.fcn_table.map_s2m(int(args[0]))

    # -- remote I/O ------------------------------------------------------
    def _remote_io(self, name: str, op: StdioOp, interp: Interpreter, args):
        """Execute an I/O call of the server partition on the mobile
        device: libc's one definition of the op, run on the server's
        memory against the mobile's environment, then the bytes it moved
        priced by the op's forwarding class.  The effect comes first so
        that a link failure while pricing it still finds it in the
        mobile I/O snapshot the abort path rolls back."""
        result, moved, cycles = op.fn(self.server.memory, self.mobile.io,
                                      args)
        if op.formats:
            interp.charge(op.unit, cycles)
        if op.forward == "output":
            seconds = self.comm.stream_to_mobile(bytes(moved)).seconds
        elif op.forward == "control":
            seconds = self.comm.round_trip(moved + 16, 16).seconds
            moved += 32     # the 16-byte request and reply headers
        else:
            seconds = self.comm.stream_to_server(moved).seconds
        if self.options.zero_overhead:
            seconds = 0.0
        else:
            interp.charge("call", 4)  # request marshalling on the server
        self.remote_io_seconds += seconds
        self._rio_pending += seconds
        tr = self.tracer
        if tr.enabled:
            tr.emit("rio.op", name, dur=seconds, bytes=moved)
        return result

    def _prefetch_pages(self, stack_pointer: int) -> set:
        """The "most likely used" page set pushed at initialization: the
        mobile's mapped UVA-heap pages, the UVA-globals pages and the
        live mobile stack.  Anything the evaluation input touches beyond
        this is served by copy-on-demand."""
        psize = self.uva.page_size
        uva_base = UVA_HEAP_BASE // psize
        stack_high = MOBILE_STACK_TOP // psize
        pages = set(self.uva.live_mobile_pages(stack_pointer))
        # UVA-reallocated globals live at the base of the UVA heap.
        pages.update(range(uva_base, uva_base + 2))
        # live stack frames of the suspended mobile execution
        pages.update(range(stack_pointer // psize - 1, stack_high + 1))
        return pages

    # -- the offload protocol ----------------------------------------------
    def _make_offload_builtin(self, target: OffloadTarget):
        def builtin(interp: Interpreter, args):
            return self.remote_backend.execute(target, interp, list(args))
        return builtin

"""The traced run: timing wrappers installed from outside around the
public callable at each layer boundary, the public counters read at the
same boundaries, and the direct-call probe for the two layers whose
calls are too frequent to wrap.

Nothing under ``src/`` knows about this.  A wrapper is put where the
name the caller uses is bound — on the class for methods, in the
calling module's namespace for functions — and taken off again after
each traced round, so the untraced rounds of the same run execute the
unmodified program.

A span is ``(name, start, end, parent, op)`` with ``parent`` the index
of the enclosing span (None at top level) and ``op`` the op execution it
belongs to.  Self time is duration minus the durations of direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import os
import random
import statistics
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import repro.fleet.replay as replay_module
import repro.trace.analysis.report as report_module
from repro import NativeOffloaderCompiler, OffloadSession
from repro.fleet import (EventQueue, FleetResult, FleetScheduler,
                         SegmentCache, ServerPool)
from repro.ir import F64, I8, I32, I64, ptr
from repro.machine import (AddressSpace, Interpreter, decode_scalar,
                           encode_scalar)
from repro.runtime import CommunicationManager, UVAManager
from repro.targets import ARM32, MIPS32BE, DataLayout

import workloads as workloads_module
from harness import Op, Sample, SpeedSampler, clock, run_op

Span = Tuple[str, float, float, Optional[int], int]
_RAISED = object()      # a hook's ``result`` when the call raised


# -- counter hooks: (recorder, args, kwargs, result) after the call ---------
def _after_compile_c(recorder, args, kwargs, module) -> None:
    if module is _RAISED:
        return
    counts = recorder.counts
    counts["frontend.source_bytes"] += len(args[0].encode("utf-8"))
    counts["frontend.ir_instructions"] += sum(
        len(block.instructions)
        for fn in module.defined_functions() for block in fn.blocks)


def _after_profile(recorder, args, kwargs, profile) -> None:
    if profile is not _RAISED:
        recorder.counts["profiler.guest_instructions"] += profile.instructions


def _after_offload_compile(recorder, args, kwargs, program) -> None:
    if program is _RAISED:
        return
    counts = recorder.counts
    counts["offload.targets"] += len(program.targets)
    counts["offload.shard_accepted"] += len(program.shard_specs)
    counts["offload.shard_refused"] += len(program.shard_refusals)


def _after_run_local(recorder, args, kwargs, local) -> None:
    if local is not _RAISED:
        recorder.counts["interpreter.local_instructions"] += local.instructions


def _after_session_run(recorder, args, kwargs, result) -> None:
    """Counters of one session run, read from the session itself so a
    replayed prefix that ends at a SegmentBoundary (no result) still
    counts the work it executed."""
    session, counts = args[0], recorder.counts
    for record in session.invocations:
        counts["session.invocations"] += 1
        counts["session.offloaded"] += record.offloaded
        counts["session.aborted"] += record.aborted
        counts["session.local_fallbacks"] += record.fallback_local
        counts["session.declined"] += not (record.offloaded
                                           or record.aborted
                                           or record.rejected)
    uva = session.uva.stats
    counts["uva.prefetched_pages"] += uva.prefetched_pages
    counts["uva.written_back_pages"] += uva.written_back_pages
    counts["uva.cod_faults"] += uva.cod_faults
    counts["uva.delta_saved_bytes"] += uva.delta_saved_bytes
    counts["uva.prefetch_hits"] += uva.prefetch_hits
    counts["uva.prefetch_wasted"] += uva.prefetch_wasted
    comm = session.comm.stats
    counts["comm.messages"] += comm.messages
    counts["comm.payload_bytes"] += comm.total_payload_bytes
    transport = session.comm.transport.stats
    counts["transport.retries"] += transport.retries
    counts["transport.drops"] += transport.drops
    counts["transport.failed_deliveries"] += transport.failed_deliveries
    for machine in (session.mobile, session.server):
        recorder.session_machines[id(machine)] = machine
        counts["interpreter.pointer_conversions"] += \
            machine.pointer_conversions
        counts["interpreter.endian_swaps"] += machine.endian_swaps


def _after_scheduler_run(recorder, args, kwargs, result) -> None:
    scheduler, counts = args[0], recorder.counts
    for key, value in scheduler.replay.stats().items():
        counts[f"replay.{key}"] += value
    for server in scheduler.pool.stats:
        counts["pool.admitted"] += server.admitted
        counts["pool.rejected"] += server.rejected
        counts["pool.queued"] += server.queued_admissions
        counts["pool.gang_shard_admissions"] += server.shard_admissions


def _after_write_jsonl(recorder, args, kwargs, written) -> None:
    if written is not _RAISED:
        recorder.counts["trace.events"] += written
        recorder.counts["trace.jsonl_bytes"] += os.path.getsize(args[1])


def _after_reconstruct(recorder, args, kwargs, sessions) -> None:
    if sessions is _RAISED:
        return
    recorder.counts["analysis.sessions"] += len(sessions)
    recorder.counts["analysis.spans"] += sum(
        1 + len(s.invocations) + sum(len(i.phases) for i in s.invocations)
        for s in sessions)


#: (owner, attribute, span name, counter hook).  The owner is where the
#: caller's name is bound: a class, or the module whose global the caller
#: reads.
_BOUNDARIES = [
    (workloads_module, "compile_c", "compile_c", _after_compile_c),
    (workloads_module, "profile_module", "profile_module", _after_profile),
    (NativeOffloaderCompiler, "compile", "NativeOffloaderCompiler.compile",
     _after_offload_compile),
    (workloads_module, "run_local", "run_local", _after_run_local),
    (OffloadSession, "__init__", "OffloadSession.__init__", None),
    (OffloadSession, "run", "OffloadSession.run", _after_session_run),
    (UVAManager, "prefetch", "UVAManager.prefetch", None),
    (UVAManager, "write_back", "UVAManager.write_back", None),
    (UVAManager, "synchronize_page_table",
     "UVAManager.synchronize_page_table", None),
    (CommunicationManager, "send_to_server",
     "CommunicationManager.send_to_server", None),
    (CommunicationManager, "send_to_mobile",
     "CommunicationManager.send_to_mobile", None),
    (CommunicationManager, "stream_to_mobile",
     "CommunicationManager.stream_to_mobile", None),
    (CommunicationManager, "round_trip",
     "CommunicationManager.round_trip", None),
    (FleetScheduler, "run", "FleetScheduler.run", _after_scheduler_run),
    (SegmentCache, "advance", "SegmentCache.advance", None),
    (replay_module, "run_segment", "run_segment", None),
    (ServerPool, "admit", "ServerPool.admit", None),
    (ServerPool, "admit_gang", "ServerPool.admit_gang", None),
    (FleetResult, "summary", "FleetResult.summary", None),
    (FleetResult, "merged_events", "FleetResult.merged_events", None),
    (workloads_module, "write_jsonl", "write_jsonl", _after_write_jsonl),
    (workloads_module, "load_jsonl", "load_jsonl", None),
    (workloads_module, "build_report", "build_report", None),
    (report_module, "reconstruct_sessions", "reconstruct_sessions",
     _after_reconstruct),
    (report_module, "aggregate_sessions", "aggregate_sessions", None),
    (workloads_module, "report_to_json", "report_to_json", None),
    (workloads_module, "render_html", "render_html", None),
]

_UVA = ("UVAManager.prefetch", "UVAManager.write_back",
        "UVAManager.synchronize_page_table")
_COMM = ("CommunicationManager.send_to_server",
         "CommunicationManager.send_to_mobile",
         "CommunicationManager.stream_to_mobile",
         "CommunicationManager.round_trip")


class Recorder:
    """Spans and counters of one traced round."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.op = -1                        # index of the current op
        self.empty_span_s = 0.0
        self.op_names: List[str] = []
        self._stack: List[int] = []
        # Every Interpreter the round constructed, and every machine a
        # session owned (id -> machine: held, so no id is ever reused).
        self._interpreters: List[Interpreter] = []
        self.session_machines: Dict[int, object] = {}
        self._originals: List[Tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, name: str, fn: Callable,
                      hook: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            result = _RAISED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                # BaseException too: a SegmentBoundary unwinding through
                # OffloadSession.run still closes its span
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
                if hook is not None:
                    hook(self, args, kwargs, result)
        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._originals.append((owner, attribute,
                                owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        # What one span costs when nothing runs inside it.  Every layer
        # time includes it once, so a layer the workload never enters
        # reads the tracer's own floor (about a microsecond, as measured)
        # and not a constant 0.
        empty = self._span_wrapper("empty", lambda: None, None)
        start = clock()
        empty()
        self.empty_span_s = clock() - start
        self.spans.clear()
        for owner, attribute, name, hook in _BOUNDARIES:
            self._patch(owner, attribute, self._span_wrapper(
                name, owner.__dict__[attribute], hook))

        pop = EventQueue.__dict__["pop"]
        counts = self.counts

        def counted_pop(queue):             # count only: ~10^5 per op
            counts["scheduler.events_popped"] += 1
            return pop(queue)
        self._patch(EventQueue, "pop", counted_pop)

        init = Interpreter.__dict__["__init__"]
        interpreters = self._interpreters

        def registering_init(interp, *args, **kwargs):
            init(interp, *args, **kwargs)
            interpreters.append(interp)
        self._patch(Interpreter, "__init__", registering_init)

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def run_round(self, ops: List[Op], sampler: SpeedSampler
                  ) -> List[Sample]:
        """One traced round: the wrappers are on for exactly this long."""
        self.install()
        try:
            samples = []
            for op in ops:
                self.op_names.append(op.name)
                self.op = len(self.op_names) - 1
                samples.append(run_op(op, sampler))
            return samples
        finally:
            self.uninstall()

    # -- what the round measured ---------------------------------------------
    def interpreter_counts(self) -> None:
        """Executed guest instructions, read off every Interpreter the
        round constructed (replayed prefixes included)."""
        for interp in self._interpreters:
            executed = interp.instruction_count
            self.counts["interpreter.guest_instructions"] += executed
            if id(interp.machine) in self.session_machines:
                self.counts[f"session.{interp.machine.role}"
                            "_instructions"] += executed
        self._interpreters.clear()

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(duration, self time) summed per span name."""
        children: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - children[index]
        return total, own

    def top_level_seconds(self) -> Dict[int, float]:
        """Per op execution, the summed duration of its top-level spans
        — what the self-test compares with the op's wall."""
        seconds: Counter = Counter()
        for name, start, end, parent, op in self.spans:
            if parent is None:
                seconds[op] += end - start
        return dict(seconds)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "ops": self.op_names,
                       "spans": self.spans}, fh)
            fh.write("\n")


def layer_metrics(recorder: Recorder,
                  samples: List[Sample]) -> Dict[str, float]:
    """The per-layer metrics of one traced round.  Raw span seconds are
    scaled by the round's calibrated/raw ratio into the calibrated seconds
    every other time is in."""
    raw = sum(s.raw_s for s in samples)
    scale = sum(s.cal_s for s in samples) / raw if raw else 1.0
    recorder.interpreter_counts()
    total, own = recorder.totals()
    counts = recorder.counts

    def seconds(*names: str) -> float:
        return (recorder.empty_span_s
                + sum(total[name] for name in names)) * scale

    local_s = seconds("run_local")
    events_popped = counts["scheduler.events_popped"]
    scheduler_self = (recorder.empty_span_s
                      + own["FleetScheduler.run"]) * scale
    hits, runs = counts["replay.shared_hits"], counts["replay.session_runs"]
    prefetched = counts["uva.prefetch_hits"] + counts["uva.prefetch_wasted"]
    build_s = seconds("build_report")
    metrics = {
        "frontend.compile_s": seconds("compile_c"),
        "profiler.profile_s": seconds("profile_module"),
        "offload.compile_s": seconds("NativeOffloaderCompiler.compile"),
        "interpreter.local_s": local_s,
        "interpreter.kips": (counts["interpreter.local_instructions"]
                             / local_s / 1e3 if local_s else 0.0),
        "session.init_s": seconds("OffloadSession.__init__"),
        "session.run_s": seconds("OffloadSession.run"),
        "uva.calls_s": seconds(*_UVA),
        "uva.prefetch_hit_ratio": (counts["uva.prefetch_hits"] / prefetched
                                   if prefetched else 0.0),
        "comm.calls_s": seconds(*_COMM),
        "scheduler.run_s": seconds("FleetScheduler.run"),
        "scheduler.self_s": scheduler_self,
        "scheduler.us_per_event": (scheduler_self / max(events_popped, 1)
                                   * 1e6),
        "replay.run_segment_s": seconds("run_segment"),
        "replay.reuse_ratio": hits / (hits + runs) if hits + runs else 0.0,
        "pool.admit_s": seconds("ServerPool.admit", "ServerPool.admit_gang"),
        "result.summary_s": seconds("FleetResult.summary",
                                    "FleetResult.merged_events"),
        "trace.write_jsonl_s": seconds("write_jsonl"),
        "trace.load_jsonl_s": seconds("load_jsonl"),
        "analysis.reconstruct_s": seconds("reconstruct_sessions"),
        "analysis.aggregate_s": seconds("aggregate_sessions"),
        "analysis.build_report_s": build_s,
        "analysis.render_s": seconds("report_to_json", "render_html"),
        "analysis.us_per_event": (build_s / max(counts["trace.events"], 1)
                                  * 1e6),
    }
    for name in COUNT_METRICS:
        metrics[name] = counts[name]
    return metrics


#: Per-layer metrics that are counts: they must repeat exactly between
#: the traced rounds of one run, and between two runs with one seed.
COUNT_METRICS = (
    "frontend.source_bytes", "frontend.ir_instructions",
    "profiler.guest_instructions",
    "offload.targets", "offload.shard_accepted", "offload.shard_refused",
    "interpreter.guest_instructions", "interpreter.pointer_conversions",
    "interpreter.endian_swaps",
    "session.invocations", "session.offloaded", "session.declined",
    "session.aborted", "session.local_fallbacks",
    "session.mobile_instructions", "session.server_instructions",
    "uva.prefetched_pages", "uva.written_back_pages", "uva.cod_faults",
    "uva.delta_saved_bytes",
    "comm.messages", "comm.payload_bytes",
    "transport.retries", "transport.drops", "transport.failed_deliveries",
    "scheduler.events_popped",
    "replay.session_runs", "replay.shared_hits", "replay.distinct_segments",
    "pool.admitted", "pool.rejected", "pool.queued",
    "pool.gang_shard_admissions",
    "trace.events", "trace.jsonl_bytes",
    "analysis.sessions", "analysis.spans",
)


# -- direct-call probe ---------------------------------------------------------
#: Accesses the read/write probe makes (the ``memory.probe_ops`` metric).
PROBE_ACCESSES = 60_000
_PROBE_PAGES = 64


def memory_probe(seed: int,
                 seconds_of: Callable[[Callable[[], None]], float]
                 ) -> Dict[str, float]:
    """Seconds (as ``seconds_of`` measures a call) of a fixed, seeded
    access pattern driven straight into ``AddressSpace`` and the scalar
    codec.  ``AddressSpace.read``/``write`` run millions of times per op;
    wrapping them would time the wrapper, so this times them in a tight
    loop instead."""
    rng = random.Random(seed)
    space = AddressSpace()
    space.track_subpage = True
    for page in range(_PROBE_PAGES):
        space.map_page(page)
    span = _PROBE_PAGES * space.page_size
    pattern = []
    for _ in range(PROBE_ACCESSES):
        size = rng.choice((1, 4, 4, 4, 8))
        if rng.random() < 0.02:             # straddle a page boundary
            address = (rng.randrange(1, _PROBE_PAGES) * space.page_size
                       - rng.randrange(1, size + 1))
        else:
            address = rng.randrange(0, span - 8) & ~(size - 1)
        pattern.append((address, size, rng.random() < 0.35))
    payload = {size: bytes(range(size)) for size in (1, 4, 8)}

    read, write = space.read, space.write

    def read_write() -> None:
        for address, size, is_write in pattern:
            if is_write:
                write(address, payload[size])
            else:
                read(address, size)

    records = [(offset, bytes(64)) for offset in range(0, 4096, 256)]

    def dirty_cycle() -> None:
        for _ in range(20):
            for address, size, _ in pattern[:2000]:
                write(address, payload[size])
            for page in space.collect_dirty_pages():
                space.apply_delta(page, records, mark_dirty=True)
            space.clear_dirty()

    values = [(rng.randrange(0, 1 << 31), I32) for _ in range(4000)]
    values += [(rng.randrange(0, 256), I8) for _ in range(2000)]
    values += [(rng.randrange(0, 1 << 63), I64) for _ in range(2000)]
    values += [(rng.random() * 1e6, F64) for _ in range(2000)]
    values += [(rng.randrange(0, 1 << 32), ptr(I8)) for _ in range(2000)]
    layouts = (DataLayout(ARM32), DataLayout(MIPS32BE))

    def codec() -> None:
        for layout in layouts:
            for value, type_ in values:
                decode_scalar(encode_scalar(value, type_, layout), type_,
                              layout)

    return {"memory.probe_rw_s": seconds_of(read_write),
            "memory.probe_dirty_s": seconds_of(dirty_cycle),
            "values.probe_codec_s": seconds_of(codec)}


def median_of(rounds: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(r[name] for r in rounds)
            for name in rounds[0]}

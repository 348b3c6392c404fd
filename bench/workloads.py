"""The five workloads: what each sets up, the ops it times and the
oracle it checks them against.  bench/README.md records why each was
chosen.

Everything here calls ``repro`` through public names only.  The oracle
of every program is ``run_local`` on the *unpartitioned* module on the
mobile architecture — the paper's claim is that offloaded output equals
local output — computed in set-up, never by the op it judges.

``--seed`` reaches ``repro`` only as generated inputs: fleet arrival
offsets and per-device fault-plan seeds (through ``SeedFanout``) and the
trace tiler's time shifts.  The seeded inputs are built so that the
*amount* of work does not depend on the seed (bench/README.md, "Seed
contract"); the registry programs of ``single-native`` and the Figure 4
kernel have fixed inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro import (CompilerOptions, NativeOffloaderCompiler, OffloadSession,
                   SessionOptions, compile_c, profile_module, run_local)
from repro.fleet import (DeviceSpec, FleetScheduler, PoolOptions, SeedFanout,
                         ServerPool)
from repro.runtime import NETWORKS, FaultPlan
from repro.targets import ARM32, ARM64, MIPS32BE, X86, X86_64
from repro.trace import TraceEvent, load_jsonl, write_jsonl
from repro.trace.analysis import build_report, render_html, report_to_json
from repro.workloads import workload as registry_program

from harness import Op, Outcome

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
NETWORK = NETWORKS["802.11ac"]

#: Seeded arrival jitter, far below any service time: it makes every
#: device's admission waits (hence its replay script) distinct without
#: changing which requests queue or are declined.
ARRIVAL_JITTER_S = 20e-6


def _source(name: str) -> str:
    return (BENCH_DIR / "programs" / f"{name}.c").read_text()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- single-device pipeline ----------------------------------------------
@dataclass
class Case:
    """One program through the whole single-device pipeline."""

    label: str
    source: str
    mobile: object = ARM32
    server: object = X86_64
    profile_stdin: bytes = b""
    eval_stdin: bytes = b""
    profile_files: Optional[Dict[str, bytes]] = None
    eval_files: Optional[Dict[str, bytes]] = None
    oracle_stdout: str = ""
    oracle_exit: int = 0

    def set_oracle(self) -> None:
        module = compile_c(self.source, self.label, target=self.mobile)
        local = run_local(module, arch=self.mobile, stdin=self.eval_stdin,
                          files=self.eval_files)
        self.oracle_stdout, self.oracle_exit = local.stdout, local.exit_code

    def judge(self, what: str, stdout: str, exit_code: int) -> List[str]:
        problems = []
        if stdout != self.oracle_stdout:
            problems.append(f"{what} stdout differs from the oracle")
        if exit_code != self.oracle_exit:
            problems.append(f"{what} exit code {exit_code} != "
                            f"{self.oracle_exit}")
        return problems


def pipeline(case: Case) -> Outcome:
    """What ``python -m repro run`` does for one program."""
    module = compile_c(case.source, case.label, target=case.mobile)
    profile = profile_module(module, arch=case.mobile,
                             stdin=case.profile_stdin,
                             files=case.profile_files)
    options = CompilerOptions(mobile_arch=case.mobile,
                              server_arch=case.server)
    program = NativeOffloaderCompiler(options).compile(module, profile)
    local = run_local(module, arch=case.mobile, stdin=case.eval_stdin,
                      files=case.eval_files)
    result = OffloadSession(program, NETWORK, stdin=case.eval_stdin,
                            files=case.eval_files).run()
    problems = (case.judge("local", local.stdout, local.exit_code)
                + case.judge("offloaded", result.stdout, result.exit_code))
    return Outcome(
        work=(profile.instructions + local.instructions
              + result.instructions_mobile + result.instructions_server),
        fingerprint={
            "local_seconds": local.seconds,
            "total_seconds": result.total_seconds,
            "energy_mj": result.energy_mj,
            "instructions": [profile.instructions, local.instructions,
                             result.instructions_mobile,
                             result.instructions_server],
            "bytes": [result.bytes_to_server, result.bytes_to_mobile],
            "offloaded": result.offloaded_invocations,
            "invocations": len(result.invocations),
        },
        problems=problems)


class Workload:
    """Base: ``set_up`` builds what the ops share (timed as set-up),
    ``ops`` lists the timed operations of one round."""

    name = ""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    def set_up(self) -> None:
        raise NotImplementedError

    def ops(self) -> List[Op]:
        raise NotImplementedError


class _Pipelines(Workload):
    cases: List[Case]

    def set_up(self) -> None:
        self.cases = self.build_cases()
        for case in self.cases:
            case.set_oracle()

    def build_cases(self) -> List[Case]:
        raise NotImplementedError

    def ops(self) -> List[Op]:
        return [Op(case.label, lambda _, case=case: pipeline(case))
                for case in self.cases]


class SingleNative(_Pipelines):
    name = "single-native"

    def build_cases(self) -> List[Case]:
        cases = []
        for name in ("chess",) if self.smoke else ("chess",
                                                   "462.libquantum"):
            spec = registry_program(name)
            # --smoke evaluates on the (smaller) profiling input
            cases.append(Case(
                label=spec.name, source=spec.source,
                profile_stdin=spec.profile_stdin,
                profile_files=spec.profile_files,
                eval_stdin=(spec.profile_stdin if self.smoke
                            else spec.eval_stdin),
                eval_files=(spec.profile_files if self.smoke
                            else spec.eval_files)))
        return cases


class SingleCrossArch(_Pipelines):
    name = "single-crossarch"

    def build_cases(self) -> List[Case]:
        source = _source("layouts")
        profile, evaluate = ((b"200\n", b"600\n") if self.smoke
                             else (b"2000\n", b"6000\n"))
        return [Case(label=f"{mobile.name}-{server.name}", source=source,
                     mobile=mobile, server=server,
                     profile_stdin=profile, eval_stdin=evaluate)
                for mobile, server in ((ARM32, X86), (MIPS32BE, X86_64),
                                       (ARM64, X86_64))]


# -- fleets ----------------------------------------------------------------
@dataclass
class Kernel:
    """A built-in kernel compiled for fleet use, with its oracle."""

    program: object
    stdin: bytes
    oracle_stdout: str
    oracle_exit: int


def build_kernel(file_stem: str, name: str, target: str,
                 stdin: bytes) -> Kernel:
    module = compile_c(_source(file_stem), name)
    profile = profile_module(module, stdin=stdin)
    program = NativeOffloaderCompiler(
        CompilerOptions(forced_targets=[target])).compile(module, profile)
    local = run_local(module, stdin=stdin)
    return Kernel(program, stdin, local.stdout, local.exit_code)


@dataclass
class FleetShape:
    """One fleet: who arrives when, with what options, at which pool."""

    kernel: Kernel
    devices: int
    spacing_s: float
    pool: PoolOptions
    jitter_s: float = 0.0
    fault_plan: Optional[FaultPlan] = None
    shards: int = 1
    tracing: bool = False
    #: invocation-count keys of the summary that must be >= 1
    must_show: tuple = ()

    def device_specs(self, seed: int) -> List[DeviceSpec]:
        """The seeded generator side: arrival offsets and per-device
        fault seeds fan out from the one ``--seed``."""
        fan = SeedFanout(seed)
        rng = fan.rng("arrivals")
        specs = []
        for i in range(self.devices):
            plan = (dataclasses.replace(self.fault_plan,
                                        seed=fan.seed("fault", i))
                    if self.fault_plan is not None else None)
            specs.append(DeviceSpec(
                device_id=f"dev{i:05d}", program=self.kernel.program,
                network=NETWORK, stdin=self.kernel.stdin,
                start_offset_s=(i * self.spacing_s
                                + rng.random() * self.jitter_s),
                options=SessionOptions(enable_tracing=self.tracing,
                                       fault_plan=plan,
                                       shards=self.shards)))
        return specs

    def run(self, specs: List[DeviceSpec]) -> Outcome:
        """One FleetScheduler.run() + summary() + every device's output
        against the oracle."""
        scheduler = FleetScheduler(specs, ServerPool(self.pool))
        result = scheduler.run()
        summary = result.summary()
        kernel = self.kernel
        wrong = sum(1 for d in result.devices
                    if d.result.stdout != kernel.oracle_stdout
                    or d.result.exit_code != kernel.oracle_exit)
        problems = ([f"{wrong} device(s) differ from the oracle"]
                    if wrong else [])
        results = [d.result for d in result.devices]
        retries = sum(r.transport_stats.retries for r in results)
        shown = dict(summary["invocations"], retries=retries)
        problems += [f"fleet shows no {key}" for key in self.must_show
                     if shown[key] < 1]
        return Outcome(
            work=sum(r.instructions_mobile + r.instructions_server
                     for r in results),
            fingerprint={
                "makespan_s": summary["makespan_s"],
                "energy_mj_total": summary["energy_mj_total"],
                "device_seconds": sum(r.total_seconds for r in results),
                "invocations": summary["invocations"],
                "queue_delay_s": summary["queue"]["total_delay_s"],
                "retries": retries,
                "bytes": [sum(r.bytes_to_server for r in results),
                          sum(r.bytes_to_mobile for r in results)],
                "replay": scheduler.replay.stats(),
            },
            problems=problems)

    def op(self, name: str, seed: int) -> Op:
        return Op(name, self.run, prepare=lambda: self.device_specs(seed))


class FleetShared(Workload):
    name = "fleet-shared"

    def set_up(self) -> None:
        kernel = build_kernel("fleet_micro", "fleet-micro", "crunch",
                              b"40\n")
        self.fleet = FleetShape(
            kernel, devices=500 if self.smoke else 20_000,
            spacing_s=0.002,
            pool=PoolOptions(servers=1, capacity=64, queue_limit=8))

    def ops(self) -> List[Op]:
        return [self.fleet.op("fleet", self.seed)]


def contended_fleet(kernel: Kernel, **changes) -> FleetShape:
    """fleet-contended op (a); report-jsonl traces the same fleet."""
    return FleetShape(kernel, devices=8, spacing_s=0.001,
                      jitter_s=ARRIVAL_JITTER_S,
                      pool=PoolOptions(servers=2, capacity=1,
                                       queue_limit=4), **changes)


class FleetContended(Workload):
    name = "fleet-contended"

    def set_up(self) -> None:
        crunch = build_kernel("fleet_micro", "fleet-micro", "crunch",
                              b"8\n" if self.smoke else b"20\n")
        smooth = build_kernel("parallel_micro", "parallel-micro", "smooth",
                              b"100\n" if self.smoke else b"400\n")
        # The hard kill after 4 transmission attempts lands inside every
        # device's second offloaded invocation whatever the seed (abort +
        # local fallback); drops and jitter are the seeded part.
        faults = FaultPlan(drop_rate=0.35, max_jitter_s=0.0003,
                           disconnect_after_messages=4, reconnect_rate=0.5)
        self.fleets = {
            "fifo": contended_fleet(crunch),
            "faulty": contended_fleet(
                crunch, fault_plan=faults,
                must_show=("retries", "aborted", "local_fallbacks")),
            "sharded": FleetShape(
                smooth, devices=6, spacing_s=0.002,
                jitter_s=ARRIVAL_JITTER_S, shards=4,
                pool=PoolOptions(servers=4, capacity=1, queue_limit=4)),
        }

    def ops(self) -> List[Op]:
        return [fleet.op(name, self.seed)
                for name, fleet in self.fleets.items()]


# -- report ------------------------------------------------------------------
class ReportJsonl(Workload):
    name = "report-jsonl"

    def set_up(self) -> None:
        kernel = build_kernel("fleet_micro", "fleet-micro", "crunch",
                              b"8\n" if self.smoke else b"20\n")
        fleet = contended_fleet(kernel, tracing=True)
        result = FleetScheduler(fleet.device_specs(self.seed),
                                ServerPool(fleet.pool)).run()
        base = result.merged_events()
        # Tile the one fleet trace into a long stream: each tile is the
        # same sessions under new ids, later on the global clock.  The
        # seeded part is a sub-millisecond extra shift per tile.
        rng = SeedFanout(self.seed).rng("tiler")
        stride = result.makespan_s + 0.010
        self.events: List[TraceEvent] = []
        for tile in range(6 if self.smoke else 216):
            shift = tile * stride + rng.random() * 0.001
            self.events += [
                TraceEvent(t=e.t + shift, seq=e.seq, category=e.category,
                           name=e.name, dur=e.dur, payload=e.payload,
                           sid=f"{e.sid}#{tile:03d}")
                for e in base]
        os.makedirs(OUT_DIR, exist_ok=True)
        self.path = str(OUT_DIR / f"report-{os.getpid()}.jsonl")

    def report(self, _inputs) -> Outcome:
        """write_jsonl -> load_jsonl -> build_report -> JSON + HTML."""
        try:
            written = write_jsonl(self.events, self.path)
            loaded = load_jsonl(self.path)
        finally:
            if os.path.exists(self.path):
                os.remove(self.path)
        report = build_report(loaded)
        text = report_to_json(report)
        html = render_html(report)
        problems = [f"report warning: {w}" for w in report["warnings"]]
        if written != len(self.events) or len(loaded) != written:
            problems.append("events lost between write and load")
        return Outcome(work=len(loaded),
                       fingerprint={"events": report["events"],
                                    "report_sha256": _sha(text),
                                    "html_sha256": _sha(html)},
                       problems=problems)

    def ops(self) -> List[Op]:
        return [Op("report", self.report)]


WORKLOADS = {cls.name: cls for cls in (SingleNative, SingleCrossArch,
                                       FleetShared, FleetContended,
                                       ReportJsonl)}

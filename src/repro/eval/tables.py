"""Regeneration of the paper's tables.

Each ``tableN_*`` function returns structured data; the ``render_*``
companions format it as text.  Benchmarks in ``benchmarks/`` call these to
regenerate every table of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..offload.estimator import Estimate, EstimatorParams, mbps
from ..offload.selector import TargetSelector
from ..profiler.profiler import profile_module
from ..targets.presets import ARM32, X86_64
from ..workloads.android_apps import TOP20_APPS, survey_summary
from ..workloads.chess import CHESS, chess_stdin
from ..workloads.registry import SPEC_WORKLOADS
from .format import format_table
from .runner import ProgramResult, evaluate_suite

# ---------------------------------------------------------------------------
# Table 1 — chess movement computation time, smartphone vs desktop
# ---------------------------------------------------------------------------

# The paper's difficulty levels 7..11 map to search depths 1..5 of the
# scaled-down chess engine.
TABLE1_DIFFICULTIES = {7: 1, 8: 2, 9: 3, 10: 4, 11: 5}


@dataclass
class Table1Row:
    difficulty: int
    desktop_seconds: float
    smartphone_seconds: float

    @property
    def gap(self) -> float:
        if self.desktop_seconds <= 0:
            return 0.0
        return self.smartphone_seconds / self.desktop_seconds


def table1_chess_gap(difficulties: Optional[Dict[int, int]] = None
                     ) -> List[Table1Row]:
    """Movement computation time of the chess AI on both machines."""
    difficulties = difficulties or TABLE1_DIFFICULTIES
    rows = []
    for difficulty, depth in sorted(difficulties.items()):
        stdin = chess_stdin(depth=depth, turns=1)
        times = {}
        for arch in (X86_64, ARM32):
            module = CHESS.module()
            profile = profile_module(module, arch=arch, stdin=stdin)
            times[arch.name] = profile.candidates["getAITurn"].total_seconds
        rows.append(Table1Row(difficulty, times["x86_64"], times["arm32"]))
    return rows


def render_table1(rows: Optional[List[Table1Row]] = None) -> str:
    rows = rows or table1_chess_gap()
    return format_table(
        ["Difficulty", "Desktop (s)", "Smartphone (s)", "Gap (x)"],
        [(r.difficulty, r.desktop_seconds, r.smartphone_seconds, r.gap)
         for r in rows],
        title="Table 1: chess movement computation time")


# ---------------------------------------------------------------------------
# Table 2 — native code in the top-20 Android applications
# ---------------------------------------------------------------------------

def table2_native_ratios():
    return TOP20_APPS


def render_table2() -> str:
    rows = [(a.name, a.c_cpp_loc, a.total_loc,
             f"{a.native_loc_ratio_pct:.2f}%",
             f"{a.native_exec_ratio_pct:.2f}%")
            for a in TOP20_APPS]
    summary = survey_summary()
    table = format_table(
        ["Application", "C/C++ LoC", "Total LoC", "LoC ratio",
         "Exec ratio"],
        rows, title="Table 2: native code in top-20 Android apps")
    return (f"{table}\n"
            f"apps >50% native LoC: {summary['majority_native_loc']}, "
            f">20% native exec time: {summary['heavy_native_runtime']} "
            f"(both: {summary['both']} of {summary['total_apps']})")


# ---------------------------------------------------------------------------
# Table 3 — profiling + Equation 1 for the chess example
# ---------------------------------------------------------------------------

@dataclass
class Table3Row:
    candidate: str
    estimate: Estimate
    filtered: str   # "" or the filter reason


def table3_estimation(performance_ratio: float = 5.0,
                      bandwidth_mbps: float = 80.0) -> List[Table3Row]:
    """Profile the chess game and apply Equation 1 with the paper's
    assumptions (R=5, BW=80 Mbps)."""
    module = CHESS.module()
    profile = profile_module(module, stdin=CHESS.profile_stdin)
    candidates = TargetSelector(module, profile, EstimatorParams(
        performance_ratio, mbps(bandwidth_mbps))).candidates()
    rows: List[Table3Row] = []
    for name in ["runGame", "getAITurn", "getAITurn_for.cond1",
                 "searchMove", "getPlayerTurn", "updateBoard"]:
        candidate = candidates.get(name)
        if candidate is not None:
            rows.append(Table3Row(
                name, candidate.estimate,
                "" if candidate.verdict else candidate.verdict.reasons[0]))
    return rows


def render_table3(rows: Optional[List[Table3Row]] = None) -> str:
    rows = rows or table3_estimation()
    return format_table(
        ["Candidate", "Exec (s)", "Invo", "Mem (MB)", "T_ideal", "T_c",
         "T_gain", "Machine specific"],
        [(r.candidate, r.estimate.t_mobile, r.estimate.invocations,
          r.estimate.memory_bytes / 1e6, r.estimate.t_ideal,
          r.estimate.t_comm, r.estimate.gain, r.filtered or "-")
         for r in rows],
        title="Table 3: profiling and Equation 1 (R=5, BW=80 Mbps)")


# ---------------------------------------------------------------------------
# Table 4 — offloaded-program details
# ---------------------------------------------------------------------------

@dataclass
class Table4Row:
    program: str
    loc: int
    exec_seconds: float
    offloaded_functions: str
    referenced_globals: str
    fn_ptr_sites: int
    targets: str
    coverage_pct: float
    invocations: int
    traffic_mb_per_invocation: float
    paper_target: str
    paper_invocations: int


def table4_offload_details(results: Optional[Dict[str, ProgramResult]] = None
                           ) -> List[Table4Row]:
    results = results or evaluate_suite()
    rows: List[Table4Row] = []
    for spec in SPEC_WORKLOADS:
        result = results.get(spec.name)
        if result is None:
            continue
        stats = result.program.statistics()
        fast = result.sessions["fast"]
        rows.append(Table4Row(
            program=spec.name,
            loc=spec.loc,
            exec_seconds=result.local.seconds,
            offloaded_functions=(f"{stats['offloaded_functions']} / "
                                 f"{stats['total_functions']}"),
            referenced_globals=(f"{stats['referenced_globals']} / "
                                f"{stats['total_globals']}"),
            fn_ptr_sites=stats["fn_ptr_sites"],
            targets=", ".join(stats["targets"]),
            coverage_pct=result.coverage_pct(),
            invocations=fast.offloaded_invocations,
            traffic_mb_per_invocation=fast.traffic_per_invocation_mb,
            paper_target=spec.paper.target,
            paper_invocations=spec.paper.invocations))
    return rows


def render_table4(rows: Optional[List[Table4Row]] = None) -> str:
    rows = rows or table4_offload_details()
    return format_table(
        ["Program", "LoC", "Exec (s)", "Off. Fcn", "Ref. GV", "FcnPtr",
         "Target", "Cover %", "Inv", "Traf MB/inv"],
        [(r.program, r.loc, r.exec_seconds, r.offloaded_functions,
          r.referenced_globals, r.fn_ptr_sites, r.targets, r.coverage_pct,
          r.invocations, r.traffic_mb_per_invocation)
         for r in rows],
        title="Table 4: details of offloaded programs")


# ---------------------------------------------------------------------------
# Table 5 — comparison of computation offload systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemComparison:
    system: str
    fully_automatic: str
    decision: str
    requires_vm: bool
    language: str
    target_complexity: str


TABLE5_SYSTEMS: List[SystemComparison] = [
    SystemComparison("Cuckoo", "No (Manual)", "Static", True, "Java",
                     "Complex"),
    SystemComparison("Li et al.", "No (Manual)", "Static", False, "C",
                     "Simple"),
    SystemComparison("Roam", "No (Manual)", "Dynamic", True, "Java",
                     "Complex"),
    SystemComparison("MAUI", "No (Annotation)", "Dynamic", True, "C#",
                     "Complex"),
    SystemComparison("ThinkAir", "No (Annotation)", "Dynamic", True,
                     "Java", "Complex"),
    SystemComparison("Wang and Li", "No (Annotation)", "Dynamic", False,
                     "C", "Simple"),
    SystemComparison("DiET", "Yes", "Static", True, "Java", "Simple"),
    SystemComparison("Chen et al.", "Yes", "Dynamic", True, "Java",
                     "Simple"),
    SystemComparison("HELVM", "Yes", "Dynamic", True, "Java", "Simple"),
    SystemComparison("OLIE", "Yes", "Dynamic", True, "Java", "Complex"),
    SystemComparison("CloneCloud", "Yes", "Dynamic", True, "Java",
                     "Complex"),
    SystemComparison("COMET", "Yes", "Dynamic", True, "Java", "Complex"),
    SystemComparison("CMcloud", "Yes", "Dynamic", True, "Java", "Complex"),
    SystemComparison("Native Offloader", "Yes", "Dynamic", False, "C",
                     "Complex"),
]


def table5_system_comparison() -> List[SystemComparison]:
    return list(TABLE5_SYSTEMS)


def render_table5() -> str:
    return format_table(
        ["System", "Fully-Automatic", "Decision", "Requires VM",
         "Language", "Complexity"],
        [(s.system, s.fully_automatic, s.decision,
          "Yes" if s.requires_vm else "No", s.language,
          s.target_complexity)
         for s in TABLE5_SYSTEMS],
        title="Table 5: comparison of computation offload systems")

"""Target selector (paper, Section 3.1).

Combines the hot function/loop profiler, the function filter and the static
performance estimator: offload candidates are profiled functions and loops;
machine-specific ones (and loops that cannot be outlined) are filtered out;
the estimator scores the rest; and profitable, non-overlapping candidates
are chosen (outermost first, so that selecting ``getAITurn`` subsumes its
inner ``for_i``).  A forced target list skips the scoring, never the
filter: each name must be a candidate whose verdict passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..analysis.callgraph import CallGraph
from ..analysis.loops import Loop, LoopInfo
from ..ir import instructions as inst
from ..ir.module import Module
from ..profiler.profile_data import ProfileData
from .estimator import Estimate, EstimatorParams
from .filter import FilterVerdict, FunctionFilter
from .outline import can_outline


@dataclass
class Candidate:
    name: str
    kind: str                      # "function" or "loop"
    function_name: str
    estimate: Estimate
    verdict: FilterVerdict
    loop: Optional[Loop] = None

    @property
    def selectable(self) -> bool:
        return (not self.verdict.machine_specific
                and self.estimate.gain > 0)


@dataclass
class SelectionResult:
    candidates: Dict[str, Candidate]
    selected: List[Candidate]


class TargetRefused(ValueError):
    """A forced target that is not a filter-passing candidate."""


# A target must promise at least this fraction of whole-program time as
# gain; offloading trivial helpers is all protocol overhead and no win.
MIN_GAIN_FRACTION = 0.12


class TargetSelector:
    def __init__(self, module: Module, profile: ProfileData,
                 estimator: EstimatorParams,
                 filter_: Optional[FunctionFilter] = None):
        self.module = module
        self.profile = profile
        self.estimator = estimator
        self.callgraph = (filter_.callgraph if filter_ is not None
                          else CallGraph(module))
        self.filter = filter_ or FunctionFilter(module, self.callgraph)
        self._loop_infos: Dict[str, LoopInfo] = {
            fn.name: LoopInfo(fn) for fn in module.defined_functions()}

    def select(self, forced: Optional[Sequence[str]] = None
               ) -> SelectionResult:
        """Equation 1's greedy choice, or — given ``forced`` — exactly the
        named candidates, unscored; a name that is not a candidate whose
        verdict passes raises :class:`TargetRefused`."""
        candidates = self.candidates()
        if forced is not None:
            return SelectionResult(
                candidates=candidates,
                selected=[self._forced(candidates, name) for name in forced])
        threshold = MIN_GAIN_FRACTION * self.profile.program_seconds
        ordered = sorted(
            (c for c in candidates.values()
             if c.selectable and c.estimate.gain >= threshold),
            key=lambda c: (-c.estimate.gain, c.name))
        selected: List[Candidate] = []
        covered: Set[str] = set()
        for candidate in ordered:
            if candidate.name in covered:
                continue
            if self._overlaps_selected(candidate, selected):
                continue
            selected.append(candidate)
            covered |= self._coverage_of(candidate)
        selected.sort(key=lambda c: c.name)
        return SelectionResult(candidates=candidates, selected=selected)

    def _forced(self, candidates: Dict[str, Candidate],
                name: str) -> Candidate:
        candidate = candidates.get(name)
        if candidate is not None:
            if candidate.verdict:
                return candidate
            why = "; ".join(candidate.verdict.reasons)
        elif name in self._loop_infos or any(
                loop.name == name for info in self._loop_infos.values()
                for loop in info.loops):
            why = "never executed on the profiling input"
        else:
            why = "not a defined function or loop"
        raise TargetRefused(f"cannot offload {name}: {why}")

    # -- candidate construction ------------------------------------------
    def candidates(self) -> Dict[str, Candidate]:
        """Every profiled function and loop, scored and with its verdict;
        a loop that cannot be outlined fails its verdict."""
        out: Dict[str, Candidate] = {}
        for fn in self.module.defined_functions():
            prof = self.profile.candidates.get(fn.name)
            if prof is None or prof.invocations == 0:
                continue
            verdict = self.filter.verdict(fn.name)
            if fn.name == "main":
                # the application entry point anchors local execution
                verdict = FilterVerdict(fn.name, True,
                                        ["program entry point"])
            out[fn.name] = Candidate(
                name=fn.name, kind="function", function_name=fn.name,
                estimate=self.estimator.estimate(prof), verdict=verdict)
            for loop in self._loop_infos[fn.name].loops:
                lprof = self.profile.candidates.get(loop.name)
                if lprof is None or lprof.invocations == 0:
                    continue
                # classify_loop's verdict is fresh, never the filter's cache
                verdict = self.filter.classify_loop(loop)
                reason = can_outline(loop)
                if reason is not None:
                    verdict.machine_specific = True
                    verdict.reasons.append(f"cannot outline: {reason}")
                out[loop.name] = Candidate(
                    name=loop.name, kind="loop", function_name=fn.name,
                    estimate=self.estimator.estimate(lprof),
                    verdict=verdict, loop=loop)
        return out

    # -- overlap / subsumption ---------------------------------------------
    def _coverage_of(self, candidate: Candidate) -> Set[str]:
        """Names (functions and loops) subsumed by offloading this
        candidate."""
        covered: Set[str] = {candidate.name}
        if candidate.kind == "function":
            fns = {candidate.function_name}
            fns |= self.callgraph.transitive_callees(candidate.function_name)
        else:
            called = self._functions_called_in_loop(candidate.loop)
            fns = set(called)
            for name in called:
                fns |= self.callgraph.transitive_callees(name)
            # nested loops of the same loop
            info = self._loop_infos[candidate.function_name]
            for loop in info.loops:
                if loop.blocks <= candidate.loop.blocks:
                    covered.add(loop.name)
        for name in fns:
            covered.add(name)
            info = self._loop_infos.get(name)
            if info is not None:
                covered.update(loop.name for loop in info.loops)
        return covered

    def _overlaps_selected(self, candidate: Candidate,
                           selected: List[Candidate]) -> bool:
        coverage = self._coverage_of(candidate)
        for other in selected:
            if other.name in coverage:
                return True
        return False

    def _functions_called_in_loop(self, loop: Loop) -> List[str]:
        names: List[str] = []
        for block in loop.blocks:
            for instruction in block.instructions:
                if isinstance(instruction, inst.Call):
                    callee = instruction.called_function
                    if callee is not None and callee.is_definition:
                        names.append(callee.name)
        return names

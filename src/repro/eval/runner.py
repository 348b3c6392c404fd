"""Experiment runner: executes one workload under every configuration of
Figure 6 (local, ideal, fast, slow) and caches results so all tables and
figures share a single evaluation pass.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..offload.pipeline import CompilerOptions, OffloadProgram
from ..profiler.profile_data import ProfileData
from ..runtime.local import LocalRunResult
from ..runtime.network import (FAST_WIFI, IDEAL_NETWORK, NetworkModel,
                               SLOW_WIFI)
from ..runtime.session import SessionOptions, SessionResult
from ..workloads.base import WorkloadSpec
from ..workloads.registry import SPEC_WORKLOADS, workload

# Standard configuration labels of Figure 6.
CONFIG_NETWORKS: Dict[str, Tuple[NetworkModel, bool]] = {
    "ideal": (IDEAL_NETWORK, True),   # (network, zero_overhead)
    "fast": (FAST_WIFI, False),
    "slow": (SLOW_WIFI, False),
}


@dataclass
class ProgramResult:
    """Everything measured for one workload."""

    spec: WorkloadSpec
    profile: ProfileData
    program: OffloadProgram
    local: LocalRunResult
    sessions: Dict[str, SessionResult] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.spec.name

    def speedup(self, label: str) -> float:
        session = self.sessions[label]
        if session.total_seconds <= 0:
            return 0.0
        return self.local.seconds / session.total_seconds

    def normalized_time(self, label: str) -> float:
        """Execution time normalized to local execution (Figure 6(a))."""
        return self.sessions[label].total_seconds / self.local.seconds

    def normalized_energy(self, label: str) -> float:
        """Battery consumption normalized to local (Figure 6(b))."""
        return self.sessions[label].energy_mj / self.local.energy_mj

    def outputs_match(self) -> bool:
        return all(s.output == self.local.output
                   for s in self.sessions.values())

    def coverage_pct(self) -> float:
        """Share of profiled execution time covered by the selected
        offload targets (Table 4's Cover. column)."""
        total = self.profile.program_seconds
        if total <= 0:
            return 0.0
        covered = sum(
            self.profile.candidates[t.name].total_seconds
            for t in self.program.targets
            if t.name in self.profile.candidates)
        return min(100.0, 100.0 * covered / total)


def run_program(spec: WorkloadSpec,
                labels: Iterable[str] = ("ideal", "fast", "slow"),
                compiler_options: Optional[CompilerOptions] = None,
                session_options: Optional[SessionOptions] = None
                ) -> ProgramResult:
    """Profile, compile and evaluate one workload (uncached)."""
    built = spec.build(compiler_options)
    result = ProgramResult(spec=spec, profile=built.profile,
                           program=built.program, local=built.local())
    for label in labels:
        network, zero = CONFIG_NETWORKS[label]
        options = session_options or SessionOptions()
        if zero:
            options = dataclasses.replace(options, zero_overhead=True)
        result.sessions[label] = built.session(network, options).run()
    return result


_SUITE_CACHE: Dict[str, ProgramResult] = {}


def evaluate(name: str) -> ProgramResult:
    """Cached evaluation of one workload under the standard configs."""
    cached = _SUITE_CACHE.get(name)
    if cached is None:
        cached = run_program(workload(name))
        _SUITE_CACHE[name] = cached
    return cached


def evaluate_suite(names: Optional[List[str]] = None,
                   verbose: bool = False) -> Dict[str, ProgramResult]:
    """Cached evaluation of the whole (or a partial) Table 4 suite."""
    names = names or [w.name for w in SPEC_WORKLOADS]
    out: Dict[str, ProgramResult] = {}
    for name in names:
        if verbose and name not in _SUITE_CACHE:
            print(f"  evaluating {name} ...", flush=True)
        out[name] = evaluate(name)
    return out


def clear_cache() -> None:
    _SUITE_CACHE.clear()


def geomean(values: Iterable[float]) -> float:
    values = [max(v, 1e-12) for v in values]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))

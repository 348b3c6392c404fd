"""Regeneration of the paper's figures (as data series + text rendering).

Figure 6(a): normalized execution time; Figure 6(b): normalized battery;
Figure 7: overhead breakdown; Figure 8: power over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..workloads.registry import SPEC_WORKLOADS
from .format import format_table, sparkline
from .runner import ProgramResult, evaluate_suite, geomean

CONFIG_LABELS = ("slow", "fast", "ideal")


@dataclass
class Figure6Row:
    program: str
    normalized: Dict[str, float]         # label -> normalized value
    offloaded: Dict[str, bool]           # did the runtime offload at all?


def _figure6(results: Dict[str, ProgramResult],
             metric: str) -> List[Figure6Row]:
    rows: List[Figure6Row] = []
    for spec in SPEC_WORKLOADS:
        result = results.get(spec.name)
        if result is None:
            continue
        normalized = {}
        offloaded = {}
        for label in CONFIG_LABELS:
            if metric == "time":
                normalized[label] = result.normalized_time(label)
            else:
                normalized[label] = result.normalized_energy(label)
            offloaded[label] = (
                result.sessions[label].offloaded_invocations > 0)
        rows.append(Figure6Row(spec.name, normalized, offloaded))
    return rows


def figure6a_execution_time(results: Optional[Dict[str, ProgramResult]]
                            = None) -> List[Figure6Row]:
    """Normalized whole-program execution time (Figure 6(a))."""
    return _figure6(results or evaluate_suite(), "time")


def figure6b_battery(results: Optional[Dict[str, ProgramResult]] = None
                     ) -> List[Figure6Row]:
    """Normalized battery consumption (Figure 6(b))."""
    return _figure6(results or evaluate_suite(), "energy")


def geomean_row(rows: List[Figure6Row]) -> Dict[str, float]:
    return {label: geomean([r.normalized[label] for r in rows])
            for label in CONFIG_LABELS}


def render_figure6(rows: List[Figure6Row], title: str) -> str:
    table_rows = []
    for r in rows:
        cells = [r.program]
        for label in CONFIG_LABELS:
            star = "" if r.offloaded[label] else "*"
            cells.append(f"{r.normalized[label]:.3f}{star}")
        table_rows.append(cells)
    gm = geomean_row(rows)
    table_rows.append(["geomean"] + [f"{gm[l]:.3f}" for l in CONFIG_LABELS])
    text = format_table(["Program", "slow", "fast", "ideal"], table_rows,
                        title=title)
    return text + "\n(* = not offloaded by the dynamic estimator)"


# ---------------------------------------------------------------------------
# Figure 7 — overhead breakdown
# ---------------------------------------------------------------------------

BREAKDOWN_KEYS = ("computation", "fn_ptr_translation", "remote_io",
                  "communication")


@dataclass
class Figure7Row:
    program: str
    network: str                       # "slow" or "fast"
    seconds: Dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def fraction(self, key: str) -> float:
        total = self.total
        return self.seconds[key] / total if total > 0 else 0.0


def figure7_breakdown(results: Optional[Dict[str, ProgramResult]] = None
                      ) -> List[Figure7Row]:
    results = results or evaluate_suite()
    rows: List[Figure7Row] = []
    for spec in SPEC_WORKLOADS:
        result = results.get(spec.name)
        if result is None:
            continue
        for label in ("slow", "fast"):
            session = result.sessions[label]
            rows.append(Figure7Row(spec.name, label,
                                   dict(session.breakdown())))
    return rows


def render_figure7(rows: Optional[List[Figure7Row]] = None) -> str:
    rows = rows or figure7_breakdown()
    table_rows = []
    for r in rows:
        table_rows.append(
            (f"{r.program} ({r.network[0]})",
             *(f"{r.fraction(k) * 100:.1f}%" for k in BREAKDOWN_KEYS)))
    return format_table(
        ["Program", "compute", "fn-ptr", "remote I/O", "comm"],
        table_rows, title="Figure 7: breakdown of overheads")


# ---------------------------------------------------------------------------
# Figure 8 — power consumption over time
# ---------------------------------------------------------------------------

@dataclass
class PowerSeries:
    program: str
    network: str
    samples: List[Tuple[float, float]]   # (seconds, mW)

    @property
    def peak_mw(self) -> float:
        return max((p for _, p in self.samples), default=0.0)

    @property
    def mean_mw(self) -> float:
        if not self.samples:
            return 0.0
        return sum(p for _, p in self.samples) / len(self.samples)


def figure8_power_traces(results: Optional[Dict[str, ProgramResult]] = None,
                         resolution: float = 2e-3) -> List[PowerSeries]:
    """Power over time for 458.sjeng (fast) and 445.gobmk (fast and
    slow), mirroring Figure 8's three panels."""
    results = results or evaluate_suite(["458.sjeng", "445.gobmk"])
    panels = [("458.sjeng", "fast"), ("445.gobmk", "fast"),
              ("445.gobmk", "slow")]
    series: List[PowerSeries] = []
    for program, label in panels:
        result = results[program]
        trace = result.sessions[label].power_trace
        series.append(PowerSeries(
            program, label, trace.sample(resolution)))
    return series


def render_figure8(series: Optional[List[PowerSeries]] = None) -> str:
    series = series or figure8_power_traces()
    lines = ["Figure 8: power consumption over time"]
    for s in series:
        lines.append(f"{s.program} ({s.network}): peak {s.peak_mw:.0f} mW, "
                     f"mean {s.mean_mw:.0f} mW, "
                     f"{s.samples[-1][0] * 1e3:.1f} ms")
        lines.append("  " + sparkline([p for _, p in s.samples]))
    return "\n".join(lines)

"""Timing harness of the host-time benchmark: the speed sampler, the
closed-loop op driver and the statistics.  Imports nothing from ``repro``.

Why every time is *calibrated*.  The reference sandbox (2 vCPUs of a
shared host) flips between a fast and a slow state every few seconds;
the same op reads 0.28 s in one and 0.47 s in the next, and the states
last long enough that no median inside a 10 s run removes them.  The
slow state slows all Python code alike, so a fixed pure-Python burst,
run from a 20 Hz interval timer *inside* whatever is being timed,
records the machine's speed over the exact interval of each op:

    calibrated seconds = (raw seconds - seconds spent in bursts)
                         x mean over the interval's bursts of
                           (BURST_REF_S / burst seconds)

which repeats to 2-6 % where raw seconds repeat to 30 %
(bench/README.md, "Calibration").  Every reported time is in calibrated
seconds — seconds as the reference sandbox's fast state would read
them; raw seconds are printed beside them as information.
"""

from __future__ import annotations

import bisect
import heapq
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

clock = time.perf_counter

#: Seconds one burst takes in the reference sandbox's fast state.  Only
#: scales the reported seconds; a comparison of two commits does not
#: depend on it.
BURST_REF_S = 0.00076

#: Interval-timer period.  One ~1 ms burst per period costs 2-3 % of the
#: timed work, on the traced and the untraced run alike.
SAMPLE_PERIOD_S = 0.05

#: Fewest rounds a run makes: the simulated fingerprint of an op is
#: checked between rounds, which needs two.
MIN_ROUNDS = 2


class _Cell:
    __slots__ = ("value", "tag")

    def __init__(self, value: int, tag: int):
        self.value = value
        self.tag = tag

    def bump(self, by: int) -> int:
        self.value = (self.value + by) & 0xFFFFFFFF
        return self.value


def _burst() -> int:
    """A fixed mix of what the simulator spends its time on: dict and
    list access, attribute and method access, small-int arithmetic,
    byte-string slicing and int<->bytes conversion, tuple allocation and
    a heap.  Deterministic; touches no ``repro`` code."""
    table: Dict[int, int] = {}
    cells = [_Cell(i, i & 7) for i in range(64)]
    page = bytearray(4096)
    heap: List[tuple] = []
    acc = 0
    for i in range(600):
        table[(i * 7) & 255] = acc
        cell = cells[i & 63]
        acc = (acc * 31 + cell.bump(i)) & 0xFFFFFFFF
        acc ^= table.get((i * 13) & 255, 0)
        off = (acc & 1023) << 2
        page[off:off + 4] = acc.to_bytes(4, "little")
        acc = (acc + int.from_bytes(bytes(page[off:off + 4]), "big")
               ) & 0xFFFFFFFF
        if cell.tag == 3:
            heapq.heappush(heap, (acc & 0xFFF, i))
        elif cell.tag == 5 and heap:
            acc ^= heapq.heappop(heap)[0]
    return acc


class SpeedSampler:
    """Times one burst every SAMPLE_PERIOD_S of real time, from a
    SIGALRM handler, so the samples fall inside whatever the main thread
    is executing.  Main thread only (Python runs handlers there)."""

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._seconds: List[float] = []
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:              # a stall longer than one period
            return
        self._busy = True
        try:
            start = clock()
            _burst()
            self._seconds.append(clock() - start)
            self._starts.append(start)
        except RecursionError:
            # fired at the bottom of a deep guest recursion: skip one
            pass
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrated(self, start: float, end: float) -> float:
        """Calibrated seconds of the interval [start, end].  Bursts up
        to one period outside it count towards the speed (an interval
        shorter than the period may hold none) but only those inside are
        deducted from it."""
        lo = bisect.bisect_left(self._starts, start - SAMPLE_PERIOD_S)
        hi = bisect.bisect_right(self._starts, end + SAMPLE_PERIOD_S)
        if lo == hi:
            # no sample anywhere near: take one now
            self._tick(signal.SIGALRM, None)
            lo, hi = len(self._starts) - 1, len(self._starts)
        inside = sum(self._seconds[i] for i in range(lo, hi)
                     if start <= self._starts[i] <= end)
        speed = statistics.fmean(BURST_REF_S / self._seconds[i]
                                 for i in range(lo, hi))
        return (end - start - inside) * speed


@dataclass
class Outcome:
    """What one op execution reports besides its time."""

    #: Guest instructions the op's public results report (trace events
    #: on the one workload that runs no guest code).
    work: int = 0
    #: Deterministic simulated outputs; must agree between rounds.
    fingerprint: Dict[str, object] = field(default_factory=dict)
    #: Why the op failed ([] = it did not).
    problems: List[str] = field(default_factory=list)


@dataclass
class Op:
    """One operation of a workload.  ``prepare`` builds the op's inputs
    untimed (the seeded generator side); ``run`` is the timed call into
    ``repro`` plus the output check."""

    name: str
    run: Callable[[object], Outcome]
    prepare: Optional[Callable[[], object]] = None


@dataclass
class Sample:
    """One execution of one op."""

    start: float
    end: float
    cal_s: float
    outcome: Outcome

    @property
    def raw_s(self) -> float:
        return self.end - self.start


def run_op(op: Op, sampler: SpeedSampler) -> Sample:
    """Execute one op.  An exception inside it is a failed op, not a
    failed benchmark."""
    start = end = clock()
    try:
        inputs = op.prepare() if op.prepare is not None else None
        start = clock()
        outcome = op.run(inputs)
        end = clock()
    except Exception:                           # boundary: keep running
        end = clock()
        traceback.print_exc(file=sys.stderr)
        outcome = Outcome(
            problems=[f"raised {sys.exc_info()[0].__name__}"])
    return Sample(start, end, sampler.calibrated(start, end), outcome)


def timed(fn: Callable[[], object], sampler: SpeedSampler) -> float:
    """Calibrated seconds of one call."""
    start = clock()
    fn()
    return sampler.calibrated(start, clock())


def more_rounds(done: int, elapsed_s: float, budget_s: float,
                minimum: int = MIN_ROUNDS) -> bool:
    """Whether to start another round: at least ``minimum``, then as
    many as bring the measured region nearest to the budget."""
    if done < minimum:
        return True
    return elapsed_s + 0.5 * elapsed_s / done <= budget_s


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spread(values: List[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness figure the benchmark contract uses."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q[2] - q[0]) / mid if mid else 0.0


def fingerprint_drift(samples: List[Sample]) -> Optional[str]:
    """The within-run determinism check: every round's fingerprint must
    equal the first round's."""
    prints = [s.outcome.fingerprint for s in samples
              if not s.outcome.problems]
    for other in prints[1:]:
        if other != prints[0]:
            keys = sorted(k for k in set(prints[0]) | set(other)
                          if prints[0].get(k) != other.get(k))
            return f"simulated fingerprint differs between rounds: {keys}"
    return None

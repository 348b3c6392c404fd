"""The log-bucketed :class:`Histogram` behind the report's distributions.

A streaming summary (count / sum / min / max plus logarithmic buckets)
that answers percentile queries and merges across devices without
retaining samples; ``repro.trace.analysis.aggregate`` folds every
per-invocation distribution of a fleet into these.  It is fed by the
analysis from trace events, never by the runtime: a runtime fact lives
in the always-on stats objects and in its event, nowhere else
(``docs/observability.md``, "Totals").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

#: Log-bucket growth factor: four buckets per octave (2 ** 0.25), fine
#: enough that a nearest-rank percentile read from bucket bounds lands
#: within ~19% of the true sample value across the full dynamic range
#: (microsecond transfers to multi-second queue waits) while keeping the
#: bucket map tiny.
LOG_BUCKET_GROWTH = 2.0 ** 0.25
_LOG_GROWTH_LN = math.log(LOG_BUCKET_GROWTH)


@dataclass
class Histogram:
    """Streaming summary statistics plus a log-bucketed distribution.

    Alongside count / sum / min / max / mean, every positive observation
    is counted into a logarithmic bucket (``LOG_BUCKET_GROWTH`` wide), so
    the histogram answers percentile queries (:meth:`percentile`) and can
    be merged across devices (:meth:`merge`) without retaining samples —
    the fleet-aggregation substrate of ``repro.trace.analysis``.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    zeros: int = 0                      # observations <= 0
    buckets: Dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0.0:
            idx = math.floor(math.log(value) / _LOG_GROWTH_LN)
            self.buckets[idx] = self.buckets.get(idx, 0) + 1
        else:
            self.zeros += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile estimate, ``q`` in ``[0, 1]``.

        Non-positive observations report as their recorded value floor
        (0.0, or ``min`` when negative values were observed); positive
        ones report the upper bound of their log bucket, clamped into
        ``[min, max]`` so single-sample and extreme queries are exact.
        Returns 0.0 on an empty histogram.  Deterministic: same
        observations (in any order) give the same answer.
        """
        if not self.count:
            return 0.0
        q = min(max(q, 0.0), 1.0)
        rank = max(1, min(self.count, math.ceil(q * self.count)))
        if rank <= self.zeros:
            return self.min if self.min < 0.0 else 0.0
        cumulative = self.zeros
        for idx in sorted(self.buckets):
            cumulative += self.buckets[idx]
            if cumulative >= rank:
                upper = LOG_BUCKET_GROWTH ** (idx + 1)
                return min(max(upper, self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always lands

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram (in place).

        The merged result is identical to having observed both streams on
        one histogram — the cross-device aggregation primitive.  Returns
        ``self`` for chaining.
        """
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        self.zeros += other.zeros
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        return self

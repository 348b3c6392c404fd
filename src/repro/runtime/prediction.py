"""Bandwidth prediction (NWSLite-style) — the paper's suggested extension.

Section 6 points at Wolski et al. and NWSLite: "With these prediction
algorithms, the Native Offloader compiler and runtime can predict the
performance more precisely."  NWSLite keeps a small ensemble of cheap
forecasters over the observed transfer history and, for each prediction,
uses the forecaster with the lowest recent error — robust on the
non-stationary bandwidth of real wireless links.

:class:`BandwidthPredictor` implements that scheme over the transfer
samples the communication manager produces; the dynamic performance
estimator consumes its forecasts instead of the link's nominal bandwidth
when prediction is enabled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

# Transfers smaller than this tell us more about latency than bandwidth.
MIN_SAMPLE_BYTES = 2048


class _Forecaster:
    name = "base"

    def predict(self) -> Optional[float]:
        raise NotImplementedError

    def observe(self, value: float) -> None:
        raise NotImplementedError


class _LastValue(_Forecaster):
    name = "last"

    def __init__(self):
        self._last: Optional[float] = None

    def predict(self) -> Optional[float]:
        return self._last

    def observe(self, value: float) -> None:
        self._last = value


class _RunningMean(_Forecaster):
    name = "mean"

    def __init__(self):
        self._sum = 0.0
        self._count = 0

    def predict(self) -> Optional[float]:
        if not self._count:
            return None
        return self._sum / self._count

    def observe(self, value: float) -> None:
        self._sum += value
        self._count += 1


class _Ewma(_Forecaster):
    def __init__(self, alpha: float):
        self.name = f"ewma{alpha:.2f}"
        self.alpha = alpha
        self._value: Optional[float] = None

    def predict(self) -> Optional[float]:
        return self._value

    def observe(self, value: float) -> None:
        if self._value is None:
            self._value = value
        else:
            self._value = (self.alpha * value
                           + (1.0 - self.alpha) * self._value)


class _SlidingMedian(_Forecaster):
    name = "median"

    def __init__(self, window: int = 15):
        self._window: Deque[float] = deque(maxlen=window)

    def predict(self) -> Optional[float]:
        if not self._window:
            return None
        ordered = sorted(self._window)
        return ordered[len(ordered) // 2]

    def observe(self, value: float) -> None:
        self._window.append(value)


@dataclass
class PredictionRecord:
    forecaster: str
    predicted_bps: float
    observed_bps: float

    @property
    def relative_error(self) -> float:
        if self.observed_bps <= 0:
            return 0.0
        return abs(self.predicted_bps - self.observed_bps) / \
            self.observed_bps


class BandwidthPredictor:
    """NWSLite-style adaptive ensemble over observed transfer rates."""

    def __init__(self, error_window: int = 10):
        self.forecasters: List[_Forecaster] = [
            _LastValue(), _RunningMean(), _Ewma(0.25), _Ewma(0.6),
            _SlidingMedian(),
        ]
        self._errors = {f.name: deque(maxlen=error_window)
                        for f in self.forecasters}
        self.history: List[PredictionRecord] = []
        self.samples = 0

    # -- feeding observations ------------------------------------------
    def observe_transfer(self, payload_bytes: int, seconds: float) -> None:
        """Record one completed transfer (payload bytes over elapsed
        time).  Tiny control messages are ignored — they measure latency,
        not bandwidth."""
        if payload_bytes < MIN_SAMPLE_BYTES or seconds <= 0:
            return
        observed_bps = payload_bytes * 8.0 / seconds
        best = self._best_forecaster()
        predicted = best.predict() if best is not None else None
        if predicted is not None:
            record = PredictionRecord(best.name, predicted, observed_bps)
            self.history.append(record)
        for forecaster in self.forecasters:
            prior = forecaster.predict()
            if prior is not None:
                self._errors[forecaster.name].append(
                    abs(prior - observed_bps) / max(observed_bps, 1.0))
            forecaster.observe(observed_bps)
        self.samples += 1

    # -- producing predictions ---------------------------------------
    def _best_forecaster(self) -> Optional[_Forecaster]:
        candidates = [f for f in self.forecasters
                      if f.predict() is not None]
        if not candidates:
            return None

        def mean_error(f: _Forecaster) -> float:
            errs = self._errors[f.name]
            if not errs:
                return float("inf") if f.name != "last" else 1.0
            return sum(errs) / len(errs)

        return min(candidates, key=mean_error)

    def predict_bps(self, fallback_bps: float) -> float:
        """Forecast the next transfer's bandwidth; falls back to the
        link's nominal rate until enough samples exist."""
        if self.samples < 2:
            return fallback_bps
        best = self._best_forecaster()
        predicted = best.predict() if best is not None else None
        return predicted if predicted else fallback_bps

    @property
    def mean_relative_error(self) -> float:
        if not self.history:
            return 0.0
        return (sum(r.relative_error for r in self.history)
                / len(self.history))

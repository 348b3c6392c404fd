"""The offload decision contract: for each of the seven reasons a
decision can have, what the traced ``decision`` event says and whether
an ``estimate`` event comes right before it.

``gain_seconds`` is a number only when Equation 1's sign decided
(``positive_gain``/``negative_gain``); a ``queue_pressure`` decline
carries an estimate but no gain, because the slot wait, not the trade,
decided it.
"""

from types import SimpleNamespace

import pytest

from repro.machine import Interpreter
from repro.runtime import FAST_WIFI, OffloadSession, SessionOptions

from conftest import HOT_KERNEL_SRC, HOT_KERNEL_STDIN, build_c

ESTIMATE_KEYS = ["gain_seconds", "t_mobile", "t_ideal", "t_comm", "t_queue",
                 "memory_bytes", "bandwidth_bytes_per_s", "observed_time",
                 "observed_traffic"]


def _link_down(estimator, name):
    estimator.transport = SimpleNamespace(usable=False)


def _failed_once(estimator, name):
    estimator.record_offload_failure(name)


def _saturated_pool(estimator, name):
    estimator.record_queue_delay(0, 100.0)


def _free_local_run(estimator, name):
    estimator.record_local_time(name, 0.0)


# reason: (session options, estimator priming, offloaded, estimate-backed)
CASES = {
    "force_local": (dict(force_local=True), None, False, False),
    "estimation_disabled": (dict(enable_dynamic_estimation=False), None,
                            True, False),
    "link_down": ({}, _link_down, False, False),
    "failure_backoff": ({}, _failed_once, False, False),
    "positive_gain": ({}, None, True, True),
    "queue_pressure": ({}, _saturated_pool, False, True),
    "negative_gain": ({}, _free_local_run, False, True),
}


@pytest.fixture(scope="module")
def program():
    return build_c(HOT_KERNEL_SRC, HOT_KERNEL_STDIN).program


@pytest.mark.parametrize("reason", list(CASES))
def test_decision_event_per_reason(program, reason):
    options, prime, offloaded, estimate_backed = CASES[reason]
    session = OffloadSession(program, FAST_WIFI, options=SessionOptions(
        enable_tracing=True, **options))
    [target] = program.targets
    if prime is not None:
        prime(session.estimator, target.name)
    before = len(session.tracer.events())
    answer = session._bi_should_offload(Interpreter(session.mobile),
                                        [target.id])
    emitted = session.tracer.events()[before:]

    assert answer == (1 if offloaded else 0)
    assert [e.category for e in emitted] == (
        ["estimate", "decision"] if estimate_backed else ["decision"])
    decision = emitted[-1]
    assert decision.name == target.name
    assert decision.payload["offloaded"] is offloaded
    assert decision.payload["reason"] == reason
    gain = decision.payload["gain_seconds"]
    if reason in ("positive_gain", "negative_gain"):
        assert isinstance(gain, float)
        assert gain == emitted[0].payload["gain_seconds"]
        assert (gain > 0) == (reason == "positive_gain")
    else:
        assert gain is None
    if estimate_backed:
        estimate = emitted[0]
        assert estimate.name == target.name
        assert list(estimate.payload) == ESTIMATE_KEYS
        assert (estimate.payload["t_queue"] > 0) == (
            reason == "queue_pressure")

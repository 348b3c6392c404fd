"""The offload decision contract: for each of the six reasons a decision
can have, the one traced ``decision`` event it emits.

``gain_seconds`` is a number only when Equation 1's sign decided
(``positive_gain``/``negative_gain``); a ``queue_pressure`` decline
carries Equation 1's terms but no gain, because the slot wait, not the
trade, decided it.  A decision made before Equation 1 was evaluated
(the link, a failure backoff, or estimation switched off) carries no
terms at all.
"""

from types import SimpleNamespace

import pytest

from repro.machine import Interpreter
from repro.offload import CompilerOptions
from repro.runtime import FAST_WIFI, OffloadSession, SessionOptions

from conftest import HOT_KERNEL_SRC, HOT_KERNEL_STDIN, build_c

DECISION_KEYS = ["offloaded", "reason", "gain_seconds"]
EQUATION_ONE_KEYS = ["t_mobile", "t_ideal", "t_comm", "t_queue",
                     "memory_bytes", "bandwidth_bytes_per_s",
                     "observed_time", "observed_traffic"]


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
    [decision] = session.tracer.events()[before:]

    assert answer == (1 if offloaded else 0)
    assert decision.category == "decision"
    assert decision.name == target.name
    payload = decision.payload
    assert payload["offloaded"] is offloaded
    assert payload["reason"] == reason
    gain = payload["gain_seconds"]
    if reason in ("positive_gain", "negative_gain"):
        assert isinstance(gain, float)
        assert (gain > 0) == (reason == "positive_gain")
    else:
        assert gain is None
    if not estimate_backed:
        assert list(payload) == DECISION_KEYS
        return
    assert list(payload) == DECISION_KEYS + EQUATION_ONE_KEYS
    # The terms are the estimator's, read as it decided: re-estimating
    # changes no state, so it gives them back.
    est = session.estimator.estimate(target)
    state = session.estimator.state[target.name]
    assert payload["t_mobile"] == est.t_mobile
    assert payload["t_ideal"] == est.t_ideal
    assert payload["t_comm"] == est.t_comm
    assert payload["t_queue"] == est.t_queue
    assert payload["memory_bytes"] == est.memory_bytes
    assert payload["bandwidth_bytes_per_s"] == est.bandwidth
    assert payload["observed_time"] is (
        state.observed_local_seconds is not None)
    assert payload["observed_traffic"] is (
        state.observed_traffic_bytes is not None)
    assert (payload["t_queue"] > 0) == (reason == "queue_pressure")
    if gain is not None:
        assert gain == est.gain


def test_a_program_without_targets_never_decides():
    """The never-offloads baseline: with no target compiled in, no
    invocation reaches the decision, so the trace holds none."""
    built = build_c(HOT_KERNEL_SRC, HOT_KERNEL_STDIN,
                    compiler_options=CompilerOptions(forced_targets=[]))
    assert built.program.targets == []
    result = built.session(FAST_WIFI, SessionOptions(
        enable_tracing=True)).run()
    assert result.invocations == []
    assert result.output == built.local().output
    assert not any(event.category == "decision"
                   for event in result.trace_events())

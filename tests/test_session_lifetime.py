"""Neither building nor running a session leaves anything behind that
points back at it: one is made per device and per replayed prefix, each
owns two address spaces, and a kept result (its trace included) must keep
neither alive."""

import gc
import types
import weakref

import pytest

from repro.fleet import (FleetScheduler, PoolOptions, ServerPool,
                         identical_devices)
from repro.machine import AddressSpace, Machine
from repro.runtime import FAST_WIFI, SessionOptions

from conftest import HOT_KERNEL_SRC, HOT_KERNEL_STDIN, build_c


def _reachable(root):
    """Every object ``root`` keeps alive, found the way the collector
    would; classes, modules and a function's globals are what the
    process holds anyway and are not followed."""
    seen, pending = {}, [root]
    while pending:
        thing = pending.pop()
        if id(thing) in seen or isinstance(thing, (type, types.ModuleType)):
            continue
        seen[id(thing)] = thing
        if isinstance(thing, types.FunctionType):
            pending += [thing.__closure__, thing.__defaults__]
        else:
            pending += gc.get_referents(thing)
    return seen.values()


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
def test_dropped_session_is_freed_by_refcounting(traced):
    built = build_c(HOT_KERNEL_SRC, HOT_KERNEL_STDIN)
    gc.collect()
    gc.disable()
    try:
        session = built.session(FAST_WIFI,
                                SessionOptions(enable_tracing=traced))
        result = session.run()
        assert result.offloaded_invocations == 1
        assert (result.trace is not None) == traced
        session_ref = weakref.ref(session)
        mobile_ref = weakref.ref(session.mobile)
        # A page's typed views reference the page: each freed view is a
        # page nothing else holds.
        views = [weakref.ref(getattr(entry, name))
                 for machine in (session.mobile, session.server)
                 for entry in machine.memory._views.values()
                 for name in ("u16", "u32", "u64", "f32", "f64")]
        assert views
        del session
        assert session_ref() is None and mobile_ref() is None
        assert [view() for view in views] == [None] * len(views)
    finally:
        gc.enable()
    assert bool(result.trace_events()) == traced    # still readable


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
def test_a_session_never_run_is_freed_by_refcounting(traced):
    """Construction makes no reference back to the session: the tracer's
    clock, the fault handler, the backends and the runtime builtins are
    wired by ``run``."""
    built = build_c(HOT_KERNEL_SRC, HOT_KERNEL_STDIN)
    gc.collect()
    gc.disable()
    try:
        session = built.session(FAST_WIFI,
                                SessionOptions(enable_tracing=traced))
        assert session.uva.mobile is session.mobile
        assert session.comm.stats.messages == 0
        session_ref = weakref.ref(session)
        mobile_ref = weakref.ref(session.mobile)
        server_ref = weakref.ref(session.server)
        del session
        assert session_ref() is None
        assert mobile_ref() is None and server_ref() is None
    finally:
        gc.enable()


def test_a_traced_fleet_result_keeps_no_machine():
    built = build_c(HOT_KERNEL_SRC, HOT_KERNEL_STDIN)
    fleet = FleetScheduler(
        identical_devices(4, built.program, FAST_WIFI,
                          stdin=HOT_KERNEL_STDIN,
                          options=SessionOptions(enable_tracing=True)),
        ServerPool(PoolOptions(servers=2, capacity=1))).run()
    assert len(fleet.merged_events()) > 4
    assert not fleet.differences(built.local().output)
    kept = [thing for thing in _reachable(fleet)
            if isinstance(thing, (Machine, AddressSpace))]
    assert kept == []

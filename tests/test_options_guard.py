"""Every option has a caller.

A field of a configuration record is settable only if some code outside
``tests/`` sets it — a CLI flag, a benchmark, a baseline, a tool — or if
:data:`ALLOWLIST` says why it stays without one.  A value nothing sets
is a constant, stated once next to the code that uses it; this guard is
what keeps the configuration surface from growing back.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

from repro import CompilerOptions, SessionOptions
from repro.fleet import AutoscalerOptions, DeviceSpec, PoolOptions, ServerSpec
from repro.offload.estimator import EstimatorParams
from repro.profiler import profile_module
from repro.runtime import FaultPlan, NetworkModel, RetryPolicy, run_local

REPO = Path(__file__).resolve().parent.parent

RECORDS = (SessionOptions, CompilerOptions, PoolOptions, ServerSpec,
           DeviceSpec, EstimatorParams, NetworkModel, FaultPlan,
           RetryPolicy, AutoscalerOptions)

#: Where a caller may live.  ``examples/`` only demonstrates what the
#: others use; ``tests/`` may set anything it needs to probe.
CALLERS = ("src", "benchmarks", "bench", "tools")

#: Fields nothing under CALLERS sets, kept on purpose: field -> reason.
ALLOWLIST = {
    "SessionOptions.straggler_factor":
        "the documented straggler policy (docs/parallel-offload.md)",
    "FaultPlan.bandwidth_factor":
        "bandwidth collapse, one of the four fault kinds of "
        "docs/fault-model.md",
}

FIELDS = {record.__name__: [f.name for f in dataclasses.fields(record)]
          for record in RECORDS}

#: ``Record.field`` for every field without a default: each constructor
#: call sets it, so it needs no caller of its own.
REQUIRED = {f"{record.__name__}.{f.name}"
            for record in RECORDS for f in dataclasses.fields(record)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING}

#: Every class defined under ``src/``: a keyword passed to one that is
#: not a record (``FunctionFilter(enable_remote_io=...)``) sets that
#: class's parameter, not a record field of the same name.
SRC_CLASSES = {node.name
               for path in sorted((REPO / "src").rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(
                   encoding="utf-8")))
               if isinstance(node, ast.ClassDef)}


def _forwards(keyword: ast.keyword) -> bool:
    """``x=x`` or ``x=opts.x``: a value handed on, not chosen.  A flag
    (``x=args.x``) is a caller."""
    value = keyword.value
    if isinstance(value, ast.Name):
        return value.id == keyword.arg
    return (isinstance(value, ast.Attribute) and value.attr == keyword.arg
            and not (isinstance(value.value, ast.Name)
                     and value.value.id == "args"))


def _set_fields() -> set:
    """``Record.field`` for every field some call under CALLERS passes a
    value of its own.  A call of the record itself sets its positional
    and keyword fields; a call of another class under ``src/`` sets
    none; any other call (``dataclasses.replace``, a helper that passes
    ``**flags`` on) sets the fields of that name of every record."""
    found = set()
    for folder in CALLERS:
        for path in sorted((REPO / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                callee = (func.attr if isinstance(func, ast.Attribute)
                          else getattr(func, "id", None))
                if callee in SRC_CLASSES and callee not in FIELDS:
                    continue
                owners = [callee] if callee in FIELDS else list(FIELDS)
                if callee in FIELDS:
                    found |= {f"{callee}.{name}" for name, arg
                              in zip(FIELDS[callee], call.args)
                              if not isinstance(arg, ast.Starred)}
                for keyword in call.keywords:
                    if keyword.arg is None or _forwards(keyword):
                        continue
                    found |= {f"{owner}.{keyword.arg}" for owner in owners
                              if keyword.arg in FIELDS[owner]}
    return found


def test_every_option_has_a_caller_or_a_reason():
    every = {f"{record}.{name}" for record, names in FIELDS.items()
             for name in names}
    unset = every - REQUIRED - _set_fields()
    assert sorted(unset - set(ALLOWLIST)) == []
    # an entry whose field gained a caller, or is gone, is stale
    assert sorted(set(ALLOWLIST) - unset) == []
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_the_records_hold_what_the_audit_left():
    assert {name: len(fields) for name, fields in FIELDS.items()} == {
        "SessionOptions": 14, "CompilerOptions": 6, "PoolOptions": 4,
        "ServerSpec": 5, "DeviceSpec": 8, "EstimatorParams": 2,
        "NetworkModel": 4, "FaultPlan": 7, "RetryPolicy": 1,
        "AutoscalerOptions": 3}


def test_entry_points_default_only_what_callers_pass():
    def defaulted(fn):
        return [name for name, p in inspect.signature(fn).parameters.items()
                if p.default is not inspect.Parameter.empty]

    assert defaulted(run_local) == ["arch", "stdin", "files", "observer"]
    assert defaulted(profile_module) == ["arch", "stdin", "files"]


def test_page_size_and_instruction_limit_are_stated_once():
    literals = [node.value
                for path in sorted((REPO / "src").rglob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(
                    encoding="utf-8")))
                if isinstance(node, ast.Constant)
                and type(node.value) is int]
    assert literals.count(4096) == 1            # machine.memory
    assert literals.count(500_000_000) == 1     # machine.interpreter

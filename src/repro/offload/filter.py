"""Function filter: machine-specific task detection (paper, Section 3.1).

A function or loop is ruled out of offloading if it (transitively) contains
an assembly instruction, a system call, an unknown external library call, or
an I/O instruction.  Remotely-executable I/O functions (known output
functions, and file input via prefetch) are excluded from the machine
specific set when the remote I/O manager is enabled (Section 3.4), which is
what lets hot loops containing ``printf`` still be offloaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.callgraph import CallGraph
from ..analysis.loops import Loop
from ..ir import instructions as inst
from ..ir.module import Module
from ..ir.values import Function
from ..frontend.builtins import BUILTIN_SIGNATURES
from ..machine.libc import STDIO

# Interactive input: requires the user at the mobile device.  Always
# machine specific (scanf in getPlayerTurn pins runGame/main, Figure 3).
INTERACTIVE_IO = {"scanf", "getchar"}

# The calls the remote I/O manager forwards to the mobile device
# (r_printf & co., Section 3.4): output, and file input — remotely
# executable because file data can be prefetched and the round trips
# amortized.  One row of libc's STDIO table each.
REMOTE_IO_FUNCTIONS = frozenset(STDIO)

IO_FUNCTIONS = INTERACTIVE_IO | REMOTE_IO_FUNCTIONS

# Remaining known builtins (allocation, string, math, ``sprintf``, which
# formats into memory, ...) are machine independent.
PURE_BUILTINS = set(BUILTIN_SIGNATURES) - IO_FUNCTIONS


@dataclass
class FilterVerdict:
    """Why a candidate is machine specific (or None if offloadable)."""

    name: str
    machine_specific: bool
    reasons: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:  # truthy == offloadable
        return not self.machine_specific


class FunctionFilter:
    """Classifies every function (and any loop) of a module."""

    def __init__(self, module: Module, callgraph: Optional[CallGraph] = None,
                 enable_remote_io: bool = True):
        self.module = module
        self.callgraph = callgraph or CallGraph(module)
        self.enable_remote_io = enable_remote_io
        self._local_reasons: Dict[str, List[str]] = {}
        self._verdicts: Dict[str, FilterVerdict] = {}
        self._classify_all()

    # -- public API ------------------------------------------------------
    def verdict(self, name: str) -> FilterVerdict:
        return self._verdicts[name]

    def is_offloadable(self, name: str) -> bool:
        return not self._verdicts[name].machine_specific

    def classify_loop(self, loop: Loop) -> FilterVerdict:
        """A loop is machine specific iff its blocks contain a machine
        specific instruction or call a machine specific function
        (transitively)."""
        reasons: List[str] = []
        for block in loop.blocks:
            for instruction in block.instructions:
                reasons.extend(self._instruction_reasons(instruction))
                if isinstance(instruction, inst.Call):
                    callee = instruction.called_function
                    if callee is not None and callee.is_definition:
                        verdict = self._verdicts.get(callee.name)
                        if verdict is not None and verdict.machine_specific:
                            reasons.append(
                                f"calls machine-specific {callee.name}")
                    elif callee is None:
                        # indirect call: any address-taken function may run
                        for name in sorted(self.callgraph.address_taken):
                            verdict = self._verdicts.get(name)
                            if verdict is not None and \
                                    verdict.machine_specific:
                                reasons.append(
                                    f"may call machine-specific {name} "
                                    "through a pointer")
        return FilterVerdict(loop.name, bool(reasons), reasons)

    # -- classification ---------------------------------------------------
    def _classify_all(self) -> None:
        for fn in self.module.functions.values():
            if fn.is_definition:
                self._local_reasons[fn.name] = self._local_scan(fn)
        for fn in self.module.defined_functions():
            reasons = list(self._local_reasons[fn.name])
            for callee in sorted(self.callgraph.transitive_callees(fn.name)):
                for reason in self._local_reasons.get(callee, []):
                    reasons.append(f"via {callee}: {reason}")
            self._verdicts[fn.name] = FilterVerdict(
                fn.name, bool(reasons), reasons)

    def _local_scan(self, fn: Function) -> List[str]:
        reasons: List[str] = []
        for instruction in fn.instructions():
            reasons.extend(self._instruction_reasons(instruction))
        return reasons

    def _instruction_reasons(self, instruction: inst.Instruction
                             ) -> List[str]:
        if isinstance(instruction, inst.InlineAsm):
            return [f"assembly instruction {instruction.text!r}"]
        if isinstance(instruction, inst.Syscall):
            return [f"system call {instruction.number}"]
        if not isinstance(instruction, inst.Call):
            return []
        callee = instruction.called_function
        if callee is None or callee.is_definition:
            return []  # defined functions handled transitively
        return self._external_reasons(callee.name)

    def _external_reasons(self, name: str) -> List[str]:
        if name in INTERACTIVE_IO:
            return [f"interactive I/O call {name}"]
        if name in REMOTE_IO_FUNCTIONS:
            if self.enable_remote_io:
                return []  # remotely executable (Section 3.4)
            return [f"I/O call {name}"]
        if name in PURE_BUILTINS or name.startswith("__no_") or \
                name.startswith("u_"):
            return []
        return [f"unknown external library call {name}"]

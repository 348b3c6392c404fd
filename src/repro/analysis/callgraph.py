"""Call graph construction.

Used by the function filter (a function is machine specific if anything it
*transitively* calls is machine specific), by unused-function removal in the
server partition, and by the static partitioning baseline.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from ..ir import instructions as inst
from ..ir.module import Module
from ..ir.values import Function, FunctionRefInit, AggregateInit


class CallGraph:
    def __init__(self, module: Module):
        self.module = module
        self._successors: Dict[str, Set[str]] = {}
        self._predecessors: Dict[str, Set[str]] = {}
        self.address_taken: Set[str] = set()
        self._build()

    def _add_node(self, name: str) -> None:
        self._successors.setdefault(name, set())
        self._predecessors.setdefault(name, set())

    def _add_edge(self, caller: str, callee: str) -> None:
        self._add_node(caller)
        self._add_node(callee)
        self._successors[caller].add(callee)
        self._predecessors[callee].add(caller)

    def _build(self) -> None:
        for fn in self.module.functions.values():
            self._add_node(fn.name)
        for fn in self.module.defined_functions():
            for instruction in fn.instructions():
                if isinstance(instruction, inst.Call):
                    callee = instruction.called_function
                    if callee is not None:
                        self._add_edge(fn.name, callee.name)
                # A function used as a plain operand (not a callee) has its
                # address taken — it may be called indirectly from anywhere.
                operands = (instruction.operands[1:]
                            if isinstance(instruction, inst.Call)
                            else instruction.operands)
                for op in operands:
                    if isinstance(op, Function):
                        self.address_taken.add(op.name)
        for gv in self.module.globals.values():
            self._scan_initializer(gv.initializer)
        # Address-taken functions are conservatively callable from any
        # function containing an indirect call.
        indirect_callers = [
            fn.name for fn in self.module.defined_functions()
            if any(isinstance(i, inst.Call) and i.is_indirect
                   for i in fn.instructions())
        ]
        for caller in indirect_callers:
            for target in self.address_taken:
                if target in self.module.functions:
                    self._add_edge(caller, target)

    def _scan_initializer(self, init) -> None:
        if isinstance(init, FunctionRefInit):
            self.address_taken.add(init.function_name)
        elif isinstance(init, AggregateInit):
            for element in init.elements:
                self._scan_initializer(element)

    def callees(self, name: str) -> List[str]:
        return sorted(self._successors[name])

    def callers(self, name: str) -> List[str]:
        return sorted(self._predecessors[name])

    def _called_from(self, roots: Iterable[str]) -> Set[str]:
        """What a call chain of one call or more reaches from ``roots``
        (an iterative depth-first walk; unknown names reach nothing)."""
        seen: Set[str] = set()
        pending = [root for root in roots if root in self._successors]
        while pending:
            for callee in self._successors[pending.pop()]:
                if callee not in seen:
                    seen.add(callee)
                    pending.append(callee)
        return seen

    def transitive_callees(self, name: str) -> Set[str]:
        # without ``name`` itself, even when it is on a cycle
        return self._called_from([name]) - {name}

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        roots = [root for root in roots if root in self._successors]
        return self._called_from(roots).union(roots)

"""Partitioning: derive the mobile and server binaries (paper, Section 3.3).

* **Mobile partition** — an offload target's body moves to
  ``<target>__local`` and the target itself becomes a stub that consults
  the runtime's *dynamic* performance estimator (``__no_should_offload``)
  and either requests offloading (``__no_offload_<target>``) or calls the
  local body, exactly the ``isProfitable``/``requestOffload`` pattern of
  Figure 3(b).  The stub keeps the target's name and address, so every
  way into the target — a direct call, a function-pointer table entry,
  a stored or passed address — reaches the decision.
* **Server partition** — only the offload targets and whatever they can
  reach (including address-taken functions callable through pointers)
  survive; everything else, ``getPlayerTurn``-style, is removed.  Request
  dispatch itself lives in the Native Offloader runtime.
* **Stack reallocation** — the server executes targets on a stack far from
  the mobile stack in the shared UVA space; the machine model's
  ``SERVER_STACK_TOP`` realizes this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.callgraph import CallGraph
from ..ir.builder import IRBuilder
from ..ir.instructions import Call
from ..ir.module import Module
from ..ir.types import FunctionType, I1, I32
from ..ir.values import Constant, Function

SHOULD_OFFLOAD = "__no_should_offload"
OFFLOAD_PREFIX = "__no_offload_"
LOCAL_SUFFIX = "__local"


@dataclass
class OffloadTarget:
    """One compiled offload target."""

    id: int
    name: str           # function name in both partitions
    kind: str           # "function" or "loop" (outlined loops included)

    @property
    def body(self) -> str:
        """The target's code in the mobile partition (its name: the stub)."""
        return self.name + LOCAL_SUFFIX


@dataclass
class PartitionResult:
    mobile_module: Module
    server_module: Module
    targets: List[OffloadTarget]
    removed_server_functions: List[str] = field(default_factory=list)

    def target_by_id(self, target_id: int) -> OffloadTarget:
        for target in self.targets:
            if target.id == target_id:
                return target
        raise KeyError(target_id)


def partition(module: Module, target_names: List[str],
              target_kinds: Optional[Dict[str, str]] = None,
              server_roots: Optional[List[str]] = None
              ) -> PartitionResult:
    """Split a unified module into mobile and server partitions.

    ``server_roots`` names extra functions the server partition must keep
    even though no target calls them — the scatter/gather shard wrappers
    the runtime invokes directly."""
    kinds = target_kinds or {}
    targets = [OffloadTarget(i + 1, name, kinds.get(name, "function"))
               for i, name in enumerate(sorted(target_names))]
    mobile = module.clone(f"{module.name}.mobile")
    server = module.clone(f"{module.name}.server")
    for target in targets:
        _install_mobile_stub(mobile, target)
    removed = _remove_unused_server_functions(
        server, [t.name for t in targets] + sorted(server_roots or []))
    return PartitionResult(mobile_module=mobile, server_module=server,
                           targets=targets,
                           removed_server_functions=removed)


def _install_mobile_stub(module: Module, target: OffloadTarget) -> None:
    stub = module.function(target.name)
    should = module.declare_function(
        SHOULD_OFFLOAD, FunctionType(I1, [I32]))
    remote = module.declare_function(
        OFFLOAD_PREFIX + target.name, stub.ftype)
    # The body and its arguments move to ``<target>__local``; the target
    # keeps its name, position and every reference, and is the stub.
    body = Function(target.body, stub.ftype, [a.name for a in stub.args])
    body.args, stub.args = stub.args, body.args
    body.blocks, stub.blocks = stub.blocks, []
    body.is_external = False
    for block in body.blocks:
        block.parent = body
    # Recursive calls stay local to one placement; the body's other uses
    # of its own address name the stub, which both partitions pair.
    for instruction in body.instructions():
        if isinstance(instruction, Call) and instruction.callee is stub:
            instruction.operands[0] = body
    module.add_function(body)

    b = IRBuilder(stub.add_block("entry"))
    branches = stub.add_block("offload"), stub.add_block("local")
    b.condbr(b.call(should, [Constant(I32, target.id)], "go"), *branches)
    for block, callee in zip(branches, (remote, body)):
        b.position_at_end(block)
        result = b.call(callee, list(stub.args))
        b.ret(None if stub.ftype.ret.is_void else result)


def _remove_unused_server_functions(module: Module,
                                    target_names: List[str]) -> List[str]:
    callgraph = CallGraph(module)
    roots = list(target_names) + sorted(callgraph.address_taken)
    keep = callgraph.reachable_from(roots)
    keep.update(target_names)
    removed = []
    for name in list(module.functions):
        fn = module.functions[name]
        if not fn.is_definition:
            continue  # externals stay declared
        if name not in keep:
            module.remove_function(name)
            removed.append(name)
    return sorted(removed)

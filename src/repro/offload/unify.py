"""Memory unification code generation (paper, Section 3.2).

Five cooperating transformations give both machines one coherent view of
shared data on the unified virtual address (UVA) space:

* **Heap allocation replacement** — every malloc/free/calloc/realloc call
  site becomes a UVA allocation (u_malloc & co.), because imprecise alias
  analysis cannot prove which objects the server will touch.
* **Referenced global variable allocation** — globals referenced by the
  offloaded task (transitively) are reallocated onto the UVA heap, so both
  back ends resolve them to the *same* address.
* **Memory layout realignment** — the mobile ABI's struct layouts become
  the unified layouts both machines use (Figure 4).
* **Address size conversion** — pointers are stored at the mobile pointer
  width; a 64-bit server zero-extends on load and truncates on store.
* **Endianness translation** — memory is kept in the mobile byte order;
  a different-endian server swaps on every multi-byte access.

The last three are realized as a *unified data layout* recorded in module
metadata; a machine adopts it when it loads the module
(:func:`repro.targets.unified_data_layout`), and the interpreter charges
the conversion costs (Section 5 reports them: negligible for address size,
zero for endianness on ARM/x86).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..analysis.callgraph import CallGraph
from ..ir import instructions as inst
from ..ir.module import Module
from ..ir.values import GlobalVariable
from ..targets.abi import (UNIFIED_LAYOUTS_KEY, UNIFIED_ORDER_KEY,
                           UNIFIED_POINTER_KEY, DataLayout, layouts_differ)
from ..targets.arch import TargetArch

# malloc-family -> UVA-family rewrite map.
_ALLOC_REWRITES = {
    "malloc": "u_malloc",
    "free": "u_free",
    "calloc": "u_calloc",
    "realloc": "u_realloc",
}


@dataclass
class UnificationReport:
    replaced_allocation_sites: int = 0
    uva_globals: int = 0
    total_globals: int = 0
    realigned_structs: List[str] = field(default_factory=list)
    needs_pointer_conversion: bool = False
    needs_endianness_translation: bool = False

    def summary(self) -> str:
        return (f"alloc sites: {self.replaced_allocation_sites}, "
                f"UVA globals: {self.uva_globals}/{self.total_globals}, "
                f"realigned structs: {len(self.realigned_structs)}, "
                f"ptr conv: {self.needs_pointer_conversion}, "
                f"endian: {self.needs_endianness_translation}")


def unify_memory(module: Module,
                 mobile_arch: TargetArch,
                 server_arch: TargetArch,
                 target_names: List[str],
                 callgraph: Optional[CallGraph] = None,
                 enable_heap_replacement: bool = True,
                 enable_global_realloc: bool = True,
                 enable_layout_realignment: bool = True) -> UnificationReport:
    """Apply memory unification in place; returns what was done."""
    report = UnificationReport(total_globals=len(module.globals))
    if enable_heap_replacement:
        report.replaced_allocation_sites = replace_allocation_sites(module)
    if enable_global_realloc:
        report.uva_globals = reallocate_referenced_globals(
            module, target_names, callgraph)
    mobile_layout = DataLayout(mobile_arch)
    server_layout = DataLayout(server_arch)
    if enable_layout_realignment:
        report.realigned_structs = layouts_differ(
            mobile_layout, server_layout, list(module.structs.values()))
        module.metadata[UNIFIED_LAYOUTS_KEY] = {
            name: mobile_layout.struct_layout(struct)
            for name, struct in module.structs.items()
            if not struct.is_opaque}
        module.metadata[UNIFIED_POINTER_KEY] = mobile_arch.pointer_bytes
        module.metadata[UNIFIED_ORDER_KEY] = mobile_arch.endianness
    report.needs_pointer_conversion = (
        mobile_arch.pointer_bytes != server_arch.pointer_bytes)
    report.needs_endianness_translation = (
        mobile_arch.endianness != server_arch.endianness)
    return report


def replace_allocation_sites(module: Module) -> int:
    """Rewrite every allocation/deallocation call site to the UVA heap."""
    replaced = 0
    for fn in list(module.defined_functions()):
        for instruction in fn.instructions():
            if not isinstance(instruction, inst.Call):
                continue
            callee = instruction.called_function
            if callee is None or callee.is_definition:
                continue
            new_name = _ALLOC_REWRITES.get(callee.name)
            if new_name is None:
                continue
            replacement = module.declare_function(new_name, callee.ftype)
            instruction.replace_operand(callee, replacement)
            instruction.ftype = replacement.ftype
            replaced += 1
    return replaced


def reallocate_referenced_globals(module: Module,
                                  target_names: List[str],
                                  callgraph: Optional[CallGraph] = None
                                  ) -> int:
    """Mark every global referenced by the offloaded tasks (transitively,
    including functions they reach through taken addresses — the call
    graph links every indirect caller to every address-taken function)
    as UVA-allocated.  A function only the phone calls through a
    pointer never runs on the server, so its globals stay local."""
    callgraph = callgraph or CallGraph(module)
    reachable = callgraph.reachable_from(target_names)
    referenced: Set[str] = set()
    for name in reachable:
        fn = module.get_function(name)
        if fn is None or not fn.is_definition:
            continue
        for instruction in fn.instructions():
            for op in instruction.operands:
                if isinstance(op, GlobalVariable):
                    referenced.add(op.name)
    count = 0
    for name in referenced:
        gv = module.globals.get(name)
        if gv is not None and not gv.uva_allocated:
            gv.uva_allocated = True
            count += 1
    return count

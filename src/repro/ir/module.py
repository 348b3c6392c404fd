"""IR module: the unit the Native Offloader compiler transforms.

A module owns struct types, global variables and functions.  The offload
compiler clones a module into a mobile partition and a server partition
(Section 3.3), so modules support deep cloning.
"""

from __future__ import annotations

import pickle
from typing import Dict, Iterator, Optional

from .types import FunctionType, StructType
from .values import Function, GlobalVariable


class Module:
    def __init__(self, name: str = "module"):
        self.name = name
        self.structs: Dict[str, StructType] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        self.functions: Dict[str, Function] = {}
        # Free-form metadata: source LoC, profile data references, the
        # unified layout map installed by memory-layout realignment, etc.
        self.metadata: Dict[str, object] = {}
        self.templates = None  # decoded code, by machine.interpreter

    # -- structs ------------------------------------------------------------
    def add_struct(self, struct: StructType) -> StructType:
        if struct.name in self.structs:
            raise KeyError(f"duplicate struct {struct.name}")
        self.structs[struct.name] = struct
        return struct

    def struct(self, name: str) -> StructType:
        return self.structs[name]

    # -- globals ------------------------------------------------------------
    def add_global(self, gv: GlobalVariable) -> GlobalVariable:
        if gv.name in self.globals:
            raise KeyError(f"duplicate global {gv.name}")
        self.globals[gv.name] = gv
        return gv

    def global_(self, name: str) -> GlobalVariable:
        return self.globals[name]

    # -- functions ----------------------------------------------------------
    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise KeyError(f"duplicate function {fn.name}")
        fn.module = self
        self.functions[fn.name] = fn
        return fn

    def function(self, name: str) -> Function:
        return self.functions[name]

    def get_function(self, name: str) -> Optional[Function]:
        return self.functions.get(name)

    def remove_function(self, name: str) -> None:
        self.functions.pop(name).module = None

    def declare_function(self, name: str, ftype: FunctionType) -> Function:
        """Get-or-declare an external function."""
        fn = self.functions.get(name)
        if fn is None:
            fn = Function(name, ftype)
            self.add_function(fn)
        return fn

    def defined_functions(self) -> Iterator[Function]:
        return (f for f in self.functions.values() if f.is_definition)

    def clone(self, name: Optional[str] = None) -> "Module":
        """Deep-copy the module (used by the partitioner to derive the
        mobile and server variants from the unified IR).  The copy is a
        pickle round trip, which copies the same graph as ``deepcopy``
        without a Python call per object."""
        cloned = pickle.loads(pickle.dumps(self, pickle.HIGHEST_PROTOCOL))
        if name is not None:
            cloned.name = name
        return cloned

    def __repr__(self) -> str:
        return (f"<Module {self.name}: {len(self.functions)} functions, "
                f"{len(self.globals)} globals, {len(self.structs)} structs>")

"""Values of the IR: constants, globals, functions, blocks, arguments.

Every value has a type.  Instructions (which are also values) live in
:mod:`repro.ir.instructions`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Union

from .types import FunctionType, IRType, IntType, PointerType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .instructions import Instruction
    from .module import Module


class Value:
    """Base class for everything that can be an operand."""

    def __init__(self, type: IRType, name: str = ""):
        self.type = type
        self.name = name

    def short(self) -> str:
        """Compact operand rendering used by the printer."""
        return f"%{self.name}" if self.name else "%<anon>"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.short()} : {self.type}>"


class Constant(Value):
    """A scalar constant (integer, float, or null pointer)."""

    def __init__(self, type: IRType, value: Union[int, float]):
        super().__init__(type)
        if isinstance(type, IntType):
            value = int(value) & type.max_unsigned
        elif type.is_float:
            value = float(value)
        elif type.is_pointer:
            value = int(value)
        else:
            raise TypeError(f"constant of non-scalar type {type}")
        self.value = value

    def short(self) -> str:
        return str(self.value)

    @staticmethod
    def null(ptr_type: PointerType) -> "Constant":
        return Constant(ptr_type, 0)


class UndefValue(Value):
    """An undefined value of a given type."""

    def short(self) -> str:
        return "undef"


# ---------------------------------------------------------------------------
# Global initializers
# ---------------------------------------------------------------------------

class Initializer:
    """Base class for static initializers of global variables."""


class ZeroInit(Initializer):
    """Zero-initialized storage (.bss)."""

    def __repr__(self) -> str:
        return "zeroinit"


class ScalarInit(Initializer):
    def __init__(self, value: Union[int, float]):
        self.value = value

    def __repr__(self) -> str:
        return f"scalar({self.value})"


class BytesInit(Initializer):
    """Raw bytes, used for string literals."""

    def __init__(self, data: bytes):
        self.data = bytes(data)

    def __repr__(self) -> str:
        return f"bytes({self.data!r})"


class AggregateInit(Initializer):
    """Element-wise initializer for arrays and structs."""

    def __init__(self, elements: Iterable[Initializer]):
        self.elements = list(elements)

    def __repr__(self) -> str:
        return f"agg({self.elements})"


class FunctionRefInit(Initializer):
    """Initializer holding the address of a function (function pointers in
    global tables, e.g. ``evals[7] = {Pawn, ..., King}`` in Figure 3)."""

    def __init__(self, function_name: str):
        self.function_name = function_name

    def __repr__(self) -> str:
        return f"&{self.function_name}"


class GlobalRefInit(Initializer):
    """Initializer holding the address of another global."""

    def __init__(self, global_name: str, offset: int = 0):
        self.global_name = global_name
        self.offset = offset

    def __repr__(self) -> str:
        return f"&@{self.global_name}+{self.offset}"


class GlobalVariable(Value):
    """A module-level variable.

    ``self.type`` is a *pointer* to the value type, mirroring LLVM: using a
    global as an operand yields its address.  The back end (the simulated
    machine loader) assigns each global a concrete address — a *different*
    one on each architecture, which is exactly why the referenced-global
    reallocation pass exists.
    """

    def __init__(self, name: str, value_type: IRType,
                 initializer: Optional[Initializer] = None,
                 constant: bool = False):
        super().__init__(PointerType(value_type), name)
        self.value_type = value_type
        self.initializer = initializer if initializer is not None else ZeroInit()
        self.constant = constant
        # Set by the referenced-global reallocation pass (Section 3.2):
        # when True the loader places this global on the UVA heap.
        self.uva_allocated = False

    def short(self) -> str:
        return f"@{self.name}"


class Argument(Value):
    def __init__(self, name: str, type: IRType, index: int):
        super().__init__(type, name)
        self.index = index


class BasicBlock(Value):
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str, parent: Optional["Function"] = None):
        from .types import VOID
        super().__init__(VOID, name)
        self.parent = parent
        self.instructions: List["Instruction"] = []

    def append(self, inst: "Instruction") -> "Instruction":
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: "Instruction") -> "Instruction":
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def remove(self, inst: "Instruction") -> None:
        self.instructions.remove(inst)
        inst.parent = None

    @property
    def terminator(self) -> Optional["Instruction"]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return list(term.targets()) if term is not None else []

    def short(self) -> str:
        return f"%{self.name}"

    def __iter__(self):
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)


class Function(Value):
    """A function: arguments plus a list of basic blocks.

    External functions (libc, the Native Offloader runtime API) have no
    blocks; the simulated machine binds them to builtin implementations.
    """

    def __init__(self, name: str, ftype: FunctionType,
                 arg_names: Optional[List[str]] = None):
        super().__init__(PointerType(ftype), name)
        self.ftype = ftype
        arg_names = arg_names or [f"arg{i}" for i in range(len(ftype.params))]
        if len(arg_names) != len(ftype.params):
            raise ValueError("argument name count mismatch")
        self.args = [Argument(n, t, i)
                     for i, (n, t) in enumerate(zip(arg_names, ftype.params))]
        self.blocks: List[BasicBlock] = []
        self.is_external = True
        self.module: Optional["Module"] = None
        # Annotations consumed by the offload compiler.
        self.attributes: set = set()
        # Source-level line count, recorded by the frontend for Table 4.
        self.source_lines = 0

    @property
    def is_definition(self) -> bool:
        return bool(self.blocks)

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no body")
        return self.blocks[0]

    def add_block(self, name: str, before: Optional[BasicBlock] = None) -> BasicBlock:
        block = BasicBlock(name, parent=self)
        if before is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.blocks.index(before), block)
        self.is_external = False
        return block

    def instructions(self):
        for block in self.blocks:
            yield from block.instructions

    def short(self) -> str:
        return f"@{self.name}"

    def __iter__(self):
        return iter(self.blocks)

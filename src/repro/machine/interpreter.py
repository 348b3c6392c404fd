"""IR interpreter with per-architecture cycle accounting.

This is the "CPU" of a simulated machine.  Execution is functionally exact
(byte-accurate memory, real control flow) while *time* is modelled: every
executed instruction charges cycles from the target's timing model, so the
same program takes ~5-6x longer on the ARM mobile profile than on the x86
server profile — the gap the paper's Table 1 measures.

The interpreter also charges and counts the two memory-unification
overheads the paper discusses: address-size conversion (negligible) and
endianness translation (zero on the default little/little pair).

A function is *decoded* the first time it is called on a machine shape:
every basic block becomes the source of one Python function (more where
calls cut it; one that ends in an unconditional branch runs on into the
block it jumps to), with everything that is constant for the (function,
machine shape) pair written into it as a literal or bound in its globals.
Each is compiled the first time it runs, and a call runs those functions
over a list-shaped frame.  What a decode leaves — a template, kept on the
module — serves every later interpreter on a machine of an equal shape,
which binds only its own machine's objects (docs/architecture.md,
"Interpreter: decode once, then run generated blocks").
"""

from __future__ import annotations

import builtins
import functools
import math
import re
import sys
from bisect import bisect_right
from types import CodeType, FunctionType
from typing import Collection, Dict, List, Optional, Sequence

from ..ir import instructions as inst
from ..ir.types import ArrayType, FloatType, IntType, PointerType, StructType
from ..ir.values import (Argument, BasicBlock, Constant, Function,
                         GlobalVariable, UndefValue, Value)
from .machine import Machine, STACK_SIZE
from .values import (round_to_single, scalar_size, scalar_struct, to_signed,
                     to_unsigned, too_wide)


class InterpreterError(Exception):
    pass


class BadFunctionPointer(InterpreterError):
    """Indirect call through an address that is not a function entry point
    on this machine — e.g. a *mobile* code address dereferenced on the
    server without function-pointer mapping."""

    def __init__(self, address: int):
        super().__init__(f"indirect call to non-function address {address:#x}")
        self.address = address


class StackOverflow(InterpreterError):
    pass


class ExecutionLimitExceeded(InterpreterError):
    pass


class ExitProgram(Exception):
    """Raised by the exit() builtin to unwind the interpreter."""

    def __init__(self, code: int):
        super().__init__(f"exit({code})")
        self.code = code


class Observer:
    """Hook interface for profilers and the offload runtime.  All methods
    are optional no-ops.  ``enter_block`` is called for the blocks in
    ``watched`` — every block while it is None — so an observer whose
    block hook does something only on some blocks (the profiler: where
    the innermost loop changes) or none (the runtime's target timer)
    pays nothing on the others: generated code runs on through a ``br``
    into any block not watched, as it does with no observer.  It is read
    when a function is decoded, and interpreters share decoded code only
    with those whose observers watch the same blocks.
    There is no per-access hook: the pages code touches are recorded by
    the machine's ``AddressSpace.touched``, which ``attach`` can
    reach."""

    watched: Optional[Collection[BasicBlock]] = None

    def attach(self, machine: Machine) -> None:
        """The machine an interpreter observed by this runs on."""

    def enter_function(self, fn: Function, cycles: float) -> None:
        pass

    def exit_function(self, fn: Function, cycles: float) -> None:
        pass

    def enter_block(self, block: BasicBlock, cycles: float) -> None:
        pass


_DIV_OPS = {"sdiv", "udiv", "srem", "urem", "fdiv", "frem"}
_MASK64 = 0xFFFFFFFFFFFFFFFF
# What a frame slot holds until the instruction that defines it has run.
_UNDEFINED = object()


class Interpreter:
    """Executes IR on a :class:`Machine`."""

    def __init__(self, machine: Machine,
                 observer: Optional[Observer] = None,
                 max_instructions: int = 500_000_000):
        self.machine = machine
        self.observer = observer
        if observer is not None:
            observer.attach(machine)
        self.max_instructions = max_instructions
        self.sp = machine.stack_top
        self.instruction_count = 0
        self.cycles = 0.0
        self.call_depth = 0
        # Deep guest recursion needs several Python frames per guest
        # frame; lift the interpreter limit so the *simulated* stack (or
        # the call-depth guard) is what overflows, deterministically.
        if sys.getrecursionlimit() < 30000:
            sys.setrecursionlimit(30000)
        from ..targets.arch import CYCLE_TIME_SCALE
        self._scale = CYCLE_TIME_SCALE
        self._cycle_table = {k: v * self._scale
                             for k, v in machine.arch.cycles.items()}
        self._call_cost = self._cycle_table["call"]  # as charge("call")
        # Function -> (blocks, frame size), filled on first call.
        self._decoded: Dict[Function, tuple] = {}
        # Function -> _Template of this machine's module and shape and
        # the observer's watched set, found on the first call: layout and
        # addresses are fixed for an interpreter's lifetime, so its
        # machine's shape is too.
        self._templates: Optional[dict] = None

    # -- accounting -----------------------------------------------------
    # ``cycles`` is a running sum of non-dyadic floats: one add per charge,
    # in program order, or every simulated number moves.
    def charge(self, inst_class: str, count: float = 1.0) -> None:
        self.cycles += self._cycle_table[inst_class] * count

    def charge_raw_cycles(self, cycles: float) -> None:
        """Charge unscaled cycles — for runtime services whose cost is a
        real machine-cycle figure (e.g. a hash-table lookup), not an
        IR-operation bundle."""
        self.cycles += cycles

    @property
    def time_seconds(self) -> float:
        return self.cycles / self.machine.arch.clock_hz

    # -- entry points ---------------------------------------------------
    def call_by_name(self, name: str, args: Sequence = ()):
        fn = self.machine.module.function(name)
        return self.call_function(fn, list(args))

    def run_main(self, argv: Sequence[str] = ()) -> int:
        """Execute ``main`` like a C runtime would; returns the exit code."""
        main = self.machine.module.get_function("main")
        if main is None:
            raise InterpreterError("module has no main function")
        args: List = []
        if len(main.ftype.params) >= 1:
            args.append(to_unsigned(len(argv) + 1, 32))
        if len(main.ftype.params) >= 2:
            args.append(0)  # argv pointer: not modelled
        try:
            result = self.call_function(main, args)
        except ExitProgram as exit_:
            return exit_.code
        return to_signed(result, 32) if result is not None else 0

    # -- call machinery --------------------------------------------------
    def call_function(self, fn: Function, args: List):
        if not fn.blocks:  # not a definition
            return self._call_external(fn, args)
        if self.call_depth > 4000:
            raise StackOverflow(f"call depth exceeded in {fn.name}")
        self.cycles += self._call_cost
        if self.observer is not None:
            self.observer.enter_function(fn, self.cycles)
        saved_sp = self.sp
        self.call_depth += 1
        try:
            result = self._run(fn, args)
        finally:
            self.call_depth -= 1
            self.sp = saved_sp
            if self.observer is not None:
                self.observer.exit_function(fn, self.cycles)
        return result

    def _call_external(self, fn: Function, args: List):
        builtin = self.machine.builtins.get(fn.name)
        if builtin is None:
            raise InterpreterError(
                f"call to unknown external function {fn.name}")
        self.cycles += self._call_cost
        return builtin(self, args)

    # -- the run loop ---------------------------------------------------
    def _run(self, fn: Function, args: Sequence):
        decoded = self._decoded.get(fn)
        if decoded is None:
            decoded = self._decoded[fn] = _decode(self, fn)
        blocks, frame_size = decoded
        frame = [_UNDEFINED] * frame_size
        passed = min(len(args), len(fn.args))
        frame[:passed] = args[:passed]
        observer = self.observer
        limit = self.max_instructions
        index = 0
        while True:
            block = blocks[index]
            if block.ir is not None:
                observer.enter_block(block.ir, self.cycles)
            count = block.count
            run = block.run
            counted = self.instruction_count + count
            if counted > limit:
                # Instruction ``allowed + 1`` is counted and raises, as a
                # per-instruction check would.
                allowed = limit - self.instruction_count
                run = _function(self, fn, index, max(allowed, 0))
            # The stretch is counted on entry; whatever unwinds out of it
            # (a guest error, a link fault) gives back the instructions
            # that never started, and a call ends its stretch, so the
            # count is exact wherever it can be read: in a builtin, in a
            # callee's limit check, after exit() or a fleet segment
            # boundary.
            self.instruction_count = counted
            try:
                result = run(self, frame)
            except BaseException as error:
                self.instruction_count -= count - block.started(
                    error.__traceback__)
                raise
            if block.returns:
                return result
            index = result  # the terminator's value


# -- generated code ----------------------------------------------------------

_GUEST_FILE = "<guest block>"
# How many distinct texts stay compiled.
_CODE_CACHE_BLOCKS = 2048


@functools.lru_cache(maxsize=_CODE_CACHE_BLOCKS)
def _block_code(source: str) -> CodeType:
    """The code object of the one function ``source`` defines.  Keyed by
    the text, so every interpreter whose decoder writes the same block —
    the next round's, the server's, the oracle's — shares one ``compile``.
    A code object references nothing of the machine it runs on: that is
    all in the function's globals."""
    module = compile(source, _GUEST_FILE, "exec")
    return next(const for const in module.co_consts
                if isinstance(const, CodeType))


# One line: it raises on the line the first instruction that does not run
# starts on, however few lines that instruction's chunk has (a ``br`` that
# runs on is one), so the give-back counts that instruction as started.
_LIMIT_EXCEEDED = (" interp.cycles = c; raise ExecutionLimitExceeded("
                   "f'exceeded {interp.max_instructions} instructions')\n")


class _Stretch:
    """One stretch as every interpreter of a machine shape and watched
    set runs it: its ``code`` once some interpreter has compiled it,
    ``lines`` — the line each instruction's chunk of source starts on,
    over every block it runs on through — its instruction ``count``,
    whether it ``returns``, and the basic block it begins (``ir``, else
    None)."""

    __slots__ = ("code", "lines", "count", "returns", "ir")

    def __init__(self, header: str, chunks: List[str], count: int,
                 returns: bool, ir: Optional[BasicBlock]):
        self.code: Optional[CodeType] = None
        self.count, self.returns, self.ir = count, returns, ir
        self.lines, line = [], 1 + header.count("\n")
        for chunk in chunks:
            self.lines.append(line)
            line += chunk.count("\n")


class _Template:
    """What decoding a function on one machine shape leaves for every
    interpreter of an equal shape: a ``_Stretch`` per stretch, the frame
    size, the globals no machine owns (callees, switch tables, codecs)
    and the ``edition`` of the function it was decoded from.  It holds no
    source text and nothing of a machine."""

    __slots__ = ("stretches", "frame_size", "globals", "edition")

    def __init__(self, stretches: List[_Stretch], frame_size: int,
                 globals_: dict, edition: tuple):
        self.stretches = stretches
        self.frame_size = frame_size
        self.globals = globals_
        self.edition = edition


class _Block:
    """What the run loop runs at a time: one basic block, or — a call
    ends a stretch — the part of one up to and including a call, or from
    behind one on; and, where that ends in a ``br`` to a block the
    observer does not watch, that block's first such part, and so on
    (``_Decoder.chain``).  ``run(interp, frame)`` executes its ``count``
    instructions and returns the index of the stretch to run next — what
    the function returns, when ``returns``.  ``ir`` is the basic block a
    stretch begins if the interpreter's observer watches it, else None.
    ``stretch`` is what the block shares with every interpreter of its
    machine shape and watched set, ``namespace`` the globals its function
    runs with.  The source is ``header`` plus one chunk of whole lines
    per instruction (and a raising one if the stretch falls through); a
    block built from a template has none until its interpreter needs
    it."""

    __slots__ = ("run", "count", "ir", "returns", "stretch", "namespace",
                 "header", "chunks")

    def __init__(self, run, stretch: _Stretch, namespace: dict,
                 header: Optional[str] = None,
                 chunks: Optional[List[str]] = None):
        self.run = run
        self.count = stretch.count
        self.ir = stretch.ir
        self.returns = stretch.returns
        self.stretch = stretch
        self.namespace = namespace
        self.header = header
        self.chunks = chunks

    def started(self, traceback) -> int:
        """How many instructions had started when the block raised, read
        off the line its frame stopped on.  The frames of nested guest
        calls are further down the chain, so the nearest generated frame
        is this block's."""
        traceback = traceback.tb_next  # from _run's own entry
        while (traceback is not None and
               traceback.tb_frame.f_code.co_filename != _GUEST_FILE):
            traceback = traceback.tb_next
        if traceback is None:
            return 0
        return min(bisect_right(self.stretch.lines, traceback.tb_lineno),
                   self.count)


class _Templates(dict):
    """A module's decoded functions: (machine shape, watched set) ->
    {Function: _Template}.  It hangs off ``Module.templates``, so it
    lives as long as the program and every interpreter that runs the
    program reads it.
    A pickled or deep-copied store is rebuilt empty: ``Module.clone`` is
    how a pass gets a module to transform, so a clone inherits no
    template (and code objects cannot be pickled)."""

    def __reduce__(self) -> tuple:
        return _Templates, ()


def _shape(machine: Machine) -> tuple:
    """Everything ``_Decoder`` reads of a machine: the arch's cycle
    table, pointer width, byte order and field alignment; the layout's
    pointer width, byte order and struct layouts; the global and
    function addresses; the stack top, the page size and the sub-page
    block shift.  Machines of an equal shape are written the same source
    for every function."""
    arch, layout, memory = machine.arch, machine.layout, machine.memory
    return (tuple(arch.cycles.items()), arch.pointer_bytes, arch.endianness,
            arch.max_field_align, layout.pointer_bytes, layout.byte_order,
            tuple(layout.struct_overrides.items()),
            tuple(machine.global_addresses.items()),
            tuple(machine.function_addresses.items()),
            machine.stack_top, memory.page_size, memory.block_shift)


def _watched(observer: Optional[Observer]) -> Optional[Collection]:
    """The blocks whose entry ``observer`` is told of: none without one,
    every block (None) while its ``watched`` is None."""
    return frozenset() if observer is None else observer.watched


def _templates_of(interp: Interpreter) -> dict:
    """The templates ``interp``'s module keeps for machines of its shape
    observed as ``interp``'s observer watches: no observer and one that
    watches nothing share.  Two threads that find no store may each make
    one; the one whose store is lost only shares nothing."""
    module = interp.machine.module
    if module is None:
        return {}
    if module.templates is None:
        module.templates = _Templates()
    watched = _watched(interp.observer)
    key = (_shape(interp.machine),
           None if watched is None else frozenset(watched))
    return module.templates.setdefault(key, {})


def _machine_globals(machine: Machine) -> dict:
    """The globals of generated code that are one machine's: what a
    template leaves out and each interpreter binds for itself."""
    memory = machine.memory
    return {"machine": machine, "page_at": memory.pages.get,
            "loadable": memory.loadable, "storable": memory.storable,
            "read": memory.read, "write": memory.write,
            "map_range": machine.map_range,
            "function_at": machine.function_at}


def _edition(fn: Function) -> tuple:
    """Everything of ``fn`` a decode reads that can change in place: its
    blocks, their instructions, each instruction's attributes, and the
    contents of the lists among them (operands, a switch's cases).  A
    template holds it, so no object in it is freed and its identity
    reused while the template lives."""
    edition: list = []
    for block in fn.blocks:
        edition.append(block)
        for instruction in block.instructions:
            edition.append(instruction)
            for value in vars(instruction).values():
                edition.append(value)
                if type(value) is list:
                    edition += value
    return tuple(edition)


def _decode(interp: Interpreter, fn: Function) -> tuple:
    """(blocks, frame size) of ``fn`` for ``interp``: built from the
    template a decode on a machine of an equal shape, observed alike,
    left, else decoded — which leaves one.  The run loop and
    ``tools/show_blocks.py`` get blocks here and nowhere else.

    A template is valid while ``fn`` is what it was decoded from.  Passes
    transform a ``Module.clone()`` before anything runs it, and a clone
    starts with no templates; a function edited in place after a decode
    has another edition, so it is decoded again and its template
    replaced."""
    templates = interp._templates
    if templates is None:
        templates = interp._templates = _templates_of(interp)
    template, texts = templates.get(fn), None
    if template is None or template.edition != _edition(fn):
        template, texts = _Decoder(interp, fn).decode()
        templates[fn] = template
    namespace = {**template.globals, **_machine_globals(interp.machine)}
    blocks = [_Block(functools.partial(_first_run, fn, index), stretch,
                     namespace, *(texts[index] if texts else ()))
              for index, stretch in enumerate(template.stretches)]
    watched = _watched(interp.observer)
    if watched is not None:
        for block in blocks:
            if block.ir not in watched:
                block.ir = None  # the run loop calls no hook for it
    return blocks, template.frame_size


def _with_text(interp: Interpreter, fn: Function, index: int) -> _Block:
    """Block ``index`` of ``fn`` as ``interp`` decoded it, with its
    source.  A block built from a template has none until it is wanted —
    to compile a stretch that no interpreter of the shape has compiled,
    or the variant truncated at the instruction limit — and then that
    one stretch is written again."""
    block = interp._decoded[fn][0][index]
    if block.chunks is None:
        texts = _Decoder(interp, fn, block.namespace).write(index)
        block.header, block.chunks = texts[index]
    return block


def _function(interp: Interpreter, fn: Function, index: int,
              allowed: Optional[int] = None) -> FunctionType:
    """Block ``index`` of ``fn`` as a function over ``interp``'s machine;
    given ``allowed``, the variant that runs that many instructions and
    then exceeds the limit.  Its code is the template's once some
    interpreter of the shape has compiled the stretch."""
    block = interp._decoded[fn][0][index]
    stretch = block.stretch
    code = stretch.code if allowed is None else None
    if code is None:
        _with_text(interp, fn, index)
        chunks = (block.chunks if allowed is None
                  else block.chunks[:allowed] + [_LIMIT_EXCEEDED])
        code = _block_code(block.header + "".join(chunks))
        if allowed is None:
            stretch.code = code
    return FunctionType(code, block.namespace)


def _first_run(fn: Function, index: int, interp: Interpreter, frame: list):
    """What a block's ``run`` is until it has run once: make its
    function, then run it.  Finds the block through the interpreter — a
    reference to it here would be a cycle through ``run``."""
    block = interp._decoded[fn][0][index]
    block.run = run = _function(interp, fn, index)
    return run(interp, frame)


class _Unrunnable(Exception):
    """An instruction no code can be written for.  Malformed IR is reported
    if and when it is reached: the decoder writes a ``raise`` in its
    place."""


class _Decoder:
    """Turns one function into Python source for one machine shape.

    One generated function runs a *stretch*: a part of a basic block —
    blocks are cut behind every call that has instructions after it —
    and, while a part ends in a ``br`` to a block the observer does not
    watch and the stretch has not entered, the target's first part
    (``chain``).  An instruction becomes a
    few straight-line statements: masks, sizes, scales, costs and addresses
    are literals; the page table, the memory, codecs, callees and switch
    tables are globals of the generated function — the machine's objects
    bound by each interpreter, the rest kept in the template.  A value
    that is only read later in its own stretch is a Python local
    (``v<n>``) and never touches the frame; every argument and every
    value anything else reads
    has a frame slot, written where it is defined and made a local by the
    first read in a stretch.  ``cycles`` is accumulated in the local ``c``
    — one add per charge, in order — and written to the interpreter before
    anything that can observe it or raise, then reloaded after anything
    that can charge; it stays in ``c`` across a ``br`` that runs on, and
    so does every value the stretch holds as a local.  A terminator that
    ends a stretch returns the index of the stretch that starts the next
    block, or what the function returns; a call that ends a stretch, the
    index of the one behind it.  Nothing generated
    references the interpreter: it owns the decoded program, so a
    reference back is a cycle that keeps every dropped interpreter's
    program alive until a generation-2 collection.
    """

    def __init__(self, interp: Interpreter, fn: Function,
                 bound: Optional[dict] = None):
        self.fn = fn
        machine = self.machine = interp.machine
        memory = self.memory = machine.memory
        self.layout = machine.layout
        # Pointer arithmetic wraps at the layout's width, as it compares.
        self.pointer_mask = (1 << self.layout.pointer_bytes * 8) - 1
        self.costs = interp._cycle_table
        self.page_shift = memory.page_size.bit_length() - 1
        self.offset_mask = memory.page_size - 1
        # Whether the layout's scalars read as the page's typed views
        # index them: a layout in the host's byte order.
        self.views = self.layout.byte_order == sys.byteorder
        # The blocks a ``br`` does not run on into (``chain``): those the
        # observer is told of; every block while ``watched`` is None.
        self.watched = _watched(interp.observer)
        # The generated code's globals and what ``bind`` adds; given those
        # of an earlier decode, every name binds as it did there.
        self.globals = dict(_GLOBALS if bound is None else bound)
        # What one generated function runs is a stretch of a block.  A call
        # ends a stretch: its callee's instructions are then counted
        # before the rest of the block is, so the rest meets the
        # instruction limit where a per-instruction check would, and no
        # count needs correcting while a callee runs.
        self.stretches: List[tuple] = []  # (block, first position, its part)
        self.block_index: Dict[BasicBlock, int] = {}
        for block in fn.blocks:
            # the instructions that can run: up to the first terminator
            instructions = block.instructions
            count = next((i + 1 for i, instruction in enumerate(instructions)
                          if instruction.is_terminator), len(instructions))
            live = instructions[:count]
            self.block_index[block] = len(self.stretches)
            cuts = [position + 1 for position, instruction
                    in enumerate(live[:-1]) if instruction.opcode == "call"]
            for start, stop in zip([0, *cuts], [*cuts, len(live)]):
                self.stretches.append((block, start, live[start:stop]))
        self.names = {value: f"v{n}" for n, value in enumerate(
            (*fn.args, *fn.instructions()))}
        # A value needs a frame slot if anything reads it other than a
        # later instruction of its own stretch.
        self.used: set = set()
        crossing: set = set()
        for _, _, instructions in self.stretches:
            earlier: set = set()
            for instruction in instructions:
                for operand in instruction.operands:
                    if isinstance(operand, inst.Instruction):
                        self.used.add(operand)
                        if operand not in earlier:
                            crossing.add(operand)
                earlier.add(instruction)
        self.slots = {value: slot for slot, value in enumerate(
            (*fn.args, *(instruction for instruction in fn.instructions()
                         if instruction in crossing)))}
        # per stretch:
        self.local: set = set()    # values that are Python locals by now
        self.defined: set = set()  # values a frame read need not check
        self.flushed = True        # ``interp.cycles`` is ``c``
        # the stretch that follows the call this part ends with, else None
        self.continues: Optional[int] = None
        # whether the ``br`` that ends this part runs on into the next
        self.runs_on = False
        self.chunk: List[str] = []
        self.ranges: Dict[Value, bool] = {}  # ``in_range``, memoised

    def decode(self) -> tuple:
        """(the template, each stretch's (header, chunks))."""
        texts = self.write()
        stretches = []
        for index, (header, chunks) in enumerate(texts):
            parts = [self.stretches[part] for part in self.chain(index)]
            ir_block, start, _ = parts[0]
            last = parts[-1][2]
            stretches.append(_Stretch(
                header, chunks, sum(len(part[2]) for part in parts),
                bool(last) and last[-1].opcode == "ret",
                None if start else ir_block))
        return (_Template(stretches, len(self.slots), self.globals,
                          _edition(self.fn)), texts)

    def chain(self, index: int) -> List[int]:
        """The parts stretch ``index`` runs, in order: its own, then —
        while the last ends in a ``br`` to a block the observer does not
        watch and the stretch has not entered — the target's first."""
        chain, entered = [index], {self.stretches[index][0]}
        while self.watched is not None:
            instructions = self.stretches[chain[-1]][2]
            if not instructions or instructions[-1].opcode != "br":
                break
            target = instructions[-1].target
            if target in entered or target in self.watched:
                break
            chain.append(self.block_index[target])
            entered.add(target)
        return chain

    def write(self, wanted: Optional[int] = None) -> list:
        """Each stretch's source as (header, chunks); given ``wanted``,
        only that stretch's, and None for the others."""
        fn = self.fn
        # The entry block has run to its terminator before any other block
        # starts, and a block's earlier instructions before its later ones.
        entry_defined = {instruction
                         for ir_block, _, instructions in self.stretches
                         if ir_block is fn.entry
                         for instruction in instructions}

        def entered(ir_block: BasicBlock) -> set:
            return set() if ir_block is fn.entry else set(entry_defined)

        texts: list = []
        for index, (ir_block, start, instructions) in enumerate(
                self.stretches):
            if not start:
                self.defined = entered(ir_block)
            if wanted is not None and index != wanted:
                self.defined.update(instructions)
                texts.append(None)
                continue
            self.local = set()
            self.flushed = True
            chunks: List[str] = []
            chain = self.chain(index)
            for position, part in enumerate(chain):
                ir_part, _, instructions = self.stretches[part]
                if position:
                    # A stretch runs on from its block's last part, so
                    # the next one listed starts a block and sets
                    # ``defined`` afresh.
                    self.defined = entered(ir_part)
                self.continues = (
                    part + 1 if part + 1 < len(self.stretches)
                    and self.stretches[part + 1][0] is ir_part else None)
                self.runs_on = position + 1 < len(chain)
                chunks += [self.decode_instruction(instruction)
                           for instruction in instructions]
            if self.continues is None and not (
                    instructions and instructions[-1].is_terminator):
                self.fail("InterpreterError",
                          f"block {ir_part.name} in {fn.name} fell through")
                chunks.append(self.take_chunk())
            name = re.sub(r"\W", "_", f"{fn.name}__{ir_block.name}"
                                      + (f"__{start}" if start else ""))
            texts.append((f"def {name}(interp, frame):\n"
                          " c = interp.cycles\n", chunks))
        return texts

    def decode_instruction(self, instruction: inst.Instruction) -> str:
        emit = getattr(self, "emit_" + instruction.opcode, None)
        try:
            if emit is None:
                raise _Unrunnable(f"unknown opcode {instruction.opcode}")
            emit(instruction)
        except _Unrunnable as error:
            self.fail("InterpreterError", str(error))
        if instruction in self.used and instruction not in self.local:
            self.define(instruction, "None")  # a void result that is read
        self.defined.add(instruction)
        return self.take_chunk()

    # -- writing lines -----------------------------------------------------
    def emit(self, line: str, depth: int = 1) -> None:
        self.chunk.append(" " * depth + line + "\n")

    def take_chunk(self) -> str:
        chunk, self.chunk = "".join(self.chunk), []
        return chunk

    def charge(self, cost: float) -> None:
        self.emit(f"c += {cost!r}")
        self.flushed = False

    def flush(self) -> None:
        """Make ``interp.cycles`` current on the straight-line path (a
        branch that leaves it writes its own)."""
        if not self.flushed:
            self.emit("interp.cycles = c")
            self.flushed = True

    def reload(self) -> None:
        self.emit("c = interp.cycles")
        self.flushed = True

    def fail(self, error: str, message: str, depth: int = 1) -> None:
        self.emit("interp.cycles = c", depth)
        self.emit(f"raise {error}({message!r})", depth)

    def bind(self, hint: str, value: object) -> str:
        """A global of the generated code holding ``value``; the machine's
        own objects are not bound here, a template holds what is."""
        name, n = hint, 0
        while self.globals.setdefault(name, value) != value:
            n += 1
            name = f"{hint}_{n}"
        return name

    def define(self, instruction: inst.Instruction, expression: str,
               depth: int = 1) -> None:
        self.emit(f"{self.target(instruction)} = {expression}", depth)

    def target(self, instruction: inst.Instruction) -> str:
        """What an assignment that defines ``instruction`` assigns to."""
        name = self.names[instruction]
        slot = self.slots.get(instruction)
        self.local.add(instruction)
        return name if slot is None else f"frame[{slot}] = {name}"

    def read(self, value: Value, depth: int = 1) -> str:
        """An expression for ``value``; the first read of a frame value in
        a block is written as a load into its local."""
        if isinstance(value, (inst.Instruction, Argument)):
            name = self.names[value]
            if value not in self.local:
                self.emit(f"{name} = frame[{self.slots[value]}]", depth)
                # The verifier does not check dominance, so a use the
                # block structure does not prove defined is checked when
                # it is read (and every argument: the caller may pass too
                # few).
                if value not in self.defined:
                    self.emit(f"if {name} is _U:", depth)
                    self.fail("InterpreterError",
                              f"use of undefined value {value.short()}",
                              depth + 1)
                self.local.add(value)
            return name
        immediate = self.immediate(value)
        if isinstance(immediate, float) and not math.isfinite(immediate):
            return ("nan" if immediate != immediate
                    else "inf" if immediate > 0 else "(-inf)")
        return _literal(immediate)

    def immediate(self, value: Value):
        """What ``value``, which is no instruction or argument, reads as:
        known when the function is decoded."""
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, GlobalVariable):
            return self.machine.global_addresses[value.name]
        if isinstance(value, Function):
            return self.machine.function_addresses[value.name]
        if isinstance(value, UndefValue):
            return 0
        raise _Unrunnable(f"cannot evaluate {value!r}")

    # -- value ranges --------------------------------------------------------
    def width(self, type_) -> Optional[int]:
        """The bits of an integer or (at the layout's width) a pointer
        ``type_``; None for any other type."""
        if isinstance(type_, IntType):
            return type_.bits
        if isinstance(type_, PointerType):
            return self.layout.pointer_bytes * 8
        return None

    def in_range(self, value: Value) -> bool:
        """Whether the code written for ``value`` leaves it in
        ``[0, 2**bits)`` of its type, whatever it is given
        (docs/architecture.md, "Value ranges").  An argument or a call
        result is whatever a caller or a builtin passes."""
        known = self.ranges.get(value)
        if known is None:
            # A value among its own operands (the verifier does not check
            # dominance) is not.
            self.ranges[value] = False
            known = self.ranges[value] = self._in_range(value)
        return known

    def _in_range(self, value: Value) -> bool:
        bits = self.width(value.type)
        if bits is None or isinstance(value, Argument):
            return False
        if not isinstance(value, inst.Instruction):
            immediate = self.immediate(value)
            return (isinstance(immediate, int)
                    and 0 <= immediate < 1 << bits)
        opcode, operands = value.opcode, value.operands
        if opcode == "load":  # a slot of the type's width, if whole bytes
            return bits % 8 == 0
        if opcode in ("gep", "cmp"):
            return True
        if opcode == "alloca":
            return self.machine.stack_top <= 1 << bits
        if opcode == "select":
            return all(map(self.in_range, operands[1:]))
        op = value.op if opcode in ("binop", "cast") else None
        if op in _MASKING_OPS:
            return True
        if op == "and":
            return any(map(self.in_range, operands))
        if op in ("or", "xor"):
            return all(map(self.in_range, operands))
        if op in ("lshr", "bitcast"):  # a bitcast of one width
            return (self.width(operands[0].type) == bits
                    and self.in_range(operands[0]))
        return False

    def bounded(self, value: Value, bits: int) -> bool:
        """Whether ``value`` is in range and its type no wider than
        ``bits``, so in ``[0, 2**bits)``."""
        width = self.width(value.type)
        return width is not None and width <= bits and self.in_range(value)

    def signed(self, value: Value, bits: int,
               into: Optional[int] = None) -> str:
        """An expression for ``value`` read as a signed ``bits``-bit
        number — or, given ``into``, that number as an unsigned ``into``
        bits (``sext``).  A constant is folded; a value in range needs
        no mask."""
        mask, sign = (1 << bits) - 1, 1 << (bits - 1)
        if not isinstance(value, (inst.Instruction, Argument)):
            immediate = self.immediate(value)
            if isinstance(immediate, int):
                number = to_signed(immediate, bits)
                return _literal(number if into is None
                                else number & (1 << into) - 1)
        x = self.read(value)
        if self.bounded(value, bits):
            low = (f"{x} - {1 << bits}" if into is None
                   else f"{x} + {(1 << into) - (1 << bits)}")
            return f"({x} if {x} < {sign} else {low})"
        signed = f"((({x} & {mask}) ^ {sign}) - {sign})"
        return signed if into is None else f"({signed} & {(1 << into) - 1})"

    def flipped(self, value: Value, bits: int) -> str:
        """``value``'s low ``bits`` bits with the sign bit flipped: signed
        order as unsigned order.  A constant is folded; a value in range
        needs no mask."""
        mask, sign = (1 << bits) - 1, 1 << (bits - 1)
        if not isinstance(value, (inst.Instruction, Argument)):
            immediate = self.immediate(value)
            if isinstance(immediate, int):
                return _literal((immediate & mask) ^ sign)
        x = self.read(value)
        if self.bounded(value, bits):
            return f"({x} ^ {sign})"
        return f"(({x} & {mask}) ^ {sign})"

    # -- one method per opcode: the leading charge, then the statements ----
    def emit_binop(self, instruction: inst.BinOp) -> None:
        name = instruction.op
        self.charge(self.costs["div" if name in _DIV_OPS
                               else "fpu" if name.startswith("f") else "alu"])
        lhs = self.read(instruction.lhs)
        rhs = self.read(instruction.rhs)
        if isinstance(instruction.type, FloatType):
            if name not in _FLOAT_BINOPS:
                raise _Unrunnable(f"unknown float binop {name}")
            self.define(instruction,
                        _FLOAT_BINOPS[name].format(lhs=lhs, rhs=rhs))
            return
        if name not in _INT_BINOPS:
            raise _Unrunnable(f"unknown int binop {name}")
        bits = instruction.type.bits
        mask = (1 << bits) - 1
        if name in _DIV_OPS:
            self.emit(f"if not {rhs}:" if self.bounded(instruction.rhs, bits)
                      else f"if {rhs} & {mask} == 0:")
            what = "division" if name.endswith("div") else "remainder"
            self.fail("InterpreterError", f"integer {what} by zero", 2)
            if name.startswith("s"):
                self.emit(f"a = {self.signed(instruction.lhs, bits)}")
                self.emit(f"b = {self.signed(instruction.rhs, bits)}")
        elif name == "ashr":
            lhs = self.signed(instruction.lhs, bits)
        self.define(instruction, _INT_BINOPS[name].format(
            lhs=lhs, rhs=rhs, mask=mask, bits=bits))

    def emit_cmp(self, instruction: inst.Cmp) -> None:
        pred = instruction.pred
        kind = "float" if pred.startswith("f") else "int"
        self.charge(self.costs["fpu" if kind == "float" else "alu"])
        if pred in _SIGNED_PREDS:
            type_ = instruction.lhs.type  # pointers compare at their width
            bits = (type_.bits if isinstance(type_, IntType)
                    else self.layout.pointer_bytes * 8)
            # Flipping the sign bit maps signed order onto unsigned order.
            lhs = self.flipped(instruction.lhs, bits)
            rhs = self.flipped(instruction.rhs, bits)
        else:
            lhs = self.read(instruction.lhs)
            rhs = self.read(instruction.rhs)
            if pred not in _COMPARISONS:
                raise _Unrunnable(f"unknown {kind} predicate {pred}")
        self.define(instruction,
                    f"1 if {lhs} {_COMPARISONS[pred]} {rhs} else 0")

    def _access(self, type_) -> tuple:
        """How this machine loads or stores a ``type_``: (size, cost of the
        address-size conversion or None, cost of the byte swap or None)."""
        machine, layout = self.machine, self.layout
        if not type_.is_scalar:
            raise _Unrunnable(
                f"aggregate access of {type_}; the frontend must lower "
                "struct copies to memcpy")
        size = scalar_size(type_, layout)
        # Address-size conversion (Section 3.2): zero/trunc-extend on every
        # pointer-sized memory access.  Negligible cost, counted.
        converts = (isinstance(type_, PointerType)
                    and layout.pointer_bytes != machine.arch.pointer_bytes)
        # Endianness translation (Section 3.2): byte swap per access.
        swaps = size > 1 and layout.byte_order != machine.arch.endianness
        return (size, self.costs["alu"] * 0.5 if converts else None,
                self.costs["alu"] * 1.0 if swaps else None)

    def accessor(self, type_, method: str) -> str:
        """The global that is ``method`` of the ``values.SCALARS`` struct
        this machine stores a ``type_`` with: ``unpack_from_u32le``,
        ``pack_into_f64be``, ..."""
        codec = scalar_struct(type_, self.layout)
        name = (f"{method}_{'f' if type_.is_float else 'u'}{codec.size * 8}"
                f"{'le' if self.layout.byte_order == 'little' else 'be'}")
        return self.bind(name, getattr(codec, method))

    def translate(self, convert_cost, swap_cost) -> None:
        if convert_cost is not None:
            self.emit("machine.pointer_conversions += 1")
            self.charge(convert_cost)
        if swap_cost is not None:
            self.emit("machine.endian_swaps += 1")
            self.charge(swap_cost)

    def locate(self, lookup: str, address: str, shift: int, size: int,
               cold: str, hot: List[str]) -> None:
        """The two arms of a load or store.  ``p`` is the ``PageViews``
        ``lookup`` — ``loadable``, keyed by page, or ``storable``, keyed
        by dirty block — holds for an access whose bookkeeping is already
        done; ``hot`` makes the access on it.  ``cold`` runs with the
        cycles flushed when there is no entry (a fault, or a first access
        since the space last forgot one) or the scalar is not aligned: an
        aligned scalar crosses neither the entry's page nor its block."""
        self.emit(f"p = {lookup}({address} >> {shift})")
        if size == 1:
            self.emit("if p is None:")
        else:
            self.emit(f"if p is None or {address} & {size - 1}:")
        for line in ("interp.cycles = c", cold, "c = interp.cycles"):
            self.emit(line, 2)
        self.emit("else:")
        for line in hot:
            self.emit(line, 2)
        self.flushed = False  # on the other arm

    def viewed(self, type_, address: str, size: int) -> str:
        """The item of ``PageViews`` ``p`` that is the aligned ``type_``
        at ``address``: ``p.u32[(a & 4095) >> 2]``; a byte indexes the
        page."""
        offset = f"{address} & {self.offset_mask}"
        if size > 1:
            offset = f"({offset}) >> {size.bit_length() - 1}"
        return f"p.{'f' if type_.is_float else 'u'}{size * 8}[{offset}]"

    def cold(self, type_, direction: str) -> str:
        """The global that is ``_cold_access``'s ``load`` or ``store``
        (``direction``) for a ``type_`` on this machine: ``load_u32le``,
        ``store_f64le``, ..."""
        codec = scalar_struct(type_, self.layout)
        load, store = _cold_access(codec, self.memory.page_size,
                                   self.memory.block_size)
        name = (f"{direction}_{'f' if type_.is_float else 'u'}"
                f"{codec.size * 8}"
                f"{'le' if self.layout.byte_order == 'little' else 'be'}")
        return self.bind(name, load if direction == "load" else store)

    def emit_load(self, instruction: inst.Load) -> None:
        self.charge(self.costs["mem"])
        type_ = instruction.type
        size, convert_cost, swap_cost = self._access(type_)
        address = self.read(instruction.pointer)
        target = self.target(instruction)
        cold = f"{self.cold(type_, 'load')}(p, {address}, read)"
        if self.views:
            hot = self.viewed(type_, address, size)
        else:
            hot = (f"{self.accessor(type_, 'unpack_from')}"
                   f"(p.u8, {address} & {self.offset_mask})[0]")
        self.locate("loadable", address, self.page_shift, size,
                    f"{target} = {cold}", [f"{target} = {hot}"])
        self.translate(convert_cost, swap_cost)

    def emit_store(self, instruction: inst.Store) -> None:
        self.charge(self.costs["mem"])
        stored, type_ = instruction.value, instruction.value.type
        size, convert_cost, swap_cost = self._access(type_)
        address = self.read(instruction.pointer)
        value = self.read(stored)
        self.translate(convert_cost, swap_cost)
        # A value every codec takes: a float constant, a rounded single,
        # an integer or pointer in range (of no more than ``size`` bytes).
        if type_.is_float:
            taken = isinstance(stored, Constant)
            if size == 4:  # ``struct`` raises where IEEE 754 rounds
                value, taken = f"round_to_single({value})", True
        elif not (taken := self.in_range(stored)):
            self.emit(f"if {value} >= {1 << (size * 8)}:")
            self.emit("interp.cycles = c", 2)
            self.emit(f"raise too_wide({value}, {size})", 2)
        cold = f"{self.cold(type_, 'store')}(p, {address}, {value}, write)"
        if self.views:
            hot = [f"{self.viewed(type_, address, size)} = {value}"]
            if not taken:
                # What a view refuses (a negative, a float where an
                # integer goes), the codec refuses with its own error.
                hot = ["try:", f" {hot[0]}",
                       "except (TypeError, ValueError):", f" {cold}"]
        else:
            hot = [f"{self.accessor(type_, 'pack_into')}"
                   f"(p.u8, {address} & {self.offset_mask}, {value})"]
        self.locate("storable", address, self.memory.block_shift, size,
                    cold, hot)

    def emit_gep(self, instruction: inst.Gep) -> None:
        self.charge(self.costs["alu"])
        layout = self.layout
        current = instruction.base.type.pointee
        constant = 0  # struct field offsets and constant indices, folded
        scaled = []   # (index, its bits, scale)
        for position, index in enumerate(instruction.indices):
            if position and isinstance(current, StructType):
                field = int(index.value)  # verified constant
                constant += layout.struct_layout(current).offset_of(field)
                current = current.field_types[field]
                continue
            if position:  # the first index scales by whole pointees
                if not isinstance(current, ArrayType):
                    raise _Unrunnable(f"gep into non-aggregate {current}")
                current = current.element
            scale = layout.size_of(current)
            bits = index.type.bits if isinstance(index.type, IntType) else 64
            if isinstance(index, Constant):
                constant += to_signed(index.value, bits) * scale
            else:
                scaled.append((index, bits, scale))
        address = self.read(instruction.base)
        if constant:
            address += f" + {constant}"
        for index, bits, scale in scaled:
            # An index at least as wide as a pointer and in range needs no
            # sign: it would subtract a multiple of 2**bits, which the
            # pointer's mask drops.
            term = (self.read(index) if bits >= self.layout.pointer_bytes * 8
                    and self.bounded(index, bits)
                    else self.signed(index, bits))
            address += f" + {term} * {scale}"
        self.define(instruction, f"({address}) & {self.pointer_mask}")

    def emit_cast(self, instruction: inst.Cast) -> None:
        self.charge(self.costs["alu"])
        name, src, dst = (instruction.op, instruction.value.type,
                          instruction.type)
        value = self.read(instruction.value)
        if name in ("fptosi", "fptoui"):
            # Of an infinity or a NaN: undefined in C, and machine
            # specific where it is not (ARM saturates, x86 gives INT_MIN),
            # which unification cannot paper over.
            number = value if name == "fptosi" else f"abs({value})"
            message = f"{name} of %r to {dst} is undefined"
            self.emit("try:")
            self.define(instruction,
                        f"int({number}) & {(1 << dst.bits) - 1}", 2)
            self.emit("except (OverflowError, ValueError):")
            self.emit("interp.cycles = c", 2)
            self.emit(f"raise InterpreterError({message!r} % {value}) "
                      "from None", 2)
        elif name in ("trunc", "zext", "ptrtoint", "inttoptr"):
            mask = (self.pointer_mask if name == "inttoptr"
                    else (1 << dst.bits) - 1)
            self.define(instruction, value if self.bounded(
                instruction.value, mask.bit_length()) else f"{value} & {mask}")
        elif name == "sext":
            self.define(instruction,
                        self.signed(instruction.value, src.bits, dst.bits))
        elif name == "fptrunc" and dst.bits == 32:
            self.define(instruction, f"round_to_single({value})")
        elif name in ("fptrunc", "fpext", "uitofp"):
            self.define(instruction, f"float({value})")
        elif name == "sitofp":
            self.define(instruction,
                        f"float({self.signed(instruction.value, src.bits)})")
        elif name == "bitcast":
            self.define(instruction, value)
        else:
            raise _Unrunnable(f"unknown cast {name}")

    def emit_alloca(self, instruction: inst.Alloca) -> None:
        self.charge(self.costs["alu"])
        size = max(1, self.layout.size_of(instruction.allocated_type))
        size = (size + 15) // 16 * 16
        self.emit(f"interp.sp = s = interp.sp - {size}")
        self.emit(f"if s < {self.machine.stack_top - STACK_SIZE}:")
        self.fail("StackOverflow", "simulated stack exhausted", 2)
        # ``map_range`` is the one place a missing stack page is offered to
        # the fault handler.  A slot no larger than a page spans at most
        # its first and last page; a larger one may hide a missing page
        # between them, so it always goes there.
        depth = 1
        if size <= self.memory.page_size:
            shift = self.page_shift
            self.emit(f"if page_at(s >> {shift}) is None or "
                      f"page_at((s + {size - 1}) >> {shift}) is None:")
            depth = 2
        self.emit("interp.cycles = c", depth)
        self.emit(f"map_range(s, {size})", depth)
        self.emit("c = interp.cycles", depth)
        self.flushed = depth == 1
        self.define(instruction, "s")

    def emit_call(self, instruction: inst.Call) -> None:
        # no leading charge: call_function charges
        args = ", ".join([self.read(arg) for arg in instruction.args])
        callee = instruction.callee
        address = (None if isinstance(callee, Function)
                   else self.read(callee))
        self.flush()
        if address is None:
            target = self.bind("fn_" + re.sub(r"\W", "_", callee.name),
                               callee)
        else:
            # Indirect call: resolve the runtime address to a function on
            # *this* machine.  Untranslated foreign addresses fault here.
            self.emit(f"fn = function_at({address})")
            self.emit("if fn is None:")
            self.emit(f"raise BadFunctionPointer({address})", 2)
            target = "fn"
        call = f"interp.call_function({target}, [{args}])"
        if instruction in self.used:
            self.define(instruction, call)
        else:
            self.emit(call)
        if self.continues is None:
            self.reload()
        else:
            self.emit(f"return {self.continues}")

    def emit_select(self, instruction: inst.Select) -> None:
        self.charge(self.costs["alu"])
        cond, *arms = instruction.operands
        name = self.names[instruction]
        # Only the arm taken is read (and checked), so a frame value read
        # there is no local of the rest of the block.
        for opening, arm in zip((f"if {self.read(cond)}:", "else:"), arms):
            self.emit(opening)
            local = set(self.local)
            self.emit(f"{name} = {self.read(arm, 2)}", 2)
            self.local = local
        self.local.add(instruction)
        if instruction in self.slots:
            self.emit(f"frame[{self.slots[instruction]}] = {name}")

    def emit_asm(self, instruction: inst.InlineAsm) -> None:
        # Inline assembly executes natively on its home machine; charge a
        # token cost.
        self.charge(self.costs["alu"])

    def emit_syscall(self, instruction: inst.Syscall) -> None:
        self.charge(self.costs["call"])
        self.define(instruction, "0")

    def leave(self, result: str) -> None:
        self.flush()
        self.emit(f"return {result}")

    def emit_br(self, instruction: inst.Br) -> None:
        self.charge(self.costs["branch"])
        if not self.runs_on:
            self.leave(str(self.block_index[instruction.target]))

    def emit_condbr(self, instruction: inst.CondBr) -> None:
        self.charge(self.costs["branch"])
        cond = self.read(instruction.cond)
        self.leave(f"{self.block_index[instruction.if_true]} if {cond} "
                   f"else {self.block_index[instruction.if_false]}")

    def emit_switch(self, instruction: inst.Switch) -> None:
        self.charge(self.costs["branch"])
        value = self.read(instruction.value)
        targets: Dict[int, int] = {}
        for const, block in instruction.cases:  # the first match wins
            targets.setdefault(const & _MASK64, self.block_index[block])
        table = self.bind("switch_" + self.names[instruction], targets)
        if not self.bounded(instruction.value, 64):
            value = f"{value} & {_MASK64}"
        self.leave(f"{table}.get({value}, "
                   f"{self.block_index[instruction.default]})")

    def emit_ret(self, instruction: inst.Ret) -> None:
        self.charge(self.costs["branch"])
        self.leave("None" if instruction.value is None
                   else self.read(instruction.value))

    def emit_unreachable(self, instruction: inst.Unreachable) -> None:
        raise _Unrunnable(f"reached unreachable in {self.fn.name}")


# -- what an operation is, as the expression the decoder writes ------------
def _literal(number) -> str:
    """``number`` as an operand: a negative one in parentheses."""
    text = repr(number)
    return f"({text})" if text.startswith("-") else text


# ``a`` and ``b`` are the operands as signed numbers, and so is ``lhs`` of
# ``ashr``.  C truncates toward zero and a remainder's sign follows the
# dividend; ``int(a / b)`` goes through a float and is wrong above 2**53.
_INT_BINOPS = {
    "add": "({lhs} + {rhs}) & {mask}",
    "sub": "({lhs} - {rhs}) & {mask}",
    "mul": "({lhs} * {rhs}) & {mask}",
    "sdiv": "(-(abs(a) // abs(b)) if (a < 0) != (b < 0)"
            " else abs(a) // abs(b)) & {mask}",
    "udiv": "({lhs} // {rhs}) & {mask}",
    "srem": "(-(abs(a) % abs(b)) if a < 0 else abs(a) % abs(b)) & {mask}",
    "urem": "({lhs} % {rhs}) & {mask}",
    "and": "{lhs} & {rhs}", "or": "{lhs} | {rhs}", "xor": "{lhs} ^ {rhs}",
    "shl": "({lhs} << ({rhs} % {bits})) & {mask}",
    "lshr": "{lhs} >> ({rhs} % {bits})",
    "ashr": "({lhs} >> ({rhs} % {bits})) & {mask}",
}
#: The integer binops and casts whose generated code leaves the result in
#: range (``_Decoder.in_range``): it masks it to its type's width, or — a
#: widening cast of a value in range — has no bits to mask.
_MASKING_OPS = {"add", "sub", "mul", "sdiv", "udiv", "srem", "urem", "shl",
                "ashr", "trunc", "zext", "sext", "ptrtoint", "inttoptr",
                "fptosi", "fptoui"}
_FLOAT_BINOPS = {
    "fadd": "{lhs} + {rhs}", "fsub": "{lhs} - {rhs}", "fmul": "{lhs} * {rhs}",
    "fdiv": "{lhs} / {rhs} if {rhs} else fdiv_by_zero({lhs})",
    "frem": "frem({lhs}, {rhs})",
}
_SIGNED_PREDS = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
_COMPARISONS = {
    "eq": "==", "ne": "!=", "ult": "<", "ule": "<=", "ugt": ">", "uge": ">=",
    "feq": "==", "fne": "!=", "flt": "<", "fle": "<=", "fgt": ">",
    "fge": ">=", **_SIGNED_PREDS}


def _fdiv_by_zero(lhs: float) -> float:
    return math.inf if lhs > 0 else -math.inf if lhs < 0 else math.nan


def _frem(lhs: float, rhs: float) -> float:
    try:
        return math.fmod(lhs, rhs)
    except ValueError:  # by zero, or of an infinity: IEEE 754 says NaN
        return math.nan


@functools.lru_cache(maxsize=None)
def _cold_access(codec, page_size: int, block_size: int) -> tuple:
    """(load, store) for the accesses a hot arm leaves: with ``codec`` on
    the page of ``PageViews`` ``p`` when the scalar lies in it (a load)
    or in one dirty block (a store), else — no entry, or crossing —
    through ``read``/``write``, which record it.  One pair per codec and
    geometry, so a template binds the same functions every time it is
    written."""
    size, unpack, unpack_from = codec.size, codec.unpack, codec.unpack_from
    pack, pack_into = codec.pack, codec.pack_into
    offset, block = page_size - 1, block_size - 1

    def load(p, address, read):
        if p is None or address & offset > page_size - size:
            return unpack(read(address, size))[0]
        return unpack_from(p.u8, address & offset)[0]

    def store(p, address, value, write):
        if p is None or address & block > block_size - size:
            write(address, pack(value))
        else:
            pack_into(p.u8, address & offset, value)

    return load, store


# The globals every generated function starts from; a decode adds the
# callees, switch tables and codecs it binds, an interpreter its machine's
# objects (``_machine_globals``).
_GLOBALS = {
    "__builtins__": builtins.__dict__, "_U": _UNDEFINED,
    "InterpreterError": InterpreterError, "StackOverflow": StackOverflow,
    "BadFunctionPointer": BadFunctionPointer,
    "ExecutionLimitExceeded": ExecutionLimitExceeded,
    "frem": _frem, "fdiv_by_zero": _fdiv_by_zero,
    "round_to_single": round_to_single, "too_wide": too_wide,
    "inf": math.inf, "nan": math.nan,
}

"""Differential for the interpreter's in-page scalar memory path.

The code generated for a ``load``/``store`` does the in-page, page-mapped
case itself and leaves the rest (faults, page-straddling scalars) to
``AddressSpace.read``/``write``.  Random access sequences run through
generated code on a machine and through plain ``read``/``write`` plus the
reference codec on a twin space; everything either side can observe must
agree — with an observer attached, as the profiler runs, and without one,
as every session runs.  The code generated for an
``alloca`` maps its slot itself when its pages are there and leaves the
rest to ``Machine.map_range``; it must leave what calling ``map_range``
leaves.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import (F32, F64, Function, FunctionType, I8, I16, I32, I64,
                      IRBuilder, Module, VOID, array, ptr)
from repro.machine import (AddressSpace, Interpreter, SegmentationFault,
                           boot)
from repro.machine.interpreter import Observer
from repro.machine.values import decode_scalar, encode_scalar, scalar_size
from repro.targets import (ARM32, MIPS32BE, UNIFIED_ORDER_KEY,
                           UNIFIED_POINTER_KEY, X86_64)

PAGE = 256          # two dirty blocks a page, so stores can straddle one
KINDS = {"i8": I8, "i16": I16, "i32": I32, "i64": I64,
         "f32": F32, "f64": F64, "ptr": ptr(I8)}
# Pages 16 and 17 start mapped, 18 and 40 do not (18 follows a mapped
# page, so a straddling scalar can run off the end into it).
MAPPED, PAGES = (16, 17), (16, 17, 18, 40)
OFFSETS = (0, 1, 120, 121, 124, 125, 126, 127, 128, 200,
           248, 249, 250, 252, 253, 254, 255)


def _module():
    module = Module()
    for name, type_ in KINDS.items():
        load = Function(f"load_{name}", FunctionType(type_, [ptr(type_)]),
                        ["p"])
        module.add_function(load)
        b = IRBuilder(load.add_block("entry"))
        b.ret(b.load(load.args[0]))
        store = Function(f"store_{name}",
                         FunctionType(VOID, [ptr(type_), type_]), ["p", "v"])
        module.add_function(store)
        b = IRBuilder(store.add_block("entry"))
        b.store(store.args[1], store.args[0])
        b.ret()
    return module


# (machine architecture, pointer bytes in memory, byte order in memory)
LAYOUTS = {
    "arm32-native": (ARM32, 4, "little"),
    "x86_64-native": (X86_64, 8, "little"),
    "mips32be-native": (MIPS32BE, 4, "big"),
    # a server running the unified big-endian 32-bit layout: every pointer
    # access converts, every multi-byte access swaps
    "x86_64-as-mips32be": (X86_64, 4, "big"),
}
# Each layout run with an observer attached, as the profiler runs (under
# the layout's name), and without one, as everything else runs
# ("-unobserved").
VARIANTS = {**{name: (name, True) for name in LAYOUTS},
            **{f"{name}-unobserved": (name, False) for name in LAYOUTS}}
TOO_WIDE = ("pointer {:#x} does not fit in {} bytes; UVA addresses must "
            "stay below the unified pointer range")


def _fill(pidx):
    return bytes((pidx * 7 + i) & 0xFF for i in range(PAGE))


def _handler(space, mode):
    if mode == "none":
        return None
    if mode == "refuse":
        return lambda pidx: False

    def on_demand(pidx):
        space.map_page(pidx, _fill(pidx))
        return True
    return on_demand


def _state(space):
    return ({pidx: bytes(page) for pidx, page in space.pages.items()},
            set(space.dirty), dict(space.dirty_blocks),
            None if space.touched is None else set(space.touched),
            space.fault_count)


class _Twin:
    """The reference: what an access is, stated over the public
    ``AddressSpace`` and the ``values`` codec."""

    def __init__(self, interp):
        machine = interp.machine
        self.layout = machine.layout
        self.costs = interp._cycle_table
        self.space = AddressSpace(page_size=PAGE)
        self.space.install_pages(
            {pidx: bytes(page) for pidx, page in machine.memory.pages.items()})
        self.converts = self.layout.pointer_bytes != machine.arch.pointer_bytes
        self.swaps = self.layout.byte_order != machine.arch.endianness
        self.cycles = 0.0
        self.pointer_conversions = self.endian_swaps = 0

    def _translate(self, kind):
        if kind == "ptr" and self.converts:
            self.pointer_conversions += 1
            self.cycles += self.costs["alu"] * 0.5
        if self.swaps and scalar_size(KINDS[kind], self.layout) > 1:
            self.endian_swaps += 1
            self.cycles += self.costs["alu"] * 1.0

    def load(self, kind, address):
        self.cycles += self.costs["call"]
        self.cycles += self.costs["mem"]
        data = self.space.read(address, scalar_size(KINDS[kind], self.layout))
        self._translate(kind)
        self.cycles += self.costs["branch"]
        return decode_scalar(data, KINDS[kind], self.layout)

    def store(self, kind, address, value):
        self.cycles += self.costs["call"]
        self.cycles += self.costs["mem"]
        self._translate(kind)
        self.space.write(address, encode_scalar(value, KINDS[kind],
                                                self.layout))
        self.cycles += self.costs["branch"]


def _outcome(action):
    try:
        return ("value", repr(action()))
    except SegmentationFault as fault:
        return ("fault", fault.address, fault.size, str(fault))
    except OverflowError as error:
        return ("overflow", str(error))


# A "wide store" of an integer or pointer stores 2**(8*size); of a float,
# it is a plain store.
_access = st.tuples(
    st.sampled_from(["load", "store", "wide store"]),
    st.sampled_from(sorted(KINDS)),
    st.sampled_from(PAGES), st.sampled_from(OFFSETS),
    st.integers(0, 2**64 - 1), st.floats(width=32))
_switch = st.one_of(
    st.tuples(st.just("track_subpage"), st.booleans()),
    st.tuples(st.just("touched"), st.booleans()),
    st.tuples(st.just("handler"),
              st.sampled_from(["none", "refuse", "on_demand"])),
    st.tuples(st.just("clear_dirty")))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@given(steps=st.lists(st.one_of(_access, _access, _access, _switch),
                      min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_ops_match_plain_address_space(variant, steps):
    layout_name, observed = VARIANTS[variant]
    arch, pointer_bytes, byte_order = LAYOUTS[layout_name]
    module = _module()
    module.metadata.update({UNIFIED_POINTER_KEY: pointer_bytes,
                            UNIFIED_ORDER_KEY: byte_order})
    machine = boot(module, arch, "server", page_size=PAGE)
    memory = machine.memory
    for pidx in MAPPED:
        memory.map_page(pidx, _fill(pidx))
    seen = []

    class BeforeAccess(Observer):
        def attach(self, machine_):
            seen.append(("attach", machine_))

        def enter_function(self, fn, cycles):
            # entered before the access: the twin has not made it yet
            assert _state(memory) == _state(twin.space)
            seen.append(("enter", fn.name))

        def enter_block(self, block, cycles):
            assert _state(memory) == _state(twin.space)

        def exit_function(self, fn, cycles):
            seen.append(("exit", fn.name))

    interp = Interpreter(machine,
                         observer=BeforeAccess() if observed else None)
    if observed:
        assert seen.pop() == ("attach", machine)
    twin = _Twin(interp)
    # Decode every function first, as the UVA manager finds the server's:
    # each switch below then lands on ops that are already bound.
    for kind in KINDS:
        zero = 0.0 if kind in ("f32", "f64") else 0
        interp.call_by_name(f"store_{kind}", [MAPPED[0] * PAGE, zero])
        twin.store(kind, MAPPED[0] * PAGE, zero)
        interp.call_by_name(f"load_{kind}", [MAPPED[0] * PAGE])
        twin.load(kind, MAPPED[0] * PAGE)
    seen.clear()
    stored_blocks = {}      # page -> blocks stored to while tracking was on
    stored_pages = {MAPPED[0]}  # pages stored to since the last clear_dirty

    for step in steps:
        if step[0] == "track_subpage":
            memory.track_subpage = twin.space.track_subpage = step[1]
        elif step[0] == "touched":
            memory.touched = set() if step[1] else None
            twin.space.touched = set() if step[1] else None
        elif step[0] == "handler":
            memory.fault_handler = _handler(memory, step[1])
            twin.space.fault_handler = _handler(twin.space, step[1])
        elif step[0] == "clear_dirty":
            memory.clear_dirty()
            twin.space.clear_dirty()
            stored_blocks.clear()
            stored_pages.clear()
        else:
            what, kind, pidx, offset, integer, real = step
            address = pidx * PAGE + offset
            size = scalar_size(KINDS[kind], machine.layout)
            wide = what == "wide store" and kind not in ("f32", "f64")
            if kind in ("f32", "f64"):
                value = real
            elif wide:  # the least value that does not fit
                value = 1 << size * 8
            else:
                value = integer & ((1 << size * 8) - 1)
            if what == "load":
                ours = _outcome(lambda: interp.call_by_name(
                    f"load_{kind}", [address]))
                theirs = _outcome(lambda: twin.load(kind, address))
            else:
                ours = _outcome(lambda: interp.call_by_name(
                    f"store_{kind}", [address, value]))
                theirs = _outcome(lambda: twin.store(kind, address, value))
            assert ours == theirs
            if wide:  # raised before the access, with this message
                assert ours == ("overflow", TOO_WIDE.format(value, size))
            if observed:  # every access, faulting or not, is one call
                name = f"{'load' if what == 'load' else 'store'}_{kind}"
                assert seen == [("enter", name), ("exit", name)]
                seen.clear()
            if what != "load" and ours[0] == "value":
                for byte in range(address, address + size):
                    stored_pages.add(byte // PAGE)
                    if memory.track_subpage:
                        stored_blocks.setdefault(byte // PAGE, set()).add(
                            byte % PAGE // memory.block_size)
        assert _state(memory) == _state(twin.space)
        assert (interp.cycles.hex(), machine.pointer_conversions,
                machine.endian_swaps) == (
            twin.cycles.hex(), twin.pointer_conversions, twin.endian_swaps)
        assert not seen and interp.call_depth == 0

    # What write-back relies on: a stored-to page is dirty; a mask only
    # ever belongs to a dirty page and covers every block stored to while
    # tracking was on, so a dirty page with *no* mask means "whole page".
    assert stored_pages <= memory.dirty
    assert set(memory.dirty_blocks) <= memory.dirty
    for pidx, blocks in stored_blocks.items():
        mask = memory.dirty_blocks[pidx]
        assert all(mask >> block & 1 for block in blocks)


# slot -> (its size, its offset into the first page, which of its pages
# are mapped before it is allocated)
SLOTS = {
    "on-a-mapped-page": (16, 32, (0,)),
    "on-an-unmapped-page": (16, 32, ()),
    "straddling-into-an-unmapped-page": (32, PAGE - 16, (0,)),
    "straddling-out-of-an-unmapped-page": (32, PAGE - 16, (1,)),
    # first and last page there, the two between them not
    "over-a-page-with-a-hole": (3 * PAGE, 16, (0, 3)),
}


def _stack(size, offset, mapped, mode):
    """A server machine whose function ``slot`` allocates a ``size``-byte
    slot, calls an empty function — which sees the cycles the alloca
    charged — and returns the slot; the slot's address; and the page
    indices the fault handler has been called with."""
    module = Module()
    leaf = Function("leaf", FunctionType(VOID, []), [])
    module.add_function(leaf)
    IRBuilder(leaf.add_block("entry")).ret()
    slot = Function("slot", FunctionType(ptr(array(I8, size)), []), [])
    module.add_function(slot)
    b = IRBuilder(slot.add_block("entry"))
    allocated = b.alloca(array(I8, size))
    b.call(leaf)
    b.ret(allocated)
    machine = boot(module, X86_64, "server", page_size=PAGE)
    first = machine.stack_top // PAGE - 8
    for page in mapped:
        machine.memory.map_page(first + page, _fill(first + page))
    calls = []
    handler = _handler(machine.memory, mode)
    if handler is not None:
        def recording(pidx):
            calls.append(pidx)
            return handler(pidx)
        machine.memory.fault_handler = recording
    return machine, first * PAGE + offset, calls


@pytest.mark.parametrize("mode", ["none", "refuse", "on_demand"])
@pytest.mark.parametrize("slot", sorted(SLOTS))
def test_alloca_leaves_what_map_range_leaves(slot, mode):
    size, offset, mapped = SLOTS[slot]
    machine, address, calls = _stack(size, offset, mapped, mode)
    interp = Interpreter(machine)
    interp.sp = address + size
    assert interp.call_by_name("slot") == address

    twin, _, twin_calls = _stack(size, offset, mapped, mode)
    twin.map_range(address, size)
    costs = interp._cycle_table
    cycles = 0.0
    for cost in ("call", "alu", "call", "branch", "branch"):
        cycles += costs[cost]
    assert (_state(machine.memory), calls, interp.cycles.hex()) == (
        _state(twin.memory), twin_calls, cycles.hex())

"""Differential for the interpreter's in-page scalar memory path.

The code generated for a ``load``/``store`` does the in-page, page-mapped
case itself and leaves the rest (faults, page-straddling scalars) to
``AddressSpace.read``/``write``.  Random access sequences run through
generated code on a machine and through plain ``read``/``write`` plus the
reference codec on a twin space; everything either side can observe must
agree — with an observer attached, as the profiler runs, and without one,
as every session runs.  Between accesses come the runtime's other
changes to what a space recorded (tracking switched, ``touched``
installed, scopes opened and closed, pages marked clean, unmapped,
refilled, written back), each
with a fixed sequence that fails if that change does not make the space
forget what the generated code would otherwise take as done.  The code
generated for an ``alloca`` maps its slot itself when its pages are
there and leaves the rest to ``Machine.map_range``; it must leave what
calling ``map_range`` leaves.

On a layout in the host's byte order the space hands out typed views of
its pages, and an aligned access indexes one; a misaligned one keeps the
``struct`` codec, and a value a view refuses is refused as the codec
refuses it.
"""

import gc
import struct
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import (Constant, F32, F64, Function, FunctionType, I8, I16,
                      I32, I64, IRBuilder, Module, VOID, array, ptr)
from repro.machine import (AddressSpace, Interpreter, SegmentationFault,
                           UVA_HEAP_BASE, boot)
from repro.machine.interpreter import Observer, _Decoder
from repro.machine.memory import PageViews
from repro.machine.values import (decode_scalar, encode_scalar, scalar_size,
                                  scalar_struct)
from repro.runtime import CommunicationManager, FAST_WIFI, UVAManager
from repro.targets import (ARM32, MIPS32BE, UNIFIED_ORDER_KEY,
                           UNIFIED_POINTER_KEY, X86_64)

PAGE = 256          # two dirty blocks a page, so stores can straddle one
KINDS = {"i8": I8, "i16": I16, "i32": I32, "i64": I64,
         "f32": F32, "f64": F64, "ptr": ptr(I8)}
# Pages 16 and 17 start mapped, 18 and 40 do not (18 follows a mapped
# page, so a straddling scalar can run off the end into it).
MAPPED, PAGES = (16, 17), (16, 17, 18, 40)
OFFSETS = (0, 1, 2, 4, 120, 121, 124, 125, 126, 127, 128, 196, 200,
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
    # a double constant with an integer value
    store = Function("store_three", FunctionType(VOID, [ptr(F64)]), ["p"])
    module.add_function(store)
    b = IRBuilder(store.add_block("entry"))
    b.store(Constant(F64, 3), store.args[0])
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

    def store_three(self, address):
        self.store("f64", address, 3.0)

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
    st.sampled_from(["load", "store", "wide store", "store three"]),
    st.sampled_from(sorted(KINDS)),
    st.sampled_from(PAGES), st.sampled_from(OFFSETS),
    st.integers(0, 2**64 - 1), st.floats(width=32))
# Every way the runtime changes what a space recorded, besides an access.
_switch = st.one_of(
    st.tuples(st.just("track_subpage"), st.booleans()),
    st.tuples(st.just("touched"), st.booleans()),
    st.tuples(st.just("handler"),
              st.sampled_from(["none", "refuse", "on_demand"])),
    st.tuples(st.just("clear_dirty")),
    st.tuples(st.just("collect_dirty_pages")),
    st.tuples(st.sampled_from(["mark_clean", "unmap_page", "refill"]),
              st.sampled_from(PAGES)),
    st.tuples(st.sampled_from(["install_pages", "apply_delta"]),
              st.sampled_from(PAGES), st.booleans()),
    # a scope opened with nothing known: it installs an empty set, then
    # restores the one it replaced, grown by what the scope touched
    st.tuples(st.sampled_from(["push", "pop"])))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@given(steps=st.lists(st.one_of(_access, _access, _access, _switch),
                      min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_ops_match_plain_address_space(variant, steps):
    _run(variant, steps)


def _load(kind, pidx, offset):
    return ("load", kind, pidx, offset, 0, 0.0)


def _store(kind, pidx, offset, value=0x5A):
    return ("store", kind, pidx, offset, value, 1.5)


# Each invalidation rule, with an access that goes wrong if the rule is
# not kept: an entry made before the event is used after it.
INVALIDATIONS = {
    "track-subpage-on-after-stores": [
        ("track_subpage", False), _store("i32", 16, 4),
        ("track_subpage", True), _store("i32", 16, 8),
        _store("i8", 16, 130), ("track_subpage", False),
        _store("i8", 16, 131)],
    "mark-clean-after-store": [
        ("track_subpage", True), _store("i32", 16, 4), _store("i32", 17, 4),
        ("mark_clean", 16), _store("i32", 16, 8), _store("i32", 17, 8)],
    "touched-installed-after-access": [
        _load("i32", 16, 4), _store("i16", 17, 2), ("touched", True),
        _load("i32", 16, 4), _store("i16", 17, 2)],
    "profiler-scopes": [
        ("push",), _load("i32", 16, 4), ("push",), _store("i32", 17, 4),
        ("pop",), _load("i32", 16, 8), _store("i32", 17, 8), ("pop",),
        ("push",), _load("i32", 17, 4), _store("i32", 16, 4), ("pop",)],
    # an entry a scope set aside must not come back when an event inside
    # the scope made it untrue
    "invalidated-inside-a-scope": [
        ("track_subpage", True), _store("i32", 16, 4), _load("i32", 17, 4),
        ("push",), ("mark_clean", 16), ("pop",), _store("i32", 16, 8),
        ("push",), ("unmap_page", 17), ("pop",), ("handler", "on_demand"),
        _load("i32", 17, 4), ("push",), ("collect_dirty_pages",), ("pop",),
        _store("i32", 16, 12), ("push",), ("clear_dirty",), ("pop",),
        _store("i32", 16, 16), ("track_subpage", False),
        _store("i32", 16, 132), ("push",), ("track_subpage", True),
        ("pop",), _store("i32", 16, 136)],
    "unmap-then-refetch": [
        _store("i64", 17, 8), _load("i64", 17, 8), ("unmap_page", 17),
        ("handler", "on_demand"), _load("i64", 17, 8),
        _store("i64", 17, 8, 0x77), _load("i64", 17, 8),
        _load("i32", 17, 16)],
    "write-back-after-store": [
        ("track_subpage", True), _store("i32", 16, 4),
        ("collect_dirty_pages",), _store("i32", 16, 8), ("clear_dirty",),
        _store("i32", 16, 12)],
    "refilled-in-place": [
        ("track_subpage", True), _store("i32", 16, 4), _load("i32", 17, 4),
        ("refill", 16), ("install_pages", 17, True), _load("i32", 16, 4),
        _load("i32", 17, 4), _store("i32", 16, 8),
        ("apply_delta", 16, False), ("apply_delta", 18, True),
        _load("i32", 16, 120), _store("i32", 16, 124),
        ("install_pages", 18, False), _store("i8", 18, 0)],
    # in page and in block, but not aligned: the codec's arm
    "misaligned-in-page": [
        _store("i16", 16, 17), _load("i16", 16, 17),
        _store("i32", 16, 18), _load("i32", 16, 18),
        _store("i64", 16, 4), _load("i64", 16, 4),
        _store("f64", 16, 36), _load("f64", 16, 36),
        _store("f32", 16, 66), _load("f32", 16, 66),
        _store("ptr", 16, 98), _load("ptr", 16, 98),
        _store("i64", 16, 4), _store("i64", 16, 8), _load("i64", 16, 4),
        _load("i32", 16, 8), _load("i16", 16, 6), _load("i8", 16, 7)],
    "double-constant": [
        ("store three", "f64", 16, 8, 0, 0.0), _load("f64", 16, 8),
        ("store three", "f64", 16, 8, 0, 0.0), _load("i64", 16, 8),
        ("store three", "f64", 16, 4, 0, 0.0), _load("f64", 16, 4),
        ("store three", "f64", 18, 8, 0, 0.0)],
    # every width read through the views of a page after each refill
    "refilled-under-views": [
        _store("i32", 16, 120), _store("i32", 17, 0),
        *(_load(kind, 16, 120) for kind in sorted(KINDS)),
        ("refill", 16),
        *(_load(kind, 16, 120) for kind in sorted(KINDS)),
        ("apply_delta", 16, False),
        *(_load(kind, 16, 128) for kind in sorted(KINDS)),
        ("install_pages", 16, True),
        *(_load(kind, 16, 248) for kind in sorted(KINDS)),
        _store("f64", 16, 248), ("install_pages", 17, False),
        *(_load(kind, 17, 0) for kind in sorted(KINDS)),
        _store("i64", 17, 0)],
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("rule", sorted(INVALIDATIONS))
def test_invalidation_rule(rule, variant):
    _run(variant, INVALIDATIONS[rule])


def _switch_on(space, step, scopes):
    """Apply one non-access step to ``space``; ``scopes`` is its stack of
    open scopes."""
    what = step[0]
    if what == "track_subpage":
        space.track_subpage = step[1]
    elif what == "touched":
        space.touched = set() if step[1] else None
    elif what == "handler":
        space.fault_handler = _handler(space, step[1])
    elif what == "clear_dirty":
        space.clear_dirty()
    elif what == "collect_dirty_pages":
        return space.collect_dirty_pages()
    elif what == "mark_clean":
        space.mark_clean(step[1])
    elif what == "unmap_page":
        space.unmap_page(step[1])
    elif what == "refill":
        space.map_page(step[1], _fill(step[1] + 1))
    elif what == "install_pages":
        space.install_pages({step[1]: _fill(step[1] + 2)},
                            mark_dirty=step[2])
    elif what == "apply_delta":
        return _outcome(lambda: space.apply_delta(
            step[1], [(120, b"\xa5" * 16), (PAGE - 2, b"\x3c\x3c")],
            mark_dirty=step[2]))
    elif what == "push":
        scopes.append(space.open_scope(set()))
    elif scopes:  # pop
        space.close_scope(scopes.pop())
    return None


def _run(variant, steps):
    layout_name, observed = VARIANTS[variant]
    arch, pointer_bytes, byte_order = LAYOUTS[layout_name]
    module = _module()
    module.metadata.update({UNIFIED_POINTER_KEY: pointer_bytes,
                            UNIFIED_ORDER_KEY: byte_order})
    machine = boot(module, arch, "server", page_size=PAGE)
    memory = machine.memory
    assert machine.layout.byte_order == byte_order
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
    interp.call_by_name("store_three", [MAPPED[0] * PAGE])
    twin.store_three(MAPPED[0] * PAGE)
    seen.clear()
    stored_blocks = {}      # page -> blocks stored to while tracking was on
    stored_pages = {MAPPED[0]}  # pages stored to since the last clear_dirty

    scopes, twin_scopes = [], []
    for step in steps:
        if step[0] not in ("load", "store", "wide store"):
            ours = _switch_on(memory, step, scopes)
            assert ours == _switch_on(twin.space, step, twin_scopes)
            if step[0] in ("clear_dirty", "collect_dirty_pages"):
                stored_blocks.clear()
                stored_pages.clear()
            elif step[0] in ("mark_clean", "unmap_page"):
                stored_blocks.pop(step[1], None)
                stored_pages.discard(step[1])
        else:
            what, kind, pidx, offset, integer, real = step
            if what == "store three":
                kind = "f64"
            address = pidx * PAGE + offset
            size = scalar_size(KINDS[kind], machine.layout)
            wide = what == "wide store" and kind not in ("f32", "f64")
            if what == "store three":
                ours = _outcome(lambda: interp.call_by_name(
                    "store_three", [address]))
                theirs = _outcome(lambda: twin.store_three(address))
            elif kind in ("f32", "f64"):
                value = real
            elif wide:  # the least value that does not fit
                value = 1 << size * 8
            else:
                value = integer & ((1 << size * 8) - 1)
            if what == "store three":
                pass
            elif what == "load":
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
                name = ("store_three" if what == "store three" else
                        f"{'load' if what == 'load' else 'store'}_{kind}")
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


# What a view refuses and the ``struct`` codec refuses too: a negative,
# a float or None where an integer goes, None where a float goes.
REFUSED = {"i8": -1, "i16": 1.5, "i32": -1, "i64": -(2 ** 70),
           "ptr": 2.5, "f32": None, "f64": None}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("kind", sorted(REFUSED))
def test_a_refused_value_raises_what_the_codec_raises(layout, kind):
    """Stored aligned on a recorded page (the view's arm), misaligned on
    one (the codec's) and on a page not yet recorded (``write``): each
    raises ``struct``'s own error and records nothing.  (A failed
    ``pack_into`` zeroes its slot first, as it always has.)"""
    arch, pointer_bytes, byte_order = LAYOUTS[layout]
    module = _module()
    module.metadata.update({UNIFIED_POINTER_KEY: pointer_bytes,
                            UNIFIED_ORDER_KEY: byte_order})
    machine = boot(module, arch, "server", page_size=PAGE)
    memory = machine.memory
    memory.map_page(16, _fill(16))
    interp = Interpreter(machine)
    value, type_ = REFUSED[kind], KINDS[kind]
    zero = 0.0 if type_.is_float else 0
    interp.call_by_name(f"store_{kind}", [16 * PAGE, zero])
    with pytest.raises(struct.error) as expected:
        scalar_struct(type_, machine.layout).pack(value)
    size = scalar_size(type_, machine.layout)
    for pidx, offset in ((16, 8), (16, 8 + (size > 1)), (17, 8)):
        memory.map_page(pidx)
        before = _state(memory)[1:]
        with pytest.raises(struct.error) as raised:
            interp.call_by_name(f"store_{kind}",
                                [pidx * PAGE + offset, value])
        assert str(raised.value) == str(expected.value)
        assert _state(memory)[1:] == before


#: The kinds of stored value whose store keeps the range check: every
#: other kind is in range (``_Decoder.in_range``).
CHECKED = {"and-argument", "or-argument", "xor-argument", "lshr-argument",
           "bitcast-argument", "argument", "call"}


def _one_store_per_kind():
    """``stores`` stores one value of each kind: each integer binop and
    masking cast, a ``gep``, a ``cmp``, a load, a ``select``, an
    argument and a call result; ``and``/``or``/``xor``/``lshr`` and a
    bitcast once of in-range operands and once (``-argument``) of
    arguments.  Returns the module and the kind each store stores."""
    module = Module()
    ident = module.add_function(Function("ident", FunctionType(I32, [I32]),
                                         ["x"]))
    IRBuilder(ident.add_block("entry")).ret(ident.args[0])
    fn = module.add_function(Function(
        "stores", FunctionType(VOID, [I32, ptr(I32), ptr(ptr(I32)), F64]),
        ["a", "p", "pp", "d"]))
    b = IRBuilder(fn.add_block("entry"))
    a, p, pp, d = fn.args
    three, load = b.i32(3), b.load(p)
    values = {op: b.binop(op, a, three) for op in (
        "add", "sub", "mul", "sdiv", "udiv", "srem", "urem", "shl", "ashr",
        "and")}
    values.update({op: b.binop(op, load, three) for op in (
        "or", "xor", "lshr")})
    values.update({f"{op}-argument": b.binop(op, a, a if op == "and"
                                             else three)
                   for op in ("and", "or", "xor", "lshr")})
    values.update(
        trunc=b.trunc(a, I8), zext=b.zext(b.trunc(a, I16), I32),
        sext=b.sext(b.trunc(a, I8), I32), ptrtoint=b.cast("ptrtoint", p, I32),
        inttoptr=b.cast("inttoptr", a, ptr(I32)),
        fptosi=b.fptosi(d, I32), fptoui=b.cast("fptoui", d, I32),
        gep=b.index(p, a), cmp=b.cmp("slt", a, three), load=load,
        bitcast=b.bitcast(load, I32),
        select=b.select(b.cmp("slt", a, three), load, three),
        argument=a, call=b.call(ident, [a]))
    values["bitcast-argument"] = b.bitcast(a, I32)
    kinds = {}
    for kind, value in values.items():
        slot = (pp if value.type.is_pointer
                else b.bitcast(p, ptr(value.type)))
        kinds[b.store(value, slot)] = kind
    b.ret()
    return module, kinds


@pytest.mark.parametrize("arch", [ARM32, MIPS32BE], ids=lambda a: a.name)
def test_a_value_in_range_is_stored_unchecked(arch):
    """A store of a value the decoder knows to be in range of its type's
    width writes no ``too_wide`` check, and on the typed-view path no
    ``try`` either; any other value keeps both."""
    module, kinds = _one_store_per_kind()
    assert CHECKED < set(kinds.values())
    machine = boot(module, arch)
    decoder = _Decoder(Interpreter(machine), module.function("stores"))
    chunks = {}
    for (_, _, instructions), (_, texts) in zip(decoder.stretches,
                                                decoder.write()):
        chunks.update(zip(instructions, texts))
    for store, kind in kinds.items():
        checked = kind in CHECKED
        assert ("too_wide" in chunks[store]) == checked, kind
        if decoder.views:
            assert ("try:" in chunks[store]) == checked, kind


def test_a_dropped_machine_frees_its_pages_and_views():
    """A page's views reference the page and nothing references them but
    its ``PageViews``: with the collector off, dropping the machine
    frees every view, so every page with it."""
    module = _module()
    gc.collect()
    gc.disable()
    try:
        machine = boot(module, X86_64, "server", page_size=PAGE)
        for pidx in MAPPED:
            machine.memory.map_page(pidx, _fill(pidx))
        interp = Interpreter(machine)
        views = []
        for kind in KINDS:
            for pidx in MAPPED:
                interp.call_by_name(f"store_{kind}", [pidx * PAGE + 8, 1])
                interp.call_by_name(f"load_{kind}", [pidx * PAGE + 8])
        for pidx in MAPPED:
            entry = machine.memory.storable(pidx * PAGE // 128)
            assert type(entry) is PageViews
            assert entry.u8 is machine.memory.pages[pidx]
            views += [weakref.ref(getattr(entry, name)) for name in
                      ("u16", "u32", "u64", "f32", "f64")]
        del machine, interp, entry
        assert [view() for view in views] == [None] * len(views)
    finally:
        gc.enable()


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


def test_runtime_clean_marks_reach_generated_stores():
    """The UVA manager marks a page clean in three places: a mobile page
    whose writes a synchronization has versioned, a mobile page a
    write-back made equal to the server's copy, and a server page a
    prefetch just refilled.  Each goes through ``mark_clean``, so a
    generated store to a block stored to before dirties the page again."""
    mobile = boot(_module(), ARM32, "mobile")
    server = boot(_module(), X86_64, "server")
    uva = UVAManager(mobile, server, CommunicationManager(FAST_WIFI))
    uva.attach()
    on_mobile, on_server = Interpreter(mobile), Interpreter(server)
    address = UVA_HEAP_BASE + 0x40
    page = address // mobile.memory.page_size
    mobile.map_range(address, 4)

    def stored(interp, value):
        interp.call_by_name("store_i32", [address, value])
        return page in interp.machine.memory.dirty

    assert stored(on_mobile, 1)
    uva.synchronize_page_table()
    assert page not in mobile.memory.dirty
    assert stored(on_mobile, 2)
    uva.synchronize_page_table()
    assert uva._mobile_version[page] == 2

    assert stored(on_mobile, 3) and stored(on_server, 4)  # copy-on-demand
    uva.write_back()
    uva.commit_finalize()
    assert page not in mobile.memory.dirty
    assert stored(on_mobile, 5)

    assert stored(on_server, 6)
    refilling = UVAManager(mobile, server, CommunicationManager(FAST_WIFI),
                           enable_incremental_uva=False)
    refilling.prefetch([page])
    assert page not in server.memory.dirty
    assert stored(on_server, 7)
    assert server.memory.read(address, 4) == (7).to_bytes(4, "little")

"""Shard analysis: split a data-parallel offload target into index ranges.

The paper's runtime ships each selected region to exactly one server.  Elf
(SNIPPETS.md #2) showed that a data-parallel kernel can instead be scattered
across *k* servers as index-range shards and gathered afterwards.  This
module is the compiler half of that scheme: it proves a target is safe to
shard and emits a range wrapper ``__no_shard_<target>`` that executes only
iterations ``[lo, hi)`` of the target's top-level loop.

The proof obligations are deliberately conservative — a refusal simply
degrades the invocation to the paper's k=1 path, it never changes program
semantics:

* exactly one top-level natural loop with a canonical induction variable
  (``i = C; i < bound; i = i + 1`` in clang -O0 alloca form);
* the bound is a compile-time constant or an ``i32`` global never written
  by the target (read at run time to size the shards);
* no calls, inline asm or syscalls anywhere in the target;
* every in-loop memory *store* is affine in the IV (``base[i] = ...``) so
  shards write disjoint elements and the UVA dirty deltas merge cleanly;
* every in-loop read of mutable state is either per-iteration fresh (an
  alloca re-initialized by a dominating in-loop store — no loop-carried
  scalar dependence) or reads shard-invariant data (distinct root globals
  are assumed not to alias, a restrict-style contract documented in
  docs/parallel-offload.md); a read whose base has *no* provable root
  global is refused whenever the target writes memory at all — an affine
  index alone cannot prove same-element access on an unproven base;
* no memory reads or writes outside the loop, and the return value is
  void or a compile-time constant (so the gathered result is
  shard-schedule independent).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..analysis.loops import Loop, LoopInfo
from ..ir import instructions as inst
from ..ir.module import Module
from ..ir.types import FunctionType, I32, PointerType
from ..ir.values import (Argument, BasicBlock, Constant, Function,
                         GlobalVariable, Value)
from ..machine.values import to_signed

# Range wrappers follow the runtime's ``__no_`` namespace (cf. the
# partitioner's ``__no_offload_`` request stubs).
SHARD_PREFIX = "__no_shard_"

_PEELABLE_CASTS = ("sext", "zext", "trunc")


@dataclass(frozen=True)
class ShardSpec:
    """Everything the runtime needs to scatter one target."""

    target: str
    wrapper: str                    # __no_shard_<target>(args..., lo, hi)
    iv_init: int                    # first iteration index
    bound_const: Optional[int]      # exclusive static bound ...
    bound_global: Optional[str]     # ... or i32 global read at run time ...
    bound_arg: Optional[int] = None  # ... or the index of an i32 argument
    ret_const: Optional[int] = None  # constant return value (None = void)

    def static_trip_count(self) -> Optional[int]:
        if self.bound_const is None:
            return None
        return max(0, self.bound_const - self.iv_init)


def contiguous_ranges(start: int,
                      sizes: Sequence[int]) -> List[Tuple[int, int]]:
    """Turn per-shard iteration counts into contiguous [lo, hi) ranges."""
    ranges: List[Tuple[int, int]] = []
    lo = start
    for size in sizes:
        ranges.append((lo, lo + size))
        lo += size
    return ranges


def analyze_shard_targets(module: Module, target_names: Iterable[str]
                          ) -> Tuple[Dict[str, "ShardSpec"], Dict[str, str]]:
    """Analyze each offload target in the *unified* module and copy a
    range wrapper for every shardable one.  Returns ``(specs, refusals)``
    keyed by target name.  Wrappers are appended after every existing
    function, so code addresses of the original program are unchanged."""
    specs: Dict[str, ShardSpec] = {}
    refusals: Dict[str, str] = {}
    for name in sorted(set(target_names)):
        fn = module.get_function(name)
        if fn is None or not fn.is_definition:
            refusals[name] = "target has no definition"
            continue
        analysis = _analyze(fn)
        if isinstance(analysis, str):
            refusals[name] = analysis
            continue
        wrapper = _build_wrapper(module, fn, analysis)
        specs[name] = ShardSpec(
            target=name, wrapper=wrapper.name,
            iv_init=analysis.iv_init,
            bound_const=analysis.bound_const,
            bound_global=analysis.bound_global,
            bound_arg=analysis.bound_arg,
            ret_const=analysis.ret_const)
    return specs, refusals


# ---------------------------------------------------------------------------
# analysis


@dataclass
class _Analysis:
    loop: Loop
    iv: inst.Alloca
    init_store: inst.Store          # outside-loop ``store C, %i``
    cond: inst.Cmp                  # header ``icmp slt/ult (load %i), bound``
    iv_init: int
    bound_const: Optional[int]
    bound_global: Optional[str]
    bound_arg: Optional[int]
    ret_const: Optional[int]


def _peel(value: Value) -> Value:
    while isinstance(value, inst.Cast) and value.op in _PEELABLE_CASTS:
        value = value.value
    return value


def _root_global(value: Value) -> Optional[GlobalVariable]:
    """The global object (or global pointer) a base address derives from.

    ``None`` means the chain is not analyzable; distinct root globals are
    assumed to address disjoint objects (restrict-style contract)."""
    v = value
    while True:
        if isinstance(v, GlobalVariable):
            return v
        if isinstance(v, inst.Load) and isinstance(v.pointer, GlobalVariable):
            return v.pointer
        if isinstance(v, inst.Gep):
            if not all(isinstance(i, Constant) for i in v.indices):
                return None
            v = v.base
            continue
        if isinstance(v, inst.Cast) and v.op == "bitcast":
            v = v.value
            continue
        return None


def _before(a: inst.Instruction, b: inst.Instruction,
            block: BasicBlock) -> bool:
    for ins in block.instructions:
        if ins is a:
            return True
        if ins is b:
            return False
    return False


def _analyze(fn: Function):  # -> _Analysis | str
    """Prove ``fn`` shardable; returns an :class:`_Analysis` or the
    refusal reason as a string."""
    for ins in fn.instructions():
        if isinstance(ins, (inst.Call, inst.InlineAsm, inst.Syscall)):
            return "target calls other functions"

    li = LoopInfo(fn)
    tops = li.top_level_loops()
    if len(tops) != 1:
        return ("target has no loop" if not tops
                else "target has multiple top-level loops")
    loop = tops[0]
    in_loop: Set[int] = {id(b) for b in loop.blocks}

    def inside(ins: inst.Instruction) -> bool:
        return ins.parent is not None and id(ins.parent) in in_loop

    # Canonical induction variable from the header's exit test.
    term = loop.header.terminator
    if not isinstance(term, inst.CondBr):
        return "loop header does not end in a conditional branch"
    if (id(term.if_true) not in in_loop) or (id(term.if_false) in in_loop):
        return "loop header branch is not a canonical exit test"
    cond = term.cond
    if not isinstance(cond, inst.Cmp) or cond.pred not in ("slt", "ult"):
        return "loop bound is not a < comparison"
    iv_load = cond.lhs
    if not (isinstance(iv_load, inst.Load)
            and isinstance(iv_load.pointer, inst.Alloca)):
        return "no canonical induction variable"
    iv = iv_load.pointer
    if iv.allocated_type != I32:
        return "induction variable is not i32"

    # The IV address must not escape: only loads and stores touch it.
    for ins in fn.instructions():
        for op in ins.operands:
            if op is iv and not (
                    isinstance(ins, inst.Load)
                    or (isinstance(ins, inst.Store) and ins.pointer is iv)):
                return "induction variable address escapes"

    # Exactly one in-loop increment (i = i + 1) and one dominating init.
    iv_stores = [ins for ins in fn.instructions()
                 if isinstance(ins, inst.Store) and ins.pointer is iv]
    steps = [s for s in iv_stores if inside(s)]
    inits = [s for s in iv_stores if not inside(s)]
    if len(steps) != 1 or len(inits) != 1:
        return "induction variable is not i = C; ...; i = i + 1"
    step, init = steps[0], inits[0]
    step_value = step.value
    if not (isinstance(step_value, inst.BinOp) and step_value.op == "add"
            and isinstance(step_value.lhs, inst.Load)
            and step_value.lhs.pointer is iv and inside(step_value.lhs)
            and isinstance(step_value.rhs, Constant)
            and step_value.rhs.value == 1):
        return "induction variable step is not +1"
    if not isinstance(init.value, Constant):
        return "induction variable start is not a constant"
    if not li.domtree.dominates(init.parent, loop.header):
        return "induction variable init does not dominate the loop"
    iv_init = to_signed(init.value.value, 32)

    # Bound: a constant, an i32 global the target never writes, or an
    # i32 argument (read through its clang -O0 entry-block spill slot).
    bound = cond.rhs
    bound_const: Optional[int] = None
    bound_global: Optional[str] = None
    bound_arg: Optional[int] = None
    if isinstance(bound, Constant):
        bound_const = to_signed(bound.value, 32)
    elif (isinstance(bound, inst.Load)
          and isinstance(bound.pointer, GlobalVariable)
          and bound.type == I32):
        gv = bound.pointer
        for ins in fn.instructions():
            if isinstance(ins, inst.Store) and ins.pointer is gv:
                return "loop bound global is written by the target"
        bound_global = gv.name
    elif (isinstance(bound, inst.Load)
          and isinstance(bound.pointer, inst.Alloca)
          and bound.type == I32):
        slot = bound.pointer
        spills = [ins for ins in fn.instructions()
                  if isinstance(ins, inst.Store) and ins.pointer is slot]
        if not (len(spills) == 1 and not inside(spills[0])
                and isinstance(spills[0].value, Argument)
                and spills[0].value.type == I32
                and li.domtree.dominates(spills[0].parent, loop.header)):
            return "loop bound is neither constant nor a readable global"
        bound_arg = spills[0].value.index
    else:
        return "loop bound is neither constant nor a readable global"

    # Classify stores: IV (done), private allocas, affine memory writes.
    stored_roots: Set[int] = set()
    alloca_stores: Dict[int, List[inst.Store]] = {}
    for ins in fn.instructions():
        if not isinstance(ins, inst.Store) or ins.pointer is iv:
            continue
        pointer = ins.pointer
        if isinstance(pointer, inst.Alloca):
            alloca_stores.setdefault(id(pointer), []).append(ins)
            continue
        if not inside(ins):
            return "memory write outside the loop"
        if not (isinstance(pointer, inst.Gep) and len(pointer.indices) == 1):
            return "in-loop store is not a one-dimensional element write"
        index = _peel(pointer.indices[0])
        if not (isinstance(index, inst.Load) and index.pointer is iv
                and inside(index)):
            return "in-loop store index is not the induction variable"
        root = _root_global(pointer.base)
        if root is None:
            return "in-loop store base is not rooted in a global"
        stored_roots.add(id(root))

    # Classify loads: IV, fresh/loop-invariant allocas, shard-safe memory.
    for ins in fn.instructions():
        if not isinstance(ins, inst.Load) or ins.pointer is iv:
            continue
        pointer = ins.pointer
        if isinstance(pointer, inst.Alloca):
            writes = [s for s in alloca_stores.get(id(pointer), ())
                      if inside(s)]
            if not inside(ins) or not writes:
                continue  # private scratch / loop-invariant spill
            # Per-iteration freshness: some in-loop store must dominate.
            fresh = any(
                (s.parent is ins.parent and _before(s, ins, ins.parent))
                or (s.parent is not ins.parent
                    and li.domtree.dominates(s.parent, ins.parent))
                for s in writes)
            if not fresh:
                return "loop-carried dependence on a local variable"
            continue
        if not inside(ins):
            return "memory read outside the loop"
        if isinstance(pointer, GlobalVariable):
            if id(pointer) in stored_roots:
                return "in-loop read of shard-written data"
            continue
        if isinstance(pointer, inst.Gep):
            root = _root_global(pointer.base)
            if root is None:
                # An affine index proves nothing without a proven base:
                # ``int *q = a - 1`` makes ``q[i]`` read ``a[i-1]``, a
                # cross-shard dependence.  With any shard-written root
                # the unproven base may alias it, so refuse outright.
                if stored_roots:
                    return "unanalyzable in-loop read"
                continue
            if id(root) in stored_roots:
                index = (_peel(pointer.indices[0])
                         if len(pointer.indices) == 1 else None)
                affine = (isinstance(index, inst.Load)
                          and index.pointer is iv and inside(index))
                if not affine:
                    return "in-loop read of shard-written data"
            continue
        return "unanalyzable in-loop read"

    # Return value must not depend on the shard schedule.
    ret_const: Optional[int] = None
    rets = [ins for ins in fn.instructions() if isinstance(ins, inst.Ret)]
    if not fn.ftype.ret.is_void:
        values = []
        for ret in rets:
            if not isinstance(ret.value, Constant):
                return "return value is not a compile-time constant"
            values.append(to_signed(ret.value.value, 32))
        if len(set(values)) != 1:
            return "return value differs across paths"
        ret_const = values[0]
    return _Analysis(loop=loop, iv=iv, init_store=init, cond=cond,
                     iv_init=iv_init, bound_const=bound_const,
                     bound_global=bound_global, bound_arg=bound_arg,
                     ret_const=ret_const)


# ---------------------------------------------------------------------------
# wrapper construction


def _build_wrapper(module: Module, fn: Function,
                   analysis: _Analysis) -> Function:
    """Copy ``fn`` as ``__no_shard_<fn>`` with two extra i32 arguments
    ``lo``/``hi`` replacing the IV start constant and the loop bound.

    The copy is a ``deepcopy`` — the graph :meth:`Module.clone` copies
    by a pickle round trip — with the module and every module-level
    value pinned in the memo: the wrapper shares globals and other
    functions with ``fn`` and owns copies of its arguments, blocks and
    instructions, whatever their opcodes."""
    memo = {id(v): v for v in (module, *module.globals.values(),
                               *module.functions.values()) if v is not fn}
    wrapper = copy.deepcopy(fn, memo)
    wrapper.name = SHARD_PREFIX + fn.name
    wrapper.ftype = FunctionType(fn.ftype.ret,
                                 list(fn.ftype.params) + [I32, I32])
    wrapper.type = PointerType(wrapper.ftype)
    n = len(fn.args)
    lo = Argument("shard.lo", I32, n)
    hi = Argument("shard.hi", I32, n + 1)
    wrapper.args += [lo, hi]
    module.add_function(wrapper)

    init = memo[id(analysis.init_store)]
    init.replace_operand(init.value, lo)
    cond = memo[id(analysis.cond)]
    old_bound = cond.rhs
    cond.replace_operand(old_bound, hi)
    _drop_if_dead(wrapper, old_bound)
    return wrapper


def _drop_if_dead(fn: Function, value: Value) -> None:
    """Remove a copied bound load left dead by the hi-argument rewrite."""
    if not isinstance(value, inst.Instruction):
        return
    for ins in fn.instructions():
        if any(op is value for op in ins.operands):
            return
    if value.parent is not None:
        value.parent.remove(value)

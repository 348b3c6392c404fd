"""Hot function/loop profiler (paper, Section 3.1).

Runs the application once on the *mobile* machine model with a profiling
input, observing every function call and loop entry and reading the pages
the machine's address space records as touched.  The resulting
:class:`ProfileData` drives the static performance estimator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..analysis.loops import Loop, LoopInfo
from ..ir.module import Module
from ..ir.values import BasicBlock, Function
from ..machine.interpreter import Observer
from ..machine.machine import Machine
from ..machine.memory import AddressSpace
from ..runtime.local import run_local
from ..targets.arch import TargetArch
from ..targets.presets import ARM32
from .profile_data import CandidateProfile, ProfileData


class _LoopActivation:
    __slots__ = ("loop", "start_cycles", "profile", "accounting")

    def __init__(self, loop: Loop, start_cycles: float,
                 profile: CandidateProfile, accounting: bool):
        self.loop = loop
        self.start_cycles = start_cycles
        self.profile = profile
        # Only the outermost activation of a loop accumulates time —
        # recursive re-entry of the enclosing function must not double
        # count (same rule as for function profiles).
        self.accounting = accounting


class ProfilingObserver(Observer):
    """Interpreter observer that attributes time, invocations and touched
    pages to functions and natural loops.

    A candidate's ``pages_touched`` is inclusive: every page the machine's
    ``AddressSpace.touched`` records while one of its activations is live,
    callees and libc included.  Activations nest, so they are kept as a
    *scope stack*: entering a function or a loop opens an address-space
    scope, which installs an empty ``touched`` set; every access the
    address space serves adds its page(s) to that set only — unless the
    candidate's ``pages_touched``, the scope's ``known`` set, holds the
    page already, so that the space keeps serving it from its
    record-once maps — and leaving the scope closes it, which unions the
    set into the one it replaced; the observer unions it into
    ``pages_touched``.  Every scope is closed on the way out —
    ``exit_function`` also runs when ``exit()`` or an error unwinds the
    guest stack — so the sets are exactly what updating every live
    activation on every access would give, and ``touched`` is back to
    what it was.

    ``enter_block`` does something only where the innermost loop can
    change: on a block entered along a CFG edge from another innermost
    loop (or from outside every loop), and on an entry block inside a
    loop.  Those blocks are ``watched``; the interpreter calls the hook
    for no other.
    """

    def __init__(self, module: Module, arch: TargetArch):
        self.arch = arch
        self.profiles: Dict[str, CandidateProfile] = {}
        # Block -> the innermost loop containing it (blocks outside every
        # loop are absent).
        self._innermost: Dict[BasicBlock, Loop] = {}
        self.watched: Set[BasicBlock] = set()
        for fn in module.defined_functions():
            self.profiles[fn.name] = CandidateProfile(
                fn.name, "function", fn.name)
            info = LoopInfo(fn)
            for loop in info.loops:
                self.profiles[loop.name] = CandidateProfile(
                    loop.name, "loop", fn.name)
            for block in fn.blocks:
                loop = info.innermost_loop_of(block)
                if loop is not None:
                    self._innermost[block] = loop
            if fn.entry in self._innermost:
                self.watched.add(fn.entry)
            for block in fn.blocks:
                loop = self._innermost.get(block)
                self.watched.update(
                    succ for succ in block.successors()
                    if self._innermost.get(succ) is not loop)
        # One entry per live guest frame: its stack of active loops.
        self._frames: List[List[_LoopActivation]] = []
        self._fn_entry_cycles: Dict[str, List[float]] = {}
        self._active_fn_depth: Dict[str, int] = {}
        self._active_loop_depth: Dict[str, int] = {}
        # The scope stack: per live function or loop activation, innermost
        # last, what ``AddressSpace.open_scope`` returned for it.
        self._touch_scopes: List[tuple] = []
        self._memory: Optional[AddressSpace] = None

    def attach(self, machine: Machine) -> None:
        self._memory = machine.memory

    def _push_scope(self, profile: CandidateProfile) -> None:
        self._touch_scopes.append(
            self._memory.open_scope(profile.pages_touched))

    def _pop_scope(self, profile: CandidateProfile) -> None:
        profile.pages_touched |= self._memory.close_scope(
            self._touch_scopes.pop())

    # -- function events --------------------------------------------------
    def enter_function(self, fn: Function, cycles: float) -> None:
        profile = self.profiles.get(fn.name)
        if profile is None:
            return
        profile.invocations += 1
        depth = self._active_fn_depth.get(fn.name, 0)
        self._active_fn_depth[fn.name] = depth + 1
        if depth == 0:
            self._fn_entry_cycles.setdefault(fn.name, []).append(cycles)
        self._frames.append([])
        self._push_scope(profile)

    def exit_function(self, fn: Function, cycles: float) -> None:
        profile = self.profiles.get(fn.name)
        if profile is None:
            return
        loop_stack = self._frames[-1]
        while loop_stack:
            self._pop_loop(loop_stack, cycles)
        self._frames.pop()
        self._pop_scope(profile)
        depth = self._active_fn_depth.get(fn.name, 1)
        self._active_fn_depth[fn.name] = depth - 1
        if depth == 1:
            start = self._fn_entry_cycles[fn.name].pop()
            profile.total_seconds += (cycles - start) / self.arch.clock_hz

    # -- loop events ----------------------------------------------------
    def enter_block(self, block: BasicBlock, cycles: float) -> None:
        if not self._frames:
            return
        loop_stack = self._frames[-1]
        innermost = self._innermost.get(block)
        # Still in the same loop, or outside every loop: a watched block
        # entered along an edge that does not change the loop, such as a
        # loop header along its back edge.
        if (loop_stack[-1].loop if loop_stack else None) is innermost:
            return
        # Leave loops that do not contain this block.
        while loop_stack and not loop_stack[-1].loop.contains(block):
            self._pop_loop(loop_stack, cycles)
        # Enter loops: the chain from the current innermost down to the
        # innermost loop containing the block.
        if innermost is None:
            return
        chain: List[Loop] = []
        active = loop_stack[-1].loop if loop_stack else None
        node: Optional[Loop] = innermost
        while node is not None and node is not active:
            chain.append(node)
            node = node.parent
        if node is not active:
            # block jumped into a disjoint loop nest; unwind fully
            while loop_stack:
                self._pop_loop(loop_stack, cycles)
            chain = []
            node = innermost
            while node is not None:
                chain.append(node)
                node = node.parent
        for loop in reversed(chain):
            profile = self.profiles[loop.name]
            profile.invocations += 1
            depth = self._active_loop_depth.get(loop.name, 0)
            self._active_loop_depth[loop.name] = depth + 1
            loop_stack.append(_LoopActivation(loop, cycles, profile,
                                              accounting=depth == 0))
            self._push_scope(profile)

    def _pop_loop(self, loop_stack: List[_LoopActivation],
                  cycles: float) -> None:
        activation = loop_stack.pop()
        name = activation.loop.name
        self._active_loop_depth[name] = (
            self._active_loop_depth.get(name, 1) - 1)
        if activation.accounting:
            activation.profile.total_seconds += (
                (cycles - activation.start_cycles) / self.arch.clock_hz)
        self._pop_scope(activation.profile)


def profile_module(module: Module,
                   arch: TargetArch = ARM32,
                   stdin: bytes = b"",
                   files: Optional[Dict[str, bytes]] = None) -> ProfileData:
    """Run the program once on the mobile model and collect profiles."""
    observer = ProfilingObserver(module, arch)
    local = run_local(module, arch=arch, stdin=stdin, files=files,
                      observer=observer)
    return ProfileData(
        module_name=module.name,
        arch_name=arch.name,
        program_seconds=local.seconds,
        instructions=local.instructions,
        candidates=observer.profiles,
        output=local.output,
    )

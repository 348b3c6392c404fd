"""Hot function/loop profiler (paper, Section 3.1).

Runs the application once on the *mobile* machine model with a profiling
input, observing every function call, loop entry and memory access.  The
resulting :class:`ProfileData` drives the static performance estimator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..analysis.loops import Loop, LoopInfo
from ..ir.module import Module
from ..ir.values import BasicBlock, Function
from ..machine.interpreter import Observer
from ..machine.memory import DEFAULT_PAGE_SIZE
from ..runtime.local import run_local
from ..targets.arch import TargetArch
from ..targets.presets import ARM32
from .profile_data import CandidateProfile, ProfileData

PAGE_SHIFT = DEFAULT_PAGE_SIZE.bit_length() - 1


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

    A candidate's ``pages_touched`` is inclusive: every page accessed
    while one of its activations is live, callees included.  Activations
    nest, so they are kept as a *scope stack*: entering a function or a
    loop pushes an empty page set, an access adds its page(s) to the top
    set only, and leaving a scope unions its set into the candidate's
    ``pages_touched`` and into the enclosing scope.  Every scope is popped
    on the way out — ``exit_function`` also runs when ``exit()`` or an
    error unwinds the guest stack — so the sets are exactly what updating
    every live activation on every access would give, for one set
    operation per access whatever the call and loop depth.
    """

    def __init__(self, module: Module, arch: TargetArch):
        self.arch = arch
        self.profiles: Dict[str, CandidateProfile] = {}
        # Block -> the innermost loop containing it (blocks outside every
        # loop are absent).
        self._innermost: Dict[BasicBlock, Loop] = {}
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
        # One entry per live guest frame: its stack of active loops.
        self._frames: List[List[_LoopActivation]] = []
        self._fn_entry_cycles: Dict[str, List[float]] = {}
        self._active_fn_depth: Dict[str, int] = {}
        self._active_loop_depth: Dict[str, int] = {}
        # The scope stack: one page set per live function or loop
        # activation, innermost last.
        self._touch_scopes: List[Set[int]] = []

    def _pop_scope(self, profile: CandidateProfile) -> None:
        pages = self._touch_scopes.pop()
        profile.pages_touched |= pages
        if self._touch_scopes:
            self._touch_scopes[-1] |= pages

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
        self._touch_scopes.append(set())

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
        # The common case: still in the same loop, or outside every loop.
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
            self._touch_scopes.append(set())

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

    # -- memory events ----------------------------------------------------
    def memory_access(self, address: int, size: int, is_write: bool) -> None:
        scopes = self._touch_scopes
        if not scopes:
            return
        first = address >> PAGE_SHIFT
        last = (address + size - 1) >> PAGE_SHIFT
        if last <= first:  # one page; a zero-size access counts as one byte
            scopes[-1].add(first)
        else:
            scopes[-1].update(range(first, last + 1))


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

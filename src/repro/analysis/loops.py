"""Natural loop detection.

The paper's target selector considers both whole functions *and* loops as
offload candidates (e.g. ``main_for.cond`` in 183.equake / 470.lbm /
482.sphinx3, ``try_place_while.cond`` in 175.vpr).  Loops are identified by
their header block; a candidate loop is offloaded by outlining its body.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.values import BasicBlock, Function
from .cfg import CFG
from .dominators import DominatorTree


class Loop:
    """A natural loop: header plus body blocks."""

    def __init__(self, header: BasicBlock, blocks: Set[BasicBlock],
                 function: Function):
        self.header = header
        self.blocks = blocks
        self.function = function
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []

    @property
    def name(self) -> str:
        """Qualified name in the paper's style, e.g. ``main_for.cond``."""
        return f"{self.function.name}_{self.header.name}"

    @property
    def depth(self) -> int:
        depth, node = 0, self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    def exit_blocks(self) -> List[BasicBlock]:
        """Blocks outside the loop that are branched to from inside, in
        the function's block order: the outliner numbers exit edges by
        this list, and a set iterates in address order."""
        exits: List[BasicBlock] = []
        for block in self.function.blocks:
            if block not in self.blocks:
                continue
            for succ in block.successors():
                if succ not in self.blocks and succ not in exits:
                    exits.append(succ)
        return exits

    def __repr__(self) -> str:
        return f"<Loop {self.name} ({len(self.blocks)} blocks)>"


class LoopInfo:
    """All natural loops of a function, with nesting structure."""

    def __init__(self, fn: Function):
        self.function = fn
        self.cfg = CFG(fn)
        self.domtree = DominatorTree(self.cfg)
        self.loops: List[Loop] = []
        self._block_to_innermost: Dict[int, Loop] = {}
        self._find_loops()
        self._build_nesting()

    def _find_loops(self) -> None:
        # Back edge: tail -> header where header dominates tail.
        header_bodies: Dict[int, Set[BasicBlock]] = {}
        headers: Dict[int, BasicBlock] = {}
        for block in self.cfg.reachable_blocks():
            for succ in block.successors():
                if self.domtree.dominates(succ, block):
                    body = header_bodies.setdefault(id(succ), {succ})
                    headers[id(succ)] = succ
                    self._collect_body(succ, block, body)
        for hid, body in header_bodies.items():
            self.loops.append(Loop(headers[hid], body, self.function))
        # Deterministic order: by position of header in the function.
        position = {id(b): i for i, b in enumerate(self.function.blocks)}
        self.loops.sort(key=lambda lp: position.get(id(lp.header), 1 << 30))

    def _collect_body(self, header: BasicBlock, tail: BasicBlock,
                      body: Set[BasicBlock]) -> None:
        stack = [tail]
        while stack:
            block = stack.pop()
            if block in body:
                continue
            body.add(block)
            stack.extend(self.cfg.predecessors.get(block, []))

    def _build_nesting(self) -> None:
        # Innermost loop of each block = smallest containing loop.
        by_size = sorted(self.loops, key=lambda lp: len(lp.blocks))
        for loop in by_size:
            for block in loop.blocks:
                self._block_to_innermost.setdefault(id(block), loop)
        for loop in by_size:
            candidates = [other for other in self.loops
                          if other is not loop
                          and loop.header in other.blocks
                          and loop.blocks <= other.blocks]
            if candidates:
                loop.parent = min(candidates, key=lambda lp: len(lp.blocks))
                loop.parent.children.append(loop)

    def innermost_loop_of(self, block: BasicBlock) -> Optional[Loop]:
        return self._block_to_innermost.get(id(block))

    def top_level_loops(self) -> List[Loop]:
        return [lp for lp in self.loops if lp.parent is None]

"""Dominator tree computation (Cooper–Harvey–Kennedy iterative algorithm).

Dominators feed natural-loop detection, which the hot function/loop profiler
uses to attribute execution time to loops (paper, Section 3.1).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.values import BasicBlock
from .cfg import CFG


class DominatorTree:
    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self._compute()

    def _compute(self) -> None:
        rpo = self.cfg.reachable_blocks()
        index = {id(b): i for i, b in enumerate(rpo)}
        entry = self.cfg.entry
        idom: Dict[int, BasicBlock] = {id(entry): entry}

        def intersect(a: BasicBlock, b: BasicBlock) -> BasicBlock:
            while a is not b:
                while index[id(a)] > index[id(b)]:
                    a = idom[id(a)]
                while index[id(b)] > index[id(a)]:
                    b = idom[id(b)]
            return a

        changed = True
        while changed:
            changed = False
            for block in rpo[1:]:
                preds = [p for p in self.cfg.predecessors.get(block, [])
                         if id(p) in idom]
                if not preds:
                    continue
                new_idom = preds[0]
                for pred in preds[1:]:
                    new_idom = intersect(pred, new_idom)
                if idom.get(id(block)) is not new_idom:
                    idom[id(block)] = new_idom
                    changed = True

        for block in rpo:
            if block is entry:
                self.idom[block] = None
            else:
                self.idom[block] = idom.get(id(block))

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        node: Optional[BasicBlock] = b
        while node is not None:
            if node is a:
                return True
            node = self.idom.get(node)
        return False

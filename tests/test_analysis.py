"""Tests for CFG, dominators, natural loops and the call graph."""

import pytest

from repro.analysis import CFG, CallGraph, DominatorTree, LoopInfo
from repro.frontend import compile_c

NESTED_LOOPS = r"""
int work(int n) {
    int i, j, acc = 0;
    for (i = 0; i < n; i++) {
        for (j = 0; j < n; j++) {
            acc += i * j;
        }
    }
    while (acc > 100) acc /= 2;
    return acc;
}
int main() { printf("%d\n", work(10)); return 0; }
"""


class _ReversedSet(set):
    """A set that iterates its (insertion-ordered) members backwards."""

    def __init__(self, ordered):
        super().__init__(ordered)
        self._order = list(ordered)

    def __iter__(self):
        return reversed(self._order)


@pytest.fixture()
def work_fn():
    return compile_c(NESTED_LOOPS, "m").function("work")


class TestCFG:
    def test_entry_and_reachability(self, work_fn):
        cfg = CFG(work_fn)
        reachable = cfg.reachable_blocks()
        assert reachable[0] is work_fn.entry
        assert len(reachable) == len(work_fn.blocks)

    def test_predecessors_inverse_of_successors(self, work_fn):
        cfg = CFG(work_fn)
        for block in work_fn.blocks:
            for succ in cfg.successors[block]:
                assert block in cfg.predecessors[succ]

    def test_remove_unreachable(self):
        module = compile_c(
            "int f(void) { return 1; int dead = 2; return dead; }"
            "int main() { return f(); }", "m")
        fn = module.function("f")
        removed = CFG(fn).remove_unreachable_blocks()
        assert removed >= 1
        assert all(b in CFG(fn).reachable_blocks() for b in fn.blocks)


class TestDominators:
    def test_entry_dominates_everything(self, work_fn):
        cfg = CFG(work_fn)
        dom = DominatorTree(cfg)
        for block in cfg.reachable_blocks():
            assert dom.dominates(work_fn.entry, block)

    def test_dominance_is_reflexive(self, work_fn):
        dom = DominatorTree(CFG(work_fn))
        for block in work_fn.blocks:
            assert dom.dominates(block, block)

    def test_loop_header_dominates_body(self, work_fn):
        info = LoopInfo(work_fn)
        dom = info.domtree
        for loop in info.loops:
            for block in loop.blocks:
                assert dom.dominates(loop.header, block)


class TestLoops:
    def test_finds_all_three_loops(self, work_fn):
        info = LoopInfo(work_fn)
        assert len(info.loops) == 3

    def test_nesting(self, work_fn):
        info = LoopInfo(work_fn)
        by_depth = sorted(info.loops, key=lambda lp: lp.depth)
        assert by_depth[0].depth == 0
        inner = [lp for lp in info.loops if lp.depth == 1]
        assert len(inner) == 1
        assert inner[0].parent in info.top_level_loops()

    def test_loop_names_use_paper_style(self, work_fn):
        info = LoopInfo(work_fn)
        names = {lp.name for lp in info.loops}
        assert any(name.startswith("work_for.cond") for name in names)
        assert any(name.startswith("work_while.cond") for name in names)

    def test_exit_blocks_outside_loop(self, work_fn):
        info = LoopInfo(work_fn)
        for loop in info.loops:
            for exit_block in loop.exit_blocks():
                assert exit_block not in loop.blocks

    def test_exit_blocks_follow_function_order(self):
        """The outliner numbers exit edges by this list, so it must not
        depend on how the loop's block set happens to iterate (which
        follows object addresses, and made 482.sphinx3's outlined IR
        differ between two builds in one process)."""
        fn = compile_c(r"""
            int find(int *a, int n) {
                int i;
                for (i = 0; i < n; i++) {
                    if (a[i] == 7) { a[i] = 0; break; }
                    if (a[i] < 0) { a[i] = 1; break; }
                }
                return i;
            }
            int main() { int a[3]; return find(a, 3); }""",
                       "m").function("find")
        loop = LoopInfo(fn).loops[0]
        position = {id(b): i for i, b in enumerate(fn.blocks)}
        forward = loop.exit_blocks()
        assert len(forward) == 3
        loop.blocks = _ReversedSet(sorted(loop.blocks,
                                          key=lambda b: position[id(b)]))
        assert loop.exit_blocks() == forward
        assert forward == sorted(forward, key=lambda b: position[id(b)])

    def test_innermost_lookup(self, work_fn):
        info = LoopInfo(work_fn)
        inner = [lp for lp in info.loops if lp.depth == 1][0]
        assert info.innermost_loop_of(inner.header) is inner


class TestCallGraph:
    SRC = r"""
    typedef int (*FN)(int);
    int leaf(int x) { return x + 1; }
    int helper(int x) { return leaf(x) * 2; }
    FN indirect_target = leaf;
    int dispatch(int x) { return indirect_target(x); }
    int main() { return helper(1) + dispatch(2); }
    """

    def test_direct_edges(self):
        module = compile_c(self.SRC, "m")
        cg = CallGraph(module)
        assert "leaf" in cg.callees("helper")
        assert "helper" in cg.callers("leaf")

    def test_transitive(self):
        module = compile_c(self.SRC, "m")
        cg = CallGraph(module)
        assert "leaf" in cg.transitive_callees("main")

    def test_address_taken_via_global_initializer(self):
        module = compile_c(self.SRC, "m")
        cg = CallGraph(module)
        assert "leaf" in cg.address_taken

    def test_indirect_caller_links_to_address_taken(self):
        module = compile_c(self.SRC, "m")
        cg = CallGraph(module)
        assert "leaf" in cg.transitive_callees("dispatch")

    def test_reachable_from(self):
        module = compile_c(self.SRC, "m")
        cg = CallGraph(module)
        reach = cg.reachable_from(["helper"])
        assert reach == {"helper", "leaf"}

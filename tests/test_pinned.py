"""tools/pinned.py: the flat leaves, the exact diff, and one real group
of the manifest recomputed."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "pinned", REPO_ROOT / "tools" / "pinned.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pinned = _load_tool()


def test_flatten_names_every_leaf():
    tree = {"a": {"b": [1, {"c": "x"}], "d": None}, "warnings": [],
            "servers": {}}
    assert pinned.flatten(tree, "r") == {
        "r.a.b.0": 1, "r.a.b.1.c": "x", "r.a.d": None,
        "r.warnings": [], "r.servers": {}}


def test_every_difference_is_a_move():
    """No tolerance and no direction: a rounding difference, a 1 %
    improvement and an int that became a float all move."""
    old = {"sum": 0.1 + 0.2, "makespan_s": 1.0, "throughput": 100.0,
           "count": 3}
    new = {"sum": 0.3, "makespan_s": 0.99, "throughput": 101.0,
           "count": 3.0}
    assert pinned.diff(old, new) == [
        "count: 3 → 3.0",
        "makespan_s: 1.0 → 0.99",
        "sum: 0.30000000000000004 → 0.3",
        "throughput: 100.0 → 101.0",
    ]
    assert pinned.diff(old, dict(old)) == []


def test_added_and_removed_leaves_are_named():
    assert pinned.diff({"kept": 1, "gone": [2]}, {"kept": 1, "new": "x"}) \
        == ['gone: [2] → absent', 'new: absent → "x"']


def test_a_real_group_computes_equal_twice_and_as_committed():
    first = pinned.compile_leaves("chess")
    assert first["compile.chess.exit"] == 0
    assert len(first["compile.chess.mobile_ir.sha256"]) == 64
    assert pinned.diff(first, pinned.compile_leaves("chess")) == []
    committed = json.loads((REPO_ROOT / "PINNED.json").read_text(
        encoding="utf-8"))
    assert pinned.diff({leaf: committed.get(leaf) for leaf in first},
                       first) == []

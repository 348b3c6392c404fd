#!/usr/bin/env python3
"""Every pinned simulated number, recomputed and compared exactly.

    python tools/pinned.py

Every number this reproduction reports is deterministic simulation
output, so the one regression check is equality.  The tool takes no
arguments.  It recomputes every deterministic output into a flat,
sorted ``PINNED.json`` (one ``leaf: value`` per line, floats written
exactly), regenerates the five ``BENCH_*.json`` in place, prints each
moved, added or removed leaf as ``leaf: old → new`` and exits 1 if
anything moved.  Exit 0 means bit-identical.

``PINNED.json`` holds what no tier-1 golden pins:

* every ``list`` name through ``eval.runner.run_program`` on ideal, fast
  and slow: profile, local and session leaves exactly, plus a sha256 of
  each ``GuestOutput``, power trace and invocation list;
* the ``table`` and ``figure`` text, Table 4 and Figures 6-8 rendered
  from those same results;
* ``compile`` text and the sha256 of the printed mobile and server IR
  for every name;
* the JSONL of two traced runs, two fleets' summaries and merged JSONL,
  and CI's two seeded reports, ``warnings`` included.

The manifest is computed twice, in child processes under
``PYTHONHASHSEED`` 0 and 1, beside a third that reruns the five
``BENCH_*.json`` benchmarks; a leaf that differs between the hash seeds
fails the run by name.

To move a leaf on purpose: run the tool, commit ``PINNED.json`` and the
``BENCH_*.json`` it rewrote, and give a one-line reason per moved leaf
in CHANGES.md.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "PINNED.json"

BENCH_FILES = ("BENCH_fleet.json", "BENCH_parallel.json",
               "BENCH_policies.json", "BENCH_simspeed.json",
               "BENCH_uva.json")
#: The benchmark tests that write them.
BENCH_TESTS = ("benchmarks/test_fleet_scaling.py::test_fleet_scaling_sweep",
               "benchmarks/test_parallel_offload.py",
               "benchmarks/test_policy_comparison.py",
               "benchmarks/test_sim_speed.py",
               "benchmarks/test_bytes_on_wire.py")
HASH_SEEDS = ("0", "1")

#: The command lines whose output is pinned, by leaf label.
TABLES = ("1", "2", "3", "4", "5")
FIGURES = ("6a", "6b", "7", "8")
TRACES = {
    "chess": ["chess"],
    "164.gzip-faulty": ["164.gzip", "--drop-rate", "0.05", "--seed", "3"],
}
FLEETS = {
    "seed0": ["--seed", "0"],
    "seed7-poisson-faulty": ["--seed", "7", "--arrival", "poisson",
                             "--drop-rate", "0.3"],
}
#: CI's FLEET and FAULTY_FLEET (.github/workflows/ci.yml).
REPORTS = {
    "ci": ("--devices 6 --servers 2 --capacity 1 --queue-limit 4 "
           "--arrival uniform --spacing 0.002 --seed 7").split(),
    "ci-faulty": ("--workload parallel-micro --devices 6 --servers 4 "
                  "--shards 4 --drop-rate 0.3 --disconnect-after 3 "
                  "--reconnect-rate 0.5 --seed 7").split(),
}


# -- leaves ---------------------------------------------------------------
def flatten(node, prefix: str = "") -> Dict[str, object]:
    """A JSON tree as ``{dotted.path: scalar}``.  An empty dict or list
    is a leaf of its own, so a list that empties or fills still moves."""
    if isinstance(node, dict) and node:
        items = node.items()
    elif isinstance(node, list) and node:
        items = enumerate(node)
    else:
        return {prefix: node}
    out: Dict[str, object] = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def _exact(leaves: dict, leaf: str) -> str:
    return (json.dumps(leaves[leaf], ensure_ascii=False) if leaf in leaves
            else "absent")


def diff(old: dict, new: dict) -> List[str]:
    """``leaf: old → new`` for every leaf whose JSON text differs; an
    added leaf reads ``absent → new``, a removed one ``old → absent``."""
    return [f"{leaf}: {_exact(old, leaf)} → {_exact(new, leaf)}"
            for leaf in sorted(old.keys() | new.keys())
            if _exact(old, leaf) != _exact(new, leaf)]


def _plain(obj):
    """``json.dumps`` default: a dataclass as its fields, bytes as hex."""
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name)
                for f in dataclasses.fields(obj)}
    if isinstance(obj, bytes):
        return obj.hex()
    raise TypeError(f"cannot pin {type(obj).__name__}")


def sha256(obj) -> str:
    """Digest of ``obj``'s canonical JSON (floats exact)."""
    text = json.dumps(obj, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def record_leaves(record, prefix: str) -> Dict[str, object]:
    """A result dataclass: each scalar field exactly, a field holding a
    record of scalars (transport and UVA stats) one level down, and
    anything bigger (output, power trace, invocations) as its sha256."""
    leaves: Dict[str, object] = {}
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        key = f"{prefix}.{f.name}"
        if _is_scalar(value):
            leaves[key] = value
        elif dataclasses.is_dataclass(value) and all(
                _is_scalar(getattr(value, g.name))
                for g in dataclasses.fields(value)):
            leaves.update(record_leaves(value, key))
        else:
            leaves[f"{key}.sha256"] = sha256(value)
    return leaves


def _cli(argv: List[str]):
    """``python -m repro <argv>`` in process: (exit status, stdout)."""
    from repro.__main__ import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    return status, out.getvalue()


def _text_leaves(prefix: str, argv: List[str]) -> Dict[str, object]:
    """A command's exit status and each line of what it printed."""
    status, text = _cli(argv)
    leaves: Dict[str, object] = {f"{prefix}.exit": status}
    for number, line in enumerate(text.splitlines(), 1):
        leaves[f"{prefix}.{number:03d}"] = line
    return leaves


def run_leaves(result) -> Dict[str, object]:
    """One ``eval.runner.ProgramResult``: profile, local run and every
    session."""
    prefix = f"run.{result.name}"
    profile = result.profile
    leaves: Dict[str, object] = {
        f"{prefix}.outputs_match": result.outputs_match(),
        f"{prefix}.profile.program_seconds": profile.program_seconds,
        f"{prefix}.profile.instructions": profile.instructions,
    }
    for name, candidate in profile.candidates.items():
        key = f"{prefix}.profile.{name}"
        leaves[f"{key}.total_seconds"] = candidate.total_seconds
        leaves[f"{key}.invocations"] = candidate.invocations
        leaves[f"{key}.pages"] = len(candidate.pages_touched)
    leaves.update(record_leaves(result.local, f"{prefix}.local"))
    for label, session in result.sessions.items():
        leaves.update(record_leaves(session, f"{prefix}.{label}"))
    return leaves


def compile_leaves(name: str) -> Dict[str, object]:
    """``compile <name>`` text and the digest of the printed IR of a
    fresh build."""
    from repro.ir.printer import print_module
    from repro.workloads import workload
    program = workload(name).build().program
    leaves = _text_leaves(f"compile.{name}", ["compile", name])
    for side in ("mobile", "server"):
        text = print_module(getattr(program, f"{side}_module"))
        leaves[f"compile.{name}.{side}_ir.sha256"] = hashlib.sha256(
            text.encode()).hexdigest()
    return leaves


def manifest() -> Dict[str, object]:
    """Every leaf ``PINNED.json`` holds."""
    from repro.eval.runner import evaluate
    from repro.workloads import ALL_WORKLOADS, MICRO_WORKLOADS
    leaves: Dict[str, object] = {}
    for spec in ALL_WORKLOADS + MICRO_WORKLOADS:
        # evaluate() caches, so `table 4` and the figures below render
        # these same results.
        leaves.update(run_leaves(evaluate(spec.name)))
        leaves.update(compile_leaves(spec.name))
    for number in TABLES:
        leaves.update(_text_leaves(f"table.{number}", ["table", number]))
    for name in FIGURES:
        leaves.update(_text_leaves(f"figure.{name}", ["figure", name]))
    with tempfile.TemporaryDirectory() as tmp:
        jsonl = os.path.join(tmp, "t.jsonl")
        summary = os.path.join(tmp, "s.json")
        for label, argv in TRACES.items():
            status, _ = _cli(["trace", *argv, "--jsonl", jsonl])
            leaves[f"trace.{label}.exit"] = status
            leaves[f"trace.{label}.jsonl.sha256"] = _file_sha256(jsonl)
        for label, argv in FLEETS.items():
            status, _ = _cli(["fleet", *argv, "--json", summary,
                              "--jsonl", jsonl])
            leaves[f"fleet.{label}.exit"] = status
            leaves[f"fleet.{label}.jsonl.sha256"] = _file_sha256(jsonl)
            with open(summary, encoding="utf-8") as fh:
                leaves.update(flatten(json.load(fh),
                                      f"fleet.{label}.summary"))
        for label, argv in REPORTS.items():
            status, _ = _cli(["report", *argv, "--json", summary])
            leaves[f"report.{label}.exit"] = status
            with open(summary, encoding="utf-8") as fh:
                leaves.update(flatten(json.load(fh), f"report.{label}"))
    return leaves


def write_manifest(path: str) -> None:
    """The child-process entry point: the manifest, written to ``path``
    one leaf per line."""
    text = json.dumps(manifest(), indent=0, sort_keys=True,
                      ensure_ascii=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


# -- the run ----------------------------------------------------------------
def _load(path: Path):
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _bench_leaves() -> Dict[str, object]:
    leaves: Dict[str, object] = {}
    for name in BENCH_FILES:
        leaves.update(flatten(_load(ROOT / name), name))
    return leaves


def _child(args: List[str], hash_seed: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), str(ROOT / "tools")]))
    return subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)


def main() -> int:
    pinned_before = _load(MANIFEST) or {}
    bench_before = _bench_leaves()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"seed{seed}.json")
                 for seed in HASH_SEEDS]
        children = {
            f"manifest under PYTHONHASHSEED={seed}": _child(
                ["-c", "import sys, pinned; "
                 "pinned.write_manifest(sys.argv[1])", path], seed)
            for seed, path in zip(HASH_SEEDS, paths)}
        children["benchmarks"] = _child(
            ["-m", "pytest", "-q", "-p", "no:cacheprovider",
             *BENCH_TESTS], HASH_SEEDS[0])
        failed = []
        for label, child in children.items():
            output = child.communicate()[0]
            if child.returncode != 0:
                failed.append(label)
                print(f"pinned: {label} exited {child.returncode}:\n"
                      f"{output}")
        if any(label.startswith("manifest") for label in failed):
            return 1
        texts = [Path(p).read_text(encoding="utf-8") for p in paths]
    seeds = diff(*(json.loads(text) for text in texts))
    for line in seeds:
        print(f"hash seed {HASH_SEEDS[0]} vs {HASH_SEEDS[1]}: {line}")
    pinned = json.loads(texts[0])
    MANIFEST.write_text(texts[0], encoding="utf-8")
    bench = _bench_leaves()
    moved = diff(pinned_before, pinned) + diff(bench_before, bench)
    for line in moved:
        print(line)
    print(f"pinned: {len(pinned)} leaves in {MANIFEST.name}, "
          f"{len(bench)} in {len(BENCH_FILES)} BENCH_*.json; "
          f"{len(moved)} moved"
          + (f"; {len(seeds)} differ between hash seeds" if seeds else ""))
    return 1 if failed or seeds or moved else 0


if __name__ == "__main__":
    sys.exit(main())

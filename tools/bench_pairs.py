#!/usr/bin/env python3
"""Alternating parent/change runs of the host-time benchmark.

    python3 tools/bench_pairs.py <parent-ref> [--pairs 10] [--smoke]
                                 [--workload NAME ...]

Exports ``<parent-ref>`` into a temporary directory, then makes N pairs
of complete ``bench/run.py`` sets — the parent's committed files against
this checkout's, pair *i* on seed *i*, alternating which side goes first
— plus three traced pairs on seeds 0–2, alternating too, for the
per-layer seconds and counts.  It prints ``bench/run.py --compare`` for
both and, per workload and end-to-end metric, how many pairs the change
won, lost and tied beside each side's median and quartiles (the
choosing-metrics rule: a gain needs nine pairs in ten and a median
shift beyond the parent's inter-quartile distance).  Last, per
workload, it prints each per-layer ``_s`` metric as its median over the
traced pairs, parent → change, with each side's min–max and the counts
of its layer on seed 0: the trace shows which layer a saving sits in,
and one traced sample can swing by 20 %.  ``--workload NAME``
(repeatable) measures only the named workloads — a one-workload claim
then costs minutes, not the half hour of complete sets; everything
printed keeps its form.

Exit status 1 when a same-seed pair (traced or not) disagrees on a
simulated fingerprint or a count, or an op failed; 0 otherwise — timing
verdicts are for the reader.  ``--smoke`` shrinks every run (self-test
sizes, half a second) so CI can keep the tool working; its numbers mean
nothing.  Each side runs its own ``bench/``; nothing under ``bench/`` is
touched.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Traced pairs, on seeds 0, 1, 2: the per-layer seconds are their medians.
TRACED_PAIRS = 3


def export(ref: str, into: Path) -> None:
    """The committed files of ``ref``, as ``git archive`` gives them."""
    into.mkdir()
    git = subprocess.Popen(["git", "-C", str(ROOT), "archive", ref],
                           stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=git.stdout,
                   check=True)
    if git.wait():
        raise SystemExit(f"bench_pairs: cannot export {ref!r}")


_DETAIL = "#detail "     # bench/run.py's machine-readable detail line


def run_set(checkout: Path, out: Path, seed: int, trace: int,
            smoke: bool, workloads: list) -> None:
    """Append one set of results from ``checkout``'s benchmark to
    ``out``: the complete set ``bench/run.py --out`` makes, or — given
    ``workloads`` — the same record assembled from one
    ``bench/run.py --workload`` run per name."""
    command = [sys.executable, str(checkout / "bench" / "run.py"),
               "--seed", str(seed), "--trace", str(trace)]
    if smoke:
        command += ["--smoke", "--seconds", "0.5"]
    log_path = out.with_suffix(".log")
    with open(log_path, "a", encoding="utf-8") as log:
        # a failed op is recorded in the set; judged below
        if not workloads:
            subprocess.run(command + ["--out", str(out)], stdout=log,
                           stderr=subprocess.STDOUT)
        results = {}
        for workload in workloads:
            log.flush()
            lines = subprocess.run(
                command + ["--workload", workload], stdout=subprocess.PIPE,
                stderr=log, text=True).stdout.splitlines()
            log.write("\n".join(lines) + "\n")
            if not (len(lines) >= 2 and lines[-1].startswith("{")
                    and lines[-2].startswith(_DETAIL)):
                raise SystemExit(f"bench_pairs: no {workload} result from "
                                 f"{checkout}; see {log_path}")
            # what run.py's every-workload form stores per workload
            results[workload] = {**json.loads(lines[-1]),
                                 **json.loads(lines[-2][len(_DETAIL):])}
    if workloads:
        sets = json.loads(out.read_text()) if out.exists() else []
        out.write_text(json.dumps(sets + [results], indent=1,
                                  sort_keys=True) + "\n")
    if not out.exists():
        raise SystemExit(f"bench_pairs: no result from {checkout}; see "
                         f"{log_path}")


def spread(values: list) -> str:
    if len(values) < 2:
        return f"{statistics.median(values):10.4f}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):10.4f} [{q1:.4f}, {q3:.4f}]"


def wins_table(contract: dict, parent: list, change: list) -> None:
    print(f"\n{'workload':<17s}{'metric':<13s}{'won':>4s}{'lost':>5s}"
          f"{'tied':>5s}   parent median [q1, q3] -> change median [q1, q3]")
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            sign = 1.0 if metric["better"] == "higher" else -1.0
            old, new = ([s[workload]["metrics"][metric["name"]]["value"]
                         for s in sets if workload in s]
                        for sets in (parent, change))
            if not old or len(old) != len(new):
                continue
            gains = [sign * (b - a) for a, b in zip(old, new)]
            print(f"{workload:<17s}{metric['name']:<13s}"
                  f"{sum(g > 0 for g in gains):4d}"
                  f"{sum(g < 0 for g in gains):5d}"
                  f"{sum(g == 0 for g in gains):5d}   "
                  f"{spread(old)} -> {spread(new)}  "
                  f"({statistics.median(new) / statistics.median(old) - 1:+.1%})")


def layers_table(contract: dict, parent: list, change: list) -> None:
    """Each per-layer ``_s`` metric over the traced pairs, parent ->
    change, as the median with each side's min-max, and its layer's
    counts on the first traced pair beside it: where a saving sits."""
    per_layer = [m["name"] for m in contract["per_layer"]]
    print(f"\nper-layer seconds over {len(parent)} traced pairs, parent -> "
          "change: median [min-max], and each layer's counts on seed 0")
    for workload in (w["name"] for w in contract["workloads"]):
        if not all(workload in s for s in parent + change):
            continue
        old, new = ([s[workload]["metrics"] for s in sets]
                    for sets in (parent, change))
        print(workload)
        for layer in dict.fromkeys(name.split(".")[0] for name in per_layer):
            names = [name for name in per_layer
                     if name.split(".")[0] == layer and name in old[0]]
            values = {name: ([m[name]["value"] for m in old],
                             [m[name]["value"] for m in new])
                      for name in names}
            # a layer the workload does not run shows a few microseconds
            timed = [name for name in names if name.endswith("_s")
                     and max(map(max, values[name])) >= 5e-5]
            for name in timed:
                a, b = map(statistics.median, values[name])
                shift = f"({b / a - 1:+.1%})" if a else ""
                low_high = ["{:.4f}-{:.4f}".format(min(v), max(v))
                            for v in values[name]]
                print(f"  {name:<28s}{a:10.4f} [{low_high[0]}] -> "
                      f"{b:10.4f} [{low_high[1]}]  {shift}")
            counts = [f"{name.split('.', 1)[1]} {old[0][name]['value']} -> "
                      f"{new[0][name]['value']}" for name in names
                      if old[0][name]["unit"] == "count"]
            if timed and counts:
                print(f"    {', '.join(counts)}")


def drifted(parent: list, change: list) -> list:
    """What must be identical between same-seed sets and is not, and
    every failed op."""
    problems = []
    for index, (old, new) in enumerate(zip(parent, change)):
        for workload in sorted(set(old) | set(new)):
            a, b = old.get(workload), new.get(workload)
            if a is None or b is None:
                problems.append(f"pair {index}: {workload} has no result")
                continue
            for side, result in (("parent", a), ("change", b)):
                if result["failed"]:
                    problems.append(f"pair {index}: {workload}: "
                                    f"{result['failed']} failed op(s) on "
                                    f"the {side} side")
            for key in ("fingerprints", "counts"):
                if a.get(key) != b.get(key):
                    problems.append(f"pair {index}: {workload}: {key} differ")
    return problems


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", metavar="parent-ref")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test sizes; not for reported numbers")
    parser.add_argument("--workload", action="append", default=[],
                        choices=[w["name"] for w in contract["workloads"]],
                        help="measure only this workload (repeatable); "
                             "default: all of them")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    checkouts = {"parent": work / "parent", "change": ROOT}
    export(args.parent, checkouts["parent"])
    files = {(side, trace): work / f"{side}{'-traced' if trace else ''}.json"
             for side in checkouts for trace in (0, 1)}
    try:
        for pair in range(args.pairs + TRACED_PAIRS):
            # the last pairs are the traced ones, on seeds 0, 1, ...
            trace, seed = ((1, pair - args.pairs) if pair >= args.pairs
                           else (0, pair))
            order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                                "parent")
            print(f"pair {pair}: seed {seed}, "
                  f"{'traced' if trace else 'untraced'}, {order[0]} first",
                  flush=True)
            for side in order:
                run_set(checkouts[side], files[side, trace], seed, trace,
                        args.smoke, args.workload)
    finally:
        shutil.rmtree(checkouts["parent"])

    problems = []
    for trace in (0, 1):
        old, new = (json.loads(files[side, trace].read_text())
                    for side in ("parent", "change"))
        print(f"\n-- {'traced' if trace else 'untraced'} sets --", flush=True)
        subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                        "--compare", str(files["parent", trace]),
                        str(files["change", trace])])
        if trace:
            layers_table(contract, old, new)
        else:
            wins_table(contract, old, new)
        problems += drifted(old, new)
    print(f"\nsets and logs: {work}")
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Host-time benchmark of the Native Offloader reproduction.

    python3 bench/run.py --seed 0                 # every workload, untraced
    python3 bench/run.py --seed 0 --trace 1       # every workload, traced
    python3 bench/run.py --workload fleet-shared --seed 0 --seconds 13 \\
                         --trace 0                # one workload (the driver's form)
    python3 bench/run.py --seed 0 --out A.json    # append this set to A.json
    python3 bench/run.py --compare A.json B.json  # B against A, per bound

One workload runs in this process; "every workload" starts one fresh
child per workload, one after another, so peak memory and import state
are per workload and never more than one process is busy.  The last line
a single-workload run prints is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Names, units
and regression bounds come from BENCHMARK.json; bench/README.md explains
every metric.
"""

import time

_PROCESS_START = time.perf_counter()    # set-up time counts from here

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import harness                          # stdlib only; repro comes later
from harness import clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
_DETAIL = "#detail "


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- one workload, in this process ---------------------------------------------
def run_one(args, contract: dict) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # -- measure ---------------------------------------------------------------
    with harness.SpeedSampler() as sampler:
        import workloads
        if args.trace:
            import tracing
        import_s = sampler.calibrated(_PROCESS_START, clock())

        # Set-up several times over (a fresh workload each time), so that
        # setup_s is a median like every other time.
        repeats = 1 if args.trace or args.smoke else SETUP_REPEATS
        setups = []
        for _ in range(repeats):
            workload = workloads.WORKLOADS[args.workload](args.seed,
                                                          args.smoke)
            setups.append(harness.timed(workload.set_up, sampler))
        ops = workload.ops()

        # A traced run alternates an untraced and a traced round, so the
        # two walls that make bench.trace_overhead_ratio are neighbours.
        rounds, traced_rounds, layers = [], [], []
        began = clock()
        while harness.more_rounds(len(rounds), clock() - began, args.seconds,
                                  1 if args.trace else harness.MIN_ROUNDS):
            rounds.append([harness.run_op(op, sampler) for op in ops])
            if args.trace:
                recorder = tracing.Recorder()
                traced_rounds.append(recorder.run_round(ops, sampler))
                layers.append(tracing.layer_metrics(recorder,
                                                    traced_rounds[-1]))
        if args.trace:
            probes = [tracing.memory_probe(
                args.seed, lambda fn: harness.timed(fn, sampler))
                for _ in range(3)]
    peak_rss = harness.peak_rss_mib()

    # -- judge every op ----------------------------------------------------------
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}"
          f"{'  SMOKE (not for reported numbers)' if args.smoke else ''}")
    attempted = failed = work = 0
    wall_s = raw_wall_s = traced_wall_s = 0.0
    fingerprints = {}
    for index, op in enumerate(ops):
        untraced = [r[index] for r in rounds]
        traced = [r[index] for r in traced_rounds]
        samples = untraced + traced
        attempted += len(samples)
        problems = [p for s in samples for p in s.outcome.problems]
        failed += sum(1 for s in samples if s.outcome.problems)
        drift = harness.fingerprint_drift(samples)
        if drift:
            problems.append(drift)
            failed += 1
        good = [s for s in untraced if not s.outcome.problems]
        cal = [s.cal_s for s in good]
        wall_s += harness.median(cal)
        raw_wall_s += harness.median([s.raw_s for s in good])
        traced_wall_s += harness.median(
            [s.cal_s for s in traced if not s.outcome.problems])
        if good:
            work += good[0].outcome.work
            fingerprints[op.name] = good[0].outcome.fingerprint
        print(f"  op {op.name:<16s} median {harness.median(cal):8.4f} s  "
              f"min {min(cal, default=0.0):.4f}  "
              f"max {max(cal, default=0.0):.4f}  n={len(cal)}  "
              f"work {good[0].outcome.work if good else 0}")
        print(f"     fingerprint {json.dumps(fingerprints.get(op.name))}")
        for problem in problems:
            print(f"     FAILED: {problem}")

    # -- the metrics of this mode ----------------------------------------------------
    detail = {"workload": args.workload, "seed": args.seed,
              "smoke": args.smoke, "rounds": len(rounds),
              "fingerprints": fingerprints}
    if args.trace:
        wanted = contract["per_layer"]
        metrics = tracing.median_of(layers)
        metrics.update(tracing.median_of(probes))
        metrics["memory.probe_ops"] = tracing.PROBE_ACCESSES
        metrics["bench.trace_overhead_ratio"] = (
            traced_wall_s / wall_s if wall_s else 0.0)
        for name in tracing.COUNT_METRICS:
            metrics[name] = layers[-1][name]            # ints stay ints
            if len({layer[name] for layer in layers}) > 1:
                print(f"  FAILED: count {name} differs between traced "
                      f"rounds: {[layer[name] for layer in layers]}")
                failed += 1
        trace_path = workloads.OUT_DIR / f"trace-{args.workload}.json"
        recorder.write(str(trace_path))
        print(f"  spans of the last traced round: {trace_path}")
        top_level = recorder.top_level_seconds()
        detail["traced_ops"] = [
            {"op": op.name, "raw_s": sample.raw_s,
             "top_level_s": top_level.get(i, 0.0)}
            for i, (op, sample) in enumerate(zip(ops, traced_rounds[-1]))]
        detail["counts"] = {name: metrics[name]
                            for name in tracing.COUNT_METRICS}
    else:
        wanted = contract["end_to_end"]
        metrics = {"wall_s": wall_s,
                   "guest_mips": work / wall_s / 1e6 if wall_s else 0.0,
                   "peak_rss_mb": peak_rss,
                   "setup_s": import_s + statistics.median(setups)}
        print(f"  raw_wall_s    {raw_wall_s:12.4f} s   (uncalibrated, "
              f"information only)")
    if {m["name"] for m in wanted} != set(metrics):
        raise SystemExit(
            "bench: BENCHMARK.json and the measured metrics disagree: "
            f"{sorted({m['name'] for m in wanted} ^ set(metrics))}")
    for m in wanted:
        n = {"setup_s": f"n={repeats}", "peak_rss_mb": ""}.get(
            m["name"], f"n={len(rounds)}")
        value = metrics[m["name"]]
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.4f}"
        print(f"  {m['name']:<30s} {shown} {m['unit']:<10s} {n}")
    print(f"  fail_rate {failed}/{attempted} failed ops / attempted ops")
    print(_DETAIL + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted}}))
    return 0 if failed == 0 else 1


# -- every workload, one child each ------------------------------------------------
def run_all(args, contract: dict) -> int:
    results = {}
    status = 0
    for workload in (w["name"] for w in contract["workloads"]):
        command = [sys.executable, str(BENCH_DIR / "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            if not line.startswith(_DETAIL):
                print(line)
        status = status or child.returncode
        if not lines or not lines[-1].startswith("{"):
            print(f"workload {workload}: no result (exit "
                  f"{child.returncode})")
            status = status or 1
            continue
        result = json.loads(lines[-1])
        result.update(json.loads(lines[-2][len(_DETAIL):]))
        results[workload] = result
    if args.out:
        path = Path(args.out)
        sets = json.loads(path.read_text()) if path.exists() else []
        sets.append(results)
        path.write_text(json.dumps(sets, indent=1, sort_keys=True) + "\n")
        print(f"appended this set to {path} ({len(sets)} set(s))")
    return status


# -- compare two files of sets ---------------------------------------------------------
def compare(baseline_path: str, current_path: str, contract: dict) -> int:
    """Per workload x end-to-end metric: both medians, the relative
    difference, and the verdict against the bound in BENCHMARK.json.
    ``unresolved`` = the run-to-run spread of either side exceeds the
    bound (unless every current run beats every baseline run)."""
    spread = harness.spread
    baseline = json.loads(Path(baseline_path).read_text())
    current = json.loads(Path(current_path).read_text())
    worst = 0
    print(f"{'workload':<17s}{'metric':<13s}{'baseline':>12s}"
          f"{'current':>12s}{'diff':>9s}{'spread':>9s}{'bound':>7s}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        for m in contract["end_to_end"]:
            def values(sets):       # traced sets carry no end-to-end metric
                return [s[workload]["metrics"][m["name"]]["value"]
                        for s in sets if workload in s
                        and m["name"] in s[workload]["metrics"]]
            old, new = values(baseline), values(current)
            if not old or not new:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            a, b = statistics.median(old), statistics.median(new)
            worse = sign * (b - a) / a
            noise = max(spread(old), spread(new))
            all_better = all(sign * (y - x) < 0 for x in old for y in new)
            if worse > m["bound"]:
                verdict, worst = "regressed", max(worst, 2)
            elif noise > m["bound"] and not all_better:
                verdict, worst = "unresolved", max(worst, 1)
            else:
                verdict = "ok"
            print(f"{workload:<17s}{m['name']:<13s}{a:12.4f}{b:12.4f}"
                  f"{worse * sign:+9.1%}{noise:9.1%}{m['bound']:7.0%}  "
                  f"{verdict}")
        failed = sum(s[workload]["failed"] for s in current if workload in s)
        print(f"{workload:<17s}{'fail_rate':<13s}{failed} failed op(s) in "
              f"the current sets")
        worst = max(worst, 2 if failed else 0)
        # simulated drift: fingerprints (and counts, in traced sets) of
        # sets that share a seed must be identical
        for key in ("fingerprints", "counts"):
            pairs = [(x[workload], y[workload])
                     for x in baseline for y in current
                     if workload in x and workload in y
                     and x[workload]["seed"] == y[workload]["seed"]
                     and key in x[workload] and key in y[workload]]
            if pairs:
                same = all(x[key] == y[key] for x, y in pairs)
                print(f"{workload:<17s}{key:<13s}"
                      f"{'identical' if same else 'DIFFERENT'} over "
                      f"{len(pairs)} same-seed pair(s)")
                worst = max(worst, 0 if same else 2)
    return {0: 0, 1: 3, 2: 1}[worst]


def main() -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="length of the measured region of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken sizes, for the self-test only")
    parser.add_argument("--out", help="append the set of results to this "
                                      "file (every-workload form)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(args.compare[0], args.compare[1], contract)
    if args.workload is None:
        return run_all(args, contract)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark (run explicitly: ``python -m pytest bench/``;
tier-1 ``testpaths`` stays ``tests``).  Everything runs under ``--smoke``
sizes, which are for this test only and never for reported numbers.
"""

import argparse
import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def smoke_run(workload: str, trace: int) -> dict:
    """One ``--smoke`` run in a child: its text, result line and detail."""
    child = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace),
         "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=170)
    lines = child.stdout.splitlines()
    return {"exit": child.returncode, "text": child.stdout,
            "result": json.loads(lines[-1]),
            "detail": json.loads(lines[-2][len("#detail "):])}


@pytest.fixture(scope="module")
def runs():
    """untraced, traced and a second traced run of every workload."""
    return {(w, kind): smoke_run(w, trace)
            for w in WORKLOADS
            for kind, trace in (("untraced", 0), ("traced", 1),
                                ("traced-again", 1))}


def test_names_are_well_formed():
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in CONTRACT[key]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("kind,key", [("untraced", "end_to_end"),
                                      ("traced", "per_layer")])
def test_every_metric_is_printed_with_its_unit(runs, kind, key):
    for workload in WORKLOADS:
        run = runs[workload, kind]
        assert run["exit"] == 0, run["text"]
        result = run["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert f"workload {workload} " in run["text"]
        assert ({m["name"]: m["unit"] for m in CONTRACT[key]}
                == {n: v["unit"] for n, v in result["metrics"].items()})
        for m in CONTRACT[key]:
            assert re.search(rf"^\s+{re.escape(m['name'])}\s+[-0-9.]+ "
                             rf"{re.escape(m['unit'])}\s", run["text"],
                             re.M), m["name"]
    if key == "end_to_end":
        assert all(v["value"] > 0 for w in WORKLOADS
                   for v in runs[w, kind]["result"]["metrics"].values())


def test_top_level_spans_cover_each_traced_op(runs):
    for workload in WORKLOADS:
        for op in runs[workload, "traced"]["detail"]["traced_ops"]:
            assert op["top_level_s"] == pytest.approx(op["raw_s"], rel=0.05), \
                (workload, op)
        spans = json.loads(
            (BENCH_DIR / "out" / f"trace-{workload}.json").read_text())
        assert spans["fields"] == ["name", "start", "end", "parent", "op"]
        assert spans["spans"]


def test_counts_and_fingerprints_repeat_exactly(runs):
    for workload in WORKLOADS:
        first = runs[workload, "traced"]["detail"]
        again = runs[workload, "traced-again"]["detail"]
        assert first["counts"] == again["counts"]
        assert first["fingerprints"] == again["fingerprints"]
        assert (first["fingerprints"]
                == runs[workload, "untraced"]["detail"]["fingerprints"])


def test_layers_separate_by_workload(runs):
    def metric(workload, name):
        return runs[workload, "traced"]["result"]["metrics"][name]["value"]
    assert metric("report-jsonl", "interpreter.guest_instructions") == 0
    # a layer never entered reads the tracer's empty-span floor, not more
    assert metric("report-jsonl", "replay.run_segment_s") < 1e-4
    assert metric("report-jsonl", "trace.events") > 0
    assert metric("single-native", "scheduler.events_popped") == 0
    assert metric("single-crossarch", "interpreter.endian_swaps") > 0
    assert metric("fleet-shared", "replay.reuse_ratio") > 0.9
    assert metric("fleet-contended", "replay.session_runs") > 8 + 8 + 6
    assert metric("fleet-contended", "session.aborted") >= 1
    assert metric("fleet-contended", "pool.gang_shard_admissions") >= 2


def test_injected_stdout_mismatch_raises_fail_rate(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import run
    import workloads

    class WrongOracle(workloads.FleetShared):
        def set_up(self):
            super().set_up()
            self.fleet.kernel.oracle_stdout += "not what the kernel prints"

    monkeypatch.setitem(workloads.WORKLOADS, "fleet-shared", WrongOracle)
    args = argparse.Namespace(workload="fleet-shared", seed=0, seconds=0.5,
                              trace=0, smoke=True)
    out = io.StringIO()
    with redirect_stdout(out):
        status = run.run_one(args, CONTRACT)
    result = json.loads(out.getvalue().splitlines()[-1])
    assert status != 0 and not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert "differ from the oracle" in out.getvalue()
    assert set(result["metrics"]) == {m["name"]
                                      for m in CONTRACT["end_to_end"]}

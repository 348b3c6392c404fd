"""Report tests: deterministic JSON, the baseline regression gate, the
bench diff, dropped-event surfacing, and the HTML renderer
(ISSUE 5 acceptance criteria)."""

import copy
import json

import pytest

from repro.__main__ import main
from repro.runtime import FAST_WIFI, OffloadSession, SessionOptions
from repro.trace import write_jsonl
from repro.trace.analysis import (GATED_METRICS, SCHEMA, build_report,
                                  diff_bench, diff_reports, render_html,
                                  report_to_json)

from conftest import HOT_KERNEL_SRC, HOT_KERNEL_STDIN, offload_c

TRACED = SessionOptions(enable_tracing=True)


@pytest.fixture(scope="module")
def traced_pair():
    """Two independent same-input traced runs of the hot kernel."""
    _, first, program = offload_c(HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN,
                                  session_options=TRACED)
    second = OffloadSession(program, FAST_WIFI, options=TRACED,
                            stdin=HOT_KERNEL_STDIN).run()
    return first, second


@pytest.fixture(scope="module")
def report(traced_pair):
    first, _ = traced_pair
    return build_report(first.trace.events(), source={"kind": "test"})


class TestBuildReport:
    def test_schema_and_shape(self, report):
        assert report["schema"] == SCHEMA
        assert set(report) == {"schema", "source", "events",
                               "dropped_events", "warnings", "fleet",
                               "findings"}
        fleet = report["fleet"]
        assert fleet["sessions"] == 1
        assert fleet["invocations"]["total"] >= 1
        assert report["events"] > 0
        assert report["warnings"] == []

    def test_same_seed_runs_serialize_byte_identically(self, traced_pair):
        first, second = traced_pair
        a = report_to_json(build_report(first.trace.events(),
                                        source={"kind": "test"}))
        b = report_to_json(build_report(second.trace.events(),
                                        source={"kind": "test"}))
        assert a == b
        assert a.endswith("\n")

    def test_dropped_events_surface_as_a_warning(self, traced_pair):
        first, _ = traced_pair
        r = build_report(first.trace.events(), dropped=5)
        assert r["dropped_events"] == 5
        assert any("dropped 5 events" in w for w in r["warnings"])

    def test_gated_metrics_exist_in_the_report(self, report):
        for path, _ in GATED_METRICS:
            node = report
            for part in path.split("."):
                assert part in node, f"gated metric {path} missing"
                node = node[part]
            assert isinstance(node, (int, float))


class TestDiffReports:
    def test_self_diff_is_clean(self, report):
        assert diff_reports(report, report) == []

    def test_injected_latency_regression_is_caught(self, report):
        worse = copy.deepcopy(report)
        dist = worse["fleet"]["distributions"]["invocation_seconds"]
        for key in ("mean", "p50", "p95", "p99"):
            dist[key] *= 1.2           # ≥10% latency regression
        regressions = diff_reports(report, worse, tolerance=0.10)
        metrics = {r["metric"] for r in regressions}
        assert ("fleet.distributions.invocation_seconds.p95"
                in metrics)
        assert all(r["delta"] > 0 for r in regressions)

    def test_within_tolerance_passes(self, report):
        slightly = copy.deepcopy(report)
        dist = slightly["fleet"]["distributions"]["invocation_seconds"]
        for key in ("mean", "p50", "p95", "p99"):
            dist[key] *= 1.05          # below the 10% tolerance
        assert diff_reports(report, slightly, tolerance=0.10) == []

    def test_improvement_never_regresses(self, report):
        better = copy.deepcopy(report)
        dist = better["fleet"]["distributions"]["invocation_seconds"]
        for key in ("mean", "p50", "p95", "p99"):
            dist[key] *= 0.5
        assert diff_reports(report, better) == []

    def test_ratio_metrics_compare_absolutely(self, report):
        worse = copy.deepcopy(report)
        worse["fleet"]["decline_rate"] = \
            report["fleet"]["decline_rate"] + 0.2
        regressions = diff_reports(report, worse, tolerance=0.10)
        assert any(r["metric"] == "fleet.decline_rate"
                   and r["kind"] == "abs" for r in regressions)
        # +5 percentage points is inside a 10-point tolerance
        mild = copy.deepcopy(report)
        mild["fleet"]["decline_rate"] = \
            report["fleet"]["decline_rate"] + 0.05
        assert diff_reports(report, mild, tolerance=0.10) == []


class TestDiffBench:
    BASE = {"makespan_s": 1.0, "queue": {"mean_delay_s": 0.02},
            "throughput_invocations_per_s": 100.0,
            "servers": 4, "note_count": 7}

    def test_self_diff_is_clean(self):
        assert diff_bench(self.BASE, self.BASE) == []

    def test_lower_is_better_regression(self):
        cur = copy.deepcopy(self.BASE)
        cur["makespan_s"] = 1.3
        regs = diff_bench(self.BASE, cur)
        assert [r["metric"] for r in regs] == ["makespan_s"]

    def test_nested_keys_are_walked(self):
        cur = copy.deepcopy(self.BASE)
        cur["queue"]["mean_delay_s"] = 0.05
        regs = diff_bench(self.BASE, cur)
        assert [r["metric"] for r in regs] == ["queue.mean_delay_s"]

    def test_higher_is_better_direction(self):
        cur = copy.deepcopy(self.BASE)
        cur["throughput_invocations_per_s"] = 50.0     # halved: worse
        regs = diff_bench(self.BASE, cur)
        assert [r["metric"] for r in regs] == \
            ["throughput_invocations_per_s"]
        cur["throughput_invocations_per_s"] = 200.0    # doubled: fine
        assert diff_bench(self.BASE, cur) == []

    def test_unoriented_leaves_never_gate(self):
        cur = copy.deepcopy(self.BASE)
        cur["servers"] = 400
        cur["note_count"] = 0
        assert diff_bench(self.BASE, cur) == []

    def test_repo_bench_files_self_diff_clean(self):
        import pathlib
        for path in sorted(pathlib.Path(".").glob("BENCH_*.json")):
            with open(path) as fh:
                bench = json.load(fh)
            assert diff_bench(bench, bench) == [], path


class TestRenderHtml:
    def test_deterministic_and_self_contained(self, report):
        a = render_html(report)
        assert a == render_html(report)
        assert a.startswith("<!DOCTYPE html>")
        assert "http" not in a          # no external assets
        for section in ("Invocations", "Distributions", "Critical path",
                        "SLO findings"):
            assert f"<h2>{section}</h2>" in a

    def test_warnings_render(self, traced_pair):
        first, _ = traced_pair
        r = build_report(first.trace.events(), dropped=2)
        assert "dropped 2 events" in render_html(r)


class TestReportCLI:
    def _write_report(self, traced_pair, path, dropped=0):
        first, _ = traced_pair
        report = build_report(first.trace.events(),
                              source={"kind": "test"}, dropped=dropped)
        with open(path, "w") as fh:
            fh.write(report_to_json(report))
        return report

    def test_from_jsonl_roundtrip_with_dropped_warning(
            self, traced_pair, tmp_path, capsys):
        first, _ = traced_pair
        jsonl = tmp_path / "trace.jsonl"
        out = tmp_path / "report.json"
        write_jsonl(first.trace.events(), str(jsonl), dropped=3)
        rc = main(["report", "--from-jsonl", str(jsonl),
                   "--json", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "dropped 3 events" in captured.err
        report = json.loads(out.read_text())
        assert report["dropped_events"] == 3
        assert report["source"] == {"kind": "jsonl", "path": str(jsonl)}

    def test_from_jsonl_is_deterministic(self, traced_pair, tmp_path,
                                         capsys):
        first, _ = traced_pair
        jsonl = tmp_path / "trace.jsonl"
        write_jsonl(first.trace.events(), str(jsonl))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["report", "--from-jsonl", str(jsonl),
                     "--json", str(a)]) == 0
        assert main(["report", "--from-jsonl", str(jsonl),
                     "--json", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_baseline_gate_passes_on_identical_reports(
            self, traced_pair, tmp_path, capsys):
        base = tmp_path / "base.json"
        self._write_report(traced_pair, base)
        rc = main(["report", "--baseline", str(base),
                   "--current", str(base)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "baseline gate: ok" in captured.out

    def test_baseline_gate_fails_on_injected_latency_regression(
            self, traced_pair, tmp_path, capsys):
        """The acceptance criterion: ``report --baseline`` exits
        non-zero on an injected ≥10% latency regression."""
        base = tmp_path / "base.json"
        report = self._write_report(traced_pair, base)
        worse = copy.deepcopy(report)
        dist = worse["fleet"]["distributions"]["invocation_seconds"]
        for key in ("mean", "p50", "p95", "p99"):
            dist[key] *= 1.15
        cur = tmp_path / "cur.json"
        with open(cur, "w") as fh:
            fh.write(report_to_json(worse))
        rc = main(["report", "--baseline", str(base),
                   "--current", str(cur)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "REGRESSION" in captured.err
        assert "invocation_seconds" in captured.err

    def test_current_without_baseline_is_an_error(self, tmp_path,
                                                  capsys):
        rc = main(["report", "--current", "whatever.json"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "--current requires --baseline" in captured.err

    @pytest.mark.parametrize("content", [
        None,                       # no such file
        "{not json",
        "[1, 2]",                   # JSON, but not a report
    ], ids=["missing", "malformed", "not-an-object"])
    @pytest.mark.parametrize("line", [
        "--baseline {bad} --current {good}",
        "--baseline {good} --current {bad}",
        "--baseline {bad} --from-jsonl {jsonl}",
        "--baseline {good} --current {good} --bench {good} {bad}",
        "--from-jsonl {jsonl} --bench {bad} {good}",
    ])
    def test_unreadable_json_input_is_a_one_line_error(
            self, line, content, traced_pair, tmp_path, capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        self._write_report(traced_pair, good)
        if content is not None:
            bad.write_text(content)
        jsonl = tmp_path / "trace.jsonl"
        write_jsonl(traced_pair[0].trace.events(), str(jsonl))
        rc = main(["report"] + line.format(
            good=good, bad=bad, jsonl=jsonl).split())
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert str(bad) in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("content", [
        None,
        "{not json\n",
        '{"t": 0.0}\n',              # JSON, but not a trace event
        "[1, 2]\n",
    ], ids=["missing", "malformed", "missing-keys", "not-an-object"])
    def test_unreadable_jsonl_input_is_a_one_line_error(
            self, content, tmp_path, capsys):
        jsonl = tmp_path / "trace.jsonl"
        if content is not None:
            jsonl.write_text("# repro-trace v1 events=1 dropped=0\n"
                             + content)
        rc = main(["report", "--from-jsonl", str(jsonl)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert len(captured.err.splitlines()) == 1
        if content is not None:
            assert "line 2 is not a trace event" in captured.err

    @pytest.mark.parametrize("flag", ["--json", "--html"])
    def test_unwritable_report_output_is_a_one_line_error(
            self, flag, traced_pair, tmp_path, capsys):
        jsonl = tmp_path / "trace.jsonl"
        write_jsonl(traced_pair[0].trace.events(), str(jsonl))
        path = tmp_path / "no-such-dir" / "report.out"
        rc = main(["report", "--from-jsonl", str(jsonl),
                   "--json", str(tmp_path / "r.json"), flag, str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("repro: error: ") and str(path) in err
        assert len(err.splitlines()) == 1

    def test_bench_pairs_gate(self, traced_pair, tmp_path, capsys):
        base = tmp_path / "base.json"
        self._write_report(traced_pair, base)
        old = tmp_path / "bench_old.json"
        new = tmp_path / "bench_new.json"
        old.write_text(json.dumps({"makespan_s": 1.0}))
        new.write_text(json.dumps({"makespan_s": 2.0}))
        rc = main(["report", "--baseline", str(base),
                   "--current", str(base),
                   "--bench", str(old), str(new)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "makespan_s" in captured.err
        rc = main(["report", "--baseline", str(base),
                   "--current", str(base),
                   "--bench", str(old), str(old)])
        capsys.readouterr()
        assert rc == 0

    def test_html_artifact(self, traced_pair, tmp_path, capsys):
        first, _ = traced_pair
        jsonl = tmp_path / "trace.jsonl"
        write_jsonl(first.trace.events(), str(jsonl))
        html = tmp_path / "report.html"
        rc = main(["report", "--from-jsonl", str(jsonl),
                   "--json", str(tmp_path / "r.json"),
                   "--html", str(html)])
        capsys.readouterr()
        assert rc == 0
        text = html.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "repro trace report" in text

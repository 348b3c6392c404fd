"""Report tests: deterministic JSON, dropped-event surfacing, the CLI
and the HTML renderer."""

import json

import pytest

from repro.__main__ import main
from repro.runtime import FAST_WIFI, OffloadSession, SessionOptions
from repro.trace import write_jsonl
from repro.trace.analysis import (SCHEMA, build_report, render_html,
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

"""Tests for the workload suite: every program compiles, runs, and keeps
the structural properties its Table 4 row documents."""

import pytest

from repro.ir.printer import print_module
from repro.runtime import run_local
from repro.workloads import (ALL_WORKLOADS, CHESS, MICRO_WORKLOADS,
                             SPEC_WORKLOADS, WORKLOADS, chess_stdin,
                             spec_names, workload)

ALL_NAMES = [w.name for w in ALL_WORKLOADS]


class TestRegistry:
    def test_seventeen_spec_programs(self):
        assert len(SPEC_WORKLOADS) == 17
        assert len(spec_names()) == 17

    def test_paper_order(self):
        assert spec_names()[0] == "164.gzip"
        assert spec_names()[-1] == "482.sphinx3"

    def test_lookup(self):
        assert workload("458.sjeng").name == "458.sjeng"
        with pytest.raises(KeyError):
            workload("999.nothing")

    def test_chess_included(self):
        assert "chess" in WORKLOADS

    def test_paper_rows_populated(self):
        for spec in SPEC_WORKLOADS:
            assert spec.paper.target
            assert spec.paper.coverage_pct > 0


@pytest.mark.parametrize("name", ALL_NAMES)
def test_workload_compiles(name):
    module = workload(name).module()
    assert module.get_function("main") is not None


@pytest.mark.parametrize("name", ALL_NAMES + [w.name for w in
                                              MICRO_WORKLOADS])
def test_workload_runs_on_profile_input(name):
    spec = workload(name)
    module = spec.module()
    result = run_local(module, stdin=spec.profile_stdin,
                       files=spec.profile_files)
    assert result.exit_code == 0
    assert result.stdout  # every program reports something
    # A clone of a module that has run is the same IR, without the
    # decoded templates the run left on the module.
    assert module.templates
    clone = module.clone()
    assert print_module(clone) == print_module(module)
    assert clone.templates == {}


@pytest.mark.parametrize("name", ["164.gzip", "456.hmmer", "458.sjeng",
                                  "183.equake", "445.gobmk"])
def test_selected_target_matches_paper_shape(name):
    """The compiler's chosen target corresponds to the paper's Table 4
    target for representative programs."""
    targets = workload(name).build().program.target_names()
    expectations = {
        "164.gzip": "spec_compress",
        "456.hmmer": "main_loop_serial",
        "458.sjeng": "think",
        "183.equake": "main_for",      # outlined main loop
        "445.gobmk": "gtp_main_loop",
    }
    assert any(t.startswith(expectations[name]) for t in targets), \
        f"{name}: {targets}"


def test_module_caching_returns_fresh_clones():
    spec = workload("456.hmmer")
    a = spec.module()
    b = spec.module()
    assert a is not b
    a.remove_function("main")
    assert b.get_function("main") is not None


def test_chess_stdin_builder():
    stdin = chess_stdin(depth=3, turns=2)
    lines = stdin.decode().strip().split("\n")
    assert lines[0] == "3 2"
    assert len(lines) == 3


def test_loc_counts_reasonable():
    for spec in ALL_WORKLOADS:
        assert 30 < spec.loc < 400, spec.name


class TestAndroidSurvey:
    def test_twenty_apps(self):
        from repro.workloads import TOP20_APPS
        assert len(TOP20_APPS) == 20

    def test_survey_summary_matches_paper_claim(self):
        # "around one third of the 20 applications include native codes
        # more than 50% and spend more than 20% of the total execution
        # time to execute them"
        from repro.workloads import survey_summary
        summary = survey_summary()
        assert summary["total_apps"] == 20
        assert 6 <= summary["both"] <= 8

    def test_firefox_ratio(self):
        from repro.workloads import TOP20_APPS
        firefox = next(a for a in TOP20_APPS if a.name == "Firefox")
        assert firefox.native_loc_ratio_pct == pytest.approx(52.19,
                                                             abs=0.01)

    def test_pure_java_apps_have_zero_native(self):
        from repro.workloads import TOP20_APPS
        zeros = [a for a in TOP20_APPS if a.c_cpp_loc == 0]
        assert len(zeros) == 9
        assert all(a.native_exec_ratio_pct == 0.0 for a in zeros)

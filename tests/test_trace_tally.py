"""One reader of the trace schema (ISSUE 18).

What one event of each category contributes to each derived number is
defined once (``repro.trace.timeline.Tally``) and folded once, by the
span state machine, as it claims the event.  These tests hold that
shape in place:

* four traced fleets whose report JSON/HTML digests were pinned at the
  commit *before* the fold (f4746e3) and must never move;
* schema totality: every category is either accounted by the tally or
  listed as carrying no accounted quantity, and the runtime emits
  nothing outside ``CATEGORIES``;
* the four reconciliations (span invariant, tally additivity, phase
  totals, payload bytes) over three programs x drawn fault schedules,
  plus the four fault-path bugs the duplicated walkers had grown;
* a structural guard: the downstream analysis modules name no category.
"""

import ast
import dataclasses
import functools
import hashlib
import inspect

import pytest

from repro.__main__ import main
from repro.fleet import (Autoscaler, AutoscalerOptions, DeviceSpec,
                         FleetScheduler, PoolOptions, SeedFanout,
                         ServerPool, ServerSpec)
from repro.runtime import (NETWORKS, FaultPlan, OffloadSession,
                           SessionOptions)
from repro.trace import CATEGORIES, timeline, traffic_totals
from repro.trace.analysis import (aggregate, build_report, critical_path,
                                  render_html, report, report_to_json, slo)
from repro.workloads import workload

from test_analysis_spans import (SPAN_FILES, SPAN_SRC, SPAN_STDIN,
                                 _assert_lossless, _run)

NETWORK = NETWORKS["802.11ac"]


# -- the four pinned fleets ----------------------------------------------
@functools.lru_cache(maxsize=None)
def _program(name):
    """``(program, stdin, files)`` of a registry workload."""
    spec = workload(name)
    return spec.build().program, spec.eval_stdin, spec.eval_files


def _fleet(name, stdin, devices, pool, *, seed, spacing_s=0.002,
           fault_plans=(None,), autoscaler=None, **session_kwargs):
    """A traced fleet built the way ``python -m repro report`` builds
    one (``repro.fleet.identical_devices``), except for what the CLI
    does not expose: ``shard_faults``, and ``fault_plans`` dealt
    round-robin so one fleet mixes link behaviours."""
    program = _program(name)[0]
    fan = SeedFanout(seed)
    specs = []
    for i in range(devices):
        plan = fault_plans[i % len(fault_plans)]
        if plan is not None:
            plan = dataclasses.replace(plan, seed=fan.seed("fault", i))
        specs.append(DeviceSpec(
            device_id=f"dev{i:02d}", program=program, network=NETWORK,
            stdin=stdin, start_offset_s=i * spacing_s,
            options=SessionOptions(enable_tracing=True, fault_plan=plan,
                                   **session_kwargs)))
    return FleetScheduler(specs, ServerPool(pool),
                          autoscaler=autoscaler).run()


def _contended_fifo():
    return _fleet("fleet-micro", b"60\n", 6,
                  PoolOptions(servers=2, capacity=1, queue_limit=4),
                  seed=7)


def _faulty_links():
    return _fleet("fleet-micro", b"60\n", 6,
                  PoolOptions(servers=2, capacity=1, queue_limit=4),
                  seed=5, enable_prefetch=False, fault_plans=(
                      FaultPlan(drop_rate=0.35, max_jitter_s=0.0003,
                                disconnect_rate=0.03, reconnect_rate=0.5),
                      FaultPlan(drop_rate=0.35,
                                disconnect_after_messages=2)))


def _sharded_with_shard_fault():
    return _fleet("parallel-micro", b"800\n", 4,
                  PoolOptions(servers=4, capacity=1, queue_limit=4),
                  seed=5, shards=4, shard_faults=(1,))


def _tiered_autoscaled():
    edge = ServerSpec(capacity=1, queue_limit=2)
    cloud = ServerSpec(speed=2.0, capacity=1, queue_limit=2, tier="cloud",
                       network=NETWORKS["cloud-wan"])
    return _fleet("fleet-micro", b"60\n", 10,
                  PoolOptions(specs=(edge, cloud)), seed=11,
                  spacing_s=0.0005,
                  autoscaler=Autoscaler(AutoscalerOptions(
                      interval_s=0.005, template=edge, max_servers=4)))


_FLEETS = {
    "contended-fifo": _contended_fifo,
    "faulty-links": _faulty_links,
    "sharded-shard-fault": _sharded_with_shard_fault,
    "tiered-autoscaled": _tiered_autoscaled,
}


@functools.lru_cache(maxsize=None)
def _fleet_result(name):
    return _FLEETS[name]()


def _report(result):
    return build_report(
        result.merged_events(), source={"kind": "test"},
        dropped=result.dropped_events,
        servers=result.pool.servers_detail(result.makespan_s))


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _split_metrics_block(stdout):
    """``(everything else, the block)`` of ``repro trace`` output: the
    block runs from its "metrics" line through the blank line before
    "phase totals"."""
    lines = stdout.split("\n")
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("metrics"))
    end = next(i for i, line in enumerate(lines)
               if line.startswith("phase totals"))
    assert lines[end - 1] == ""
    return ("\n".join(lines[:start] + lines[end:]),
            "\n".join(lines[start:end - 1]))


# sha256 of (report JSON, report HTML), captured at f4746e3 — the commit
# before the six event walkers became one tally.  None of these fleets
# reaches a path the walkers disagreed on, so the fold must not move a
# byte of them: if a digest changes in the last digit of a float, the
# fold's addition order is wrong, not the golden.  Re-captured when the
# ``estimate`` event folded into ``decision``: of every report leaf only
# the ``events`` count moved.
_GOLDEN = {
    "contended-fifo": (
        "cf1d7cf2c8abdfe7411a8d7332e74d2426e836a3300e5a1d4058aa6961b3898d",
        "079488ac0978a4daa0efeb0fa4ecdf5f1351d15c21f7302cb57d37855ddb8eed"),
    "faulty-links": (
        "231930bb75d413a5ed997b917014ae9139a41cc76a0ac0d961d939b86eed5589",
        "b257bf7aecf1283630cb44391d97386bdd2be2c2073f833a97921f5080e0002d"),
    "sharded-shard-fault": (
        "9e61c0bcd1bcd446079798ca5cda9d6b30091aa29386dd2f44178fed532a3296",
        "ed45fb2f479f646a5e184c3f94c34d8d2573d154ef53a5ecdf1a7ee73f0decb3"),
    "tiered-autoscaled": (
        "8a01ab8d84db2cbd4e90a23ae9054a8ec85a028ce51b4cf7792a7d3564170e12",
        "70f85353a4e8349c931f59c091224d54f8f84001c47b4fae31b4d86cb5409891"),
}
# sha256 of `python -m repro trace chess` stdout outside its "metrics"
# block (that line through the blank one before "phase totals"),
# captured at 3f27918 — the commit before the block became a fold of the
# printed events instead of a registry the runtime updated beside them —
# and re-captured when each ``estimate`` line folded into its
# ``decision`` line.
_TRACE_CHESS_STDOUT = (
    "5ce0debc5da881de561174530e949678b31ed86892f3c01f31181a41cbc31329")


class TestPinnedReports:
    @pytest.mark.parametrize("name", sorted(_FLEETS))
    def test_report_bytes_did_not_move(self, name):
        built = _report(_fleet_result(name))
        assert built["warnings"] == []
        assert (_sha(report_to_json(built)),
                _sha(render_html(built))) == _GOLDEN[name]

    def test_the_fleets_reach_what_they_are_pinned_for(self):
        """A golden over a fleet that stopped exercising its path pins
        nothing."""
        def fleet(name):
            return _report(_fleet_result(name))["fleet"]
        assert len(fleet("contended-fifo")["servers"]) == 2
        assert fleet("contended-fifo")["distributions"][
            "queue_wait_seconds"]["count"] > 0
        faulty = fleet("faulty-links")
        assert faulty["invocations"]["aborted"] >= 2
        assert faulty["totals"]["retries"] > 0
        assert faulty["totals"]["reconnects"] > 0
        assert faulty["critical_path_seconds"]["retry_backoff"] > 0.0
        assert fleet("sharded-shard-fault")["critical_path_seconds"][
            "mobile_compute"] > 0.0         # the straggler's replay
        tiered = fleet("tiered-autoscaled")
        assert {row["tier"] for row in tiered["servers"].values()} == {
            "edge", "cloud"}
        assert tiered["invocations"]["rejected"] > 0
        assert len(tiered["servers"]) > 2   # the autoscaler grew the pool

    def test_fault_free_trace_cli_stdout_did_not_move(self, capsys):
        assert main(["trace", "chess"]) == 0
        rest, block = _split_metrics_block(capsys.readouterr().out)
        assert len(block.splitlines()) > 20
        assert _sha(rest) == _TRACE_CHESS_STDOUT


# -- schema totality -----------------------------------------------------
class TestSchemaTotality:
    def test_every_category_is_accounted_or_declared_unaccounted(self):
        accounted = set(timeline._CONTRIBUTIONS)
        assert accounted.isdisjoint(timeline.UNACCOUNTED)
        assert accounted | timeline.UNACCOUNTED == set(CATEGORIES)

    @pytest.mark.parametrize("name", sorted(_FLEETS))
    def test_the_runtime_emits_nothing_outside_the_vocabulary(self, name):
        emitted = {e.category
                   for e in _fleet_result(name).merged_events()}
        assert emitted <= set(CATEGORIES)

    def test_the_sharded_fleet_speaks_the_plan_categories(self):
        emitted = {e.category for e in
                   _fleet_result("sharded-shard-fault").merged_events()}
        assert {"offload.scatter", "offload.gather",
                "offload.straggler"} <= emitted


# -- the four fault-path bugs the duplicated walkers had grown -----------
def _chess(disconnect_after):
    program, stdin, files = _program("chess")
    options = SessionOptions(
        enable_tracing=True,
        fault_plan=FaultPlan(seed=0,
                             disconnect_after_messages=disconnect_after))
    return OffloadSession(program, NETWORK, options=options, stdin=stdin,
                          files=files).run()


class TestFaultPathRegressions:
    def test_mid_exec_abort_phase_totals_agree(self, capsys):
        """Bug 1: ``phase_totals`` never learnt that a mid-exec abort's
        partial server execution rides ``offload.abort.server_seconds``,
        so ``repro trace chess --disconnect-after 9`` printed a
        reconciliation table that disagreed with itself."""
        assert main(["trace", "chess", "--disconnect-after", "9"]) == 0
        table = capsys.readouterr().out.split("phase totals")[1]
        rows = [line.split() for line in table.splitlines()[1:5]]
        assert [row[0] for row in rows] == [
            "computation", "fn_ptr_translation", "remote_io",
            "communication"]
        for _, derived, _, reported, _ in rows:
            assert derived == reported

    @pytest.mark.parametrize("plan", [
        FaultPlan(seed=1, disconnect_after_messages=13),
        FaultPlan(seed=0, disconnect_after_messages=5)])
    def test_failed_sends_move_no_bytes(self, plan):
        """Bug 2: ``traffic_totals`` counted the payload of a send that
        never arrived (52 bytes to the mobile against the session's 40
        under the first plan)."""
        _, res = _run("span", SPAN_SRC, SPAN_STDIN, SPAN_FILES,
                      fault_plan=plan)
        events = res.trace.events()
        assert any(e.payload.get("failed") for e in events)
        traffic = traffic_totals(events)
        assert traffic["payload_bytes_to_server"] == res.bytes_to_server
        assert traffic["payload_bytes_to_mobile"] == res.bytes_to_mobile
        _assert_lossless(events, res)

    def test_finalize_abort_does_not_report_compute_twice(self):
        """Bug 3: a plan of one aborted in *finalize* re-reported, on
        ``offload.abort``, the compute its ``offload.exec`` event had
        already carried.  The fleet of the command CI gates on (``report
        --workload parallel-micro --devices 6 --servers 4 --shards 4
        --drop-rate 0.3 --disconnect-after 3 --reconnect-rate 0.5
        --seed 7``), on a smaller input."""
        result = _fleet("parallel-micro", b"800\n", 6,
                        PoolOptions(servers=4, capacity=1, queue_limit=4),
                        seed=7, shards=4, fault_plans=(FaultPlan(
                            drop_rate=0.3, disconnect_after_messages=3,
                            reconnect_rate=0.5),))
        events = result.merged_events()
        assert "finalize" in {e.payload.get("phase") for e in events
                              if e.category == "offload.abort"}
        assert _report(result)["warnings"] == []
        _assert_lossless(events, *[d.result for d in result.devices])

    @pytest.mark.parametrize("disconnect_after", [5, 9, 15])
    def test_mid_exec_abort_keeps_its_fnptr_window(self, disconnect_after):
        """Bug 4: a window aborted mid-execution never emitted its
        ``fnptr.window``, so the look-ups it had charged to the session
        were missing from the trace."""
        res = _chess(disconnect_after)
        assert res.aborted_invocations >= 1
        _assert_lossless(res.trace.events(), res)


# -- no seventh walker ---------------------------------------------------
@pytest.mark.parametrize("module", [critical_path, aggregate, slo, report],
                         ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_downstream_analysis_names_no_category(module):
    """Everything downstream of span reconstruction is arithmetic over
    tallies: a category name appearing there as a string literal is a
    second reader of the schema growing back."""
    literals = {node.value
                for node in ast.walk(ast.parse(inspect.getsource(module)))
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)}
    assert literals.isdisjoint(CATEGORIES)

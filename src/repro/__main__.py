"""Command-line interface.

    python -m repro list                      # available workloads
    python -m repro run 458.sjeng             # offload one workload
    python -m repro run 164.gzip --network 802.11n
    python -m repro compile 456.hmmer         # show selection + stats
    python -m repro trace chess               # traced run: event timeline
    python -m repro trace chess --jsonl t.jsonl --chrome t.json
    python -m repro fleet --devices 20 --servers 2 --seed 0
    python -m repro report --seed 0 --json r.json --html r.html
    python -m repro table 3                   # regenerate a paper table
    python -m repro figure 6a                 # regenerate a paper figure
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .eval import (figure6a_execution_time, figure6b_battery, render_figure6,
                   render_figure7, render_figure8, render_table1,
                   render_table2, render_table3, render_table4, render_table5)
from .fleet import (DECISION_ENGINES, DEFAULT_DECISION_ENGINE, Autoscaler,
                    AutoscalerOptions, FleetScheduler, PoolOptions,
                    ServerPool, ServerSpec, identical_devices)
from .runtime import FaultPlan, NETWORKS, SessionOptions
from .trace import (phase_totals, render_metrics, render_timeline,
                    write_chrome_trace, write_jsonl)
from .trace.analysis import (BUCKETS, aggregate_sessions, build_report,
                             invocation_counts, reconstruct_sessions,
                             render_html, report_to_json)
from .trace.export import open_jsonl
from .workloads import ALL_WORKLOADS, FLEET_MICRO, MICRO_WORKLOADS, workload


def cmd_list(args) -> int:
    print(f"{'name':16s} {'LoC':>4s}  description")
    for spec in ALL_WORKLOADS + MICRO_WORKLOADS:
        print(f"{spec.name:16s} {spec.loc:4d}  {spec.description}")
    return 0


def _usage_error(message) -> int:
    """Report a bad command-line value the way argparse reports a bad
    flag: one ``repro: error:`` line on stderr, exit code 2."""
    print(f"repro: error: {message}", file=sys.stderr)
    return 2


def _build_workload(name: str):
    """The built workload (module + profile + program; registry suite
    and built-in micro kernels alike) a subcommand names — None after a
    stderr note when the registry does not know the name."""
    try:
        spec = workload(name)
    except KeyError as exc:     # the registry's unknown-workload error
        _usage_error(exc.args[0])
        return None
    return spec.build()


def cmd_compile(args) -> int:
    built = _build_workload(args.workload)
    if built is None:
        return 2
    spec, program = built.spec, built.program
    print(f"{spec.name}: {spec.description}")
    print(f"  offload targets : "
          f"{', '.join(program.target_names()) or program.why_no_targets()}")
    print(f"  outlined loops  : {program.outlined_loops or '-'}")
    print(f"  unification     : {program.unification.summary()}")
    print(f"  remote I/O sites: {program.remote_io_sites}, "
          f"fn-ptr sites: {program.fn_ptr_sites}")
    print(f"  server pruned   : "
          f"{', '.join(program.partition.removed_server_functions) or '-'}")
    return 0


def _resolve_network(name: str):
    """The NetworkModel a ``--network`` flag names (None + stderr note
    when unknown) — shared by run/trace/fleet so the lookup and its
    error message cannot drift between subcommands."""
    network = NETWORKS.get(name)
    if network is None:
        _usage_error(f"unknown network {name!r}; "
                     f"available: {sorted(NETWORKS)}")
    return network


def _fault_plan(args):
    """Build the FaultPlan the CLI flags describe (None when every fault
    knob is at its default — the bit-identical fault-free path).
    Raises the dataclass's ValueError on an out-of-range knob."""
    plan = FaultPlan(seed=args.seed,
                     drop_rate=args.drop_rate,
                     max_jitter_s=args.jitter,
                     disconnect_after_messages=args.disconnect_after,
                     disconnect_rate=args.disconnect_rate,
                     reconnect_rate=args.reconnect_rate)
    return None if plan.is_empty else plan


def _session_inputs(args):
    """What ``run`` and ``trace`` share: the network, the workload and
    the fault plan their flags name — ``(network, plan, built)``, or
    None after a stderr note when a flag value is bad."""
    network = _resolve_network(args.network)
    if network is None:
        return None
    try:
        plan = _fault_plan(args)
    except ValueError as exc:
        _usage_error(exc)
        return None
    built = _build_workload(args.workload)
    if built is None:
        return None
    return network, plan, built


def _print_fault_summary(result) -> None:
    ts = result.transport_stats
    print(f"  faults  : {ts.drops} drops, {ts.disconnects} disconnects, "
          f"{ts.retries} retries, {ts.reconnects} reconnects, "
          f"{ts.failed_deliveries} failed deliveries")
    print(f"  fallback: {result.aborted_invocations} aborted invocations, "
          f"{result.local_fallbacks} replayed locally, "
          f"{result.wasted_seconds * 1e3:.2f} ms wasted on the link")


def _print_uva_summary(result) -> None:
    """The UVA data-plane line(s) of the run/trace summaries
    (docs/uva-data-plane.md).  Phase seconds are the values the
    prefetch/write_back calls charged directly; inside a batching
    window the batch flush carries the wall time, so these read 0."""
    us = result.uva_stats
    if us is None:
        return
    print(f"  uva     : prefetch {us.prefetched_pages} pages "
          f"({us.prefetch_seconds * 1e3:.2f} ms), "
          f"writeback {us.written_back_pages} pages "
          f"({us.writeback_seconds * 1e3:.2f} ms), "
          f"{us.cod_faults} CoD faults")
    attempts = us.prefetch_hits + us.prefetch_wasted
    hit_pct = 100.0 * us.prefetch_hit_ratio
    print(f"  uva+    : cache kept {us.cache_kept_pages} pages, "
          f"skipped {us.cache_skipped_prefetch_pages} prefetches "
          f"({us.cache_saved_bytes / 1024:.1f} KiB), "
          f"delta saved {us.delta_saved_bytes / 1024:.1f} KiB "
          f"on {us.delta_pages} pages, "
          f"prefetch hits {us.prefetch_hits}/{attempts} "
          f"({hit_pct:.0f}%)")


def cmd_run(args) -> int:
    inputs = _session_inputs(args)
    if inputs is None:
        return 2
    network, plan, built = inputs
    local = built.local()
    result = built.session(network, SessionOptions(
        fault_plan=plan, shards=args.shards)).run()
    differing = result.output.differences(local.output)
    match = (f"DIFFERENT ({', '.join(differing)})" if differing
             else "identical")
    print(f"{built.spec.name} over {network.name}"
          + (f" (faulty link, seed {args.seed})" if plan else ""))
    print(f"  local   : {local.seconds * 1e3:9.2f} ms  "
          f"{local.energy_mj:9.1f} mJ")
    print(f"  offload : {result.total_seconds * 1e3:9.2f} ms  "
          f"{result.energy_mj:9.1f} mJ")
    print(f"  speedup : {local.seconds / result.total_seconds:.2f}x   "
          f"battery saving "
          f"{(1 - result.energy_mj / local.energy_mj) * 100:.1f}%")
    counts = invocation_counts(result.invocations)
    print(f"  offloaded {counts['offloaded']}/{counts['total']} "
          f"invocations, "
          f"traffic {result.traffic_per_invocation_mb:.3f} MB/invocation, "
          f"output {match}")
    _print_scatter_summary(result)
    _print_uva_summary(result)
    if plan is not None:
        _print_fault_summary(result)
    return 1 if differing else 0


def _print_scatter_summary(result) -> None:
    """The scatter/gather line of the run summary: how many invocations
    ran as multi-shard plans and what the fan-out bought
    (docs/parallel-offload.md)."""
    plans = [r for r in result.invocations if r.shards > 1]
    if not plans:
        return
    shards = sum(r.shards for r in plans)
    wall = sum(r.shard_wall_seconds for r in plans)
    serial = sum(r.server_seconds for r in plans)
    stragglers = sum(r.stragglers for r in plans)
    print(f"  scatter : {len(plans)} plan(s), {shards} shards, "
          f"parallel exec {wall * 1e3:.2f} ms "
          f"(serial {serial * 1e3:.2f} ms), "
          f"{stragglers} straggler(s) replayed locally")


def cmd_trace(args) -> int:
    """Run one workload with structured tracing and print its timeline
    (docs/observability.md walks through reading this output)."""
    if args.capacity < 1:
        return _usage_error(f"--capacity must be >= 1; got {args.capacity}")
    categories = args.categories.split(",") if args.categories else None
    try:    # the renderer rejects a bad filter; ask before the slow run
        render_timeline((), categories=categories, tail=args.tail)
    except ValueError as exc:
        return _usage_error(exc)
    inputs = _session_inputs(args)
    if inputs is None:
        return 2
    network, plan, built = inputs
    name = built.spec.name
    result = built.session(network, SessionOptions(
        enable_tracing=True, trace_capacity=args.capacity,
        fault_plan=plan, shards=args.shards)).run()
    tracer = result.trace
    events = tracer.events()

    print(f"{name} over {network.name} — "
          f"{len(events)} trace events"
          + (f" ({tracer.dropped} dropped by the ring buffer)"
             if tracer.dropped else ""))
    print(render_timeline(events, categories=categories, tail=args.tail))
    print()
    print(render_metrics(events, dropped=tracer.dropped))

    derived = phase_totals(events)
    reported = result.breakdown()
    print()
    print("phase totals (trace-derived vs session accounting)"
          + (f" — trace-derived column is partial: {tracer.dropped} "
             f"events dropped by the ring buffer"
             if tracer.dropped else ""))
    for key in reported:
        print(f"  {key:<20s} {derived[key]:.9f} s   "
              f"{reported[key]:.9f} s")
    print()
    print("analysis (span-derived — same aggregation as `repro report`)")
    _print_analysis_summary(events)
    _print_scatter_summary(result)
    print()
    print("uva data plane")
    _print_uva_summary(result)
    print()
    print("transport / fallback")
    _print_fault_summary(result)
    if args.jsonl:
        count = write_jsonl(events, args.jsonl, dropped=tracer.dropped)
        print(f"wrote {count} events to {args.jsonl}")
    if args.chrome:
        write_chrome_trace(events, args.chrome,
                           process_name=f"{name} over {network.name}",
                           dropped=tracer.dropped)
        print(f"wrote Chrome trace to {args.chrome} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    return 0


def _print_analysis_summary(events) -> None:
    """The span-derived lines of the trace summary, sourced from the
    exact aggregation code behind ``repro report`` (satellite of
    docs/observability.md: the CLI and the report cannot disagree)."""
    agg = aggregate_sessions(reconstruct_sessions(events))
    inv = agg.invocations
    print(f"  spans   : {inv['total']} invocations — "
          f"{inv['offloaded']} offloaded, {inv['declined']} declined, "
          f"{inv['rejected']} rejected, {inv['aborted']} aborted")
    cp = agg.critical_path
    parts = ", ".join(f"{name} {cp[name] * 1e3:.2f} ms"
                      for name in BUCKETS if cp[name] > 0)
    print(f"  critical: {parts or 'all buckets empty'}")
    if agg.dominant:
        dominant = ", ".join(f"{name} x{count}"
                             for name, count in
                             sorted(agg.dominant.items()))
        print(f"  dominant: {dominant}")


def _pool_options(args) -> PoolOptions:
    """The PoolOptions the CLI flags describe.  Without --cloud-servers
    this is the historical homogeneous form (byte-identical pools);
    with it, the pool is a two-tier edge/cloud topology where cloud
    servers are faster but sit behind the cloud-wan link."""
    cloud = args.cloud_servers
    if cloud < 0:
        raise ValueError(f"cloud servers must be >= 0; got {cloud}")
    if cloud == 0:
        return PoolOptions(servers=args.servers, capacity=args.capacity,
                           queue_limit=args.queue_limit)
    edge = tuple(ServerSpec(capacity=args.capacity,
                            queue_limit=args.queue_limit)
                 for _ in range(args.servers))
    far = tuple(ServerSpec(speed=args.cloud_speed, capacity=args.capacity,
                           queue_limit=args.queue_limit, tier="cloud",
                           network=NETWORKS["cloud-wan"])
                for _ in range(cloud))
    return PoolOptions(servers=args.servers, capacity=args.capacity,
                       queue_limit=args.queue_limit, specs=edge + far)


def _autoscaler(args):
    """The Autoscaler the CLI flags ask for (None without --autoscale).
    Scale-up clones the homogeneous edge spec."""
    if not args.autoscale:
        return None
    template = ServerSpec(capacity=args.capacity,
                          queue_limit=args.queue_limit)
    return Autoscaler(AutoscalerOptions(
        interval_s=args.autoscale_interval, template=template,
        max_servers=args.autoscale_max))


def _run_fleet(args, network, enable_tracing: bool):
    """Build and run the fleet the CLI flags describe — shared by
    ``fleet`` and ``report`` so the two subcommands simulate the exact
    same system.  Returns ``(FleetResult, base_plan, built)``, or None
    after a stderr note when a flag value is bad."""
    # Validation lives in the dataclasses; only building them is guarded.
    try:
        base_plan = _fault_plan(args)
        pool = ServerPool(_pool_options(args), engine=args.engine)
        autoscaler = _autoscaler(args)
    except ValueError as exc:
        _usage_error(exc)
        return None
    built = _build_workload(args.workload)
    if built is None:
        return None
    try:
        devices = identical_devices(
            args.devices, built.program, network,
            stdin=built.spec.eval_stdin, files=built.spec.eval_files,
            arrival=args.arrival, spacing_s=args.spacing, seed=args.seed,
            options=SessionOptions(enable_tracing=enable_tracing,
                                   shards=args.shards),
            fault_plan=base_plan, deadline_s=args.deadline)
    except ValueError as exc:
        _usage_error(exc)
        return None
    result = FleetScheduler(devices, pool, autoscaler=autoscaler).run()
    return result, base_plan, built


def cmd_fleet(args) -> int:
    """Simulate N devices offloading against a contended server pool
    (docs/fleet.md)."""
    network = _resolve_network(args.network)
    if network is None:
        return 2
    fleet = _run_fleet(args, network, enable_tracing=bool(args.jsonl))
    if fleet is None:
        return 2
    result, base_plan, built = fleet
    local = built.local()

    summary = result.summary()
    differing = result.differences(local.output)
    inv = summary["invocations"]
    queue = summary["queue"]
    cloud = args.cloud_servers
    tiers = (f"{args.servers} edge + {cloud} cloud server(s)"
             if cloud > 0 else f"{args.servers} server(s)")
    print(f"fleet: {args.devices} devices over {network.name}, "
          f"{tiers} x {args.capacity} slot(s), "
          f"queue limit {args.queue_limit}, "
          f"engine {summary['engine']}, "
          f"{args.arrival} arrivals, seed {args.seed}"
          + (f", {args.shards} shards/invocation"
             if args.shards > 1 else "")
          + (" (faulty links)" if base_plan is not None else "")
          + (" (autoscaled)" if args.autoscale else ""))
    print(f"  makespan  : {summary['makespan_s'] * 1e3:9.2f} ms   "
          f"throughput "
          f"{summary['throughput_invocations_per_s']:.1f} invocations/s")
    print(f"  completion: p50 {summary['completion_s']['p50'] * 1e3:.2f} ms, "
          f"p95 {summary['completion_s']['p95'] * 1e3:.2f} ms")
    print(f"  offloading: {inv['offloaded']}/{inv['total']} offloaded, "
          f"{inv['declined']} declined, {inv['rejected']} rejected, "
          f"{inv['aborted']} aborted, "
          f"{inv['local_fallbacks']} ran locally "
          f"(decline rate {summary['decline_rate'] * 100:.1f}%)")
    print(f"  queueing  : {queue['total_delay_s'] * 1e3:.2f} ms total over "
          f"{queue['queued_admissions']} queued admissions "
          f"(mean {queue['mean_delay_s'] * 1e3:.2f} ms)")
    for server in summary["servers_detail"]:
        retired = "" if server["active"] else " (retired)"
        print(f"  server {server['id']}  : {server['tier']} "
              f"x{server['speed']:g}{retired}, utilization "
              f"{server['utilization'] * 100:5.1f}%, "
              f"{server['admitted']} admitted "
              f"({server['shard_admissions']} gang shards), "
              f"{server['rejected']} rejected, "
              f"queue delay {server['queue_delay_s'] * 1e3:.2f} ms, "
              f"max depth {server['max_queue_depth']}")
    scaling = summary.get("autoscale") or {}
    if scaling:
        print(f"  autoscale : {scaling['scale_ups']} scale-up(s), "
              f"{scaling['scale_downs']} scale-down(s), "
              f"{len(scaling['findings'])} SLO finding(s)")
    verdict = ("DIFFERENT on " + ", ".join(
        f"{device} ({', '.join(names)})"
        for device, names in differing.items())
        if differing else "identical on all devices")
    print(f"  energy    : {summary['energy_mj_total']:.1f} mJ across the "
          f"fleet, output {verdict}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=False)
            fh.write("\n")
        print(f"wrote summary to {args.json}")
    if args.jsonl:
        count = write_jsonl(result.merged_events(), args.jsonl,
                            dropped=result.dropped_events)
        print(f"wrote {count} merged fleet events to {args.jsonl}")
    return 1 if differing else 0


def _fleet_source(args, faulty: bool) -> dict:
    """The report's ``source`` block for a live fleet run: every knob
    that shaped the simulation, nothing that varies between identical
    runs (no clocks, no paths)."""
    return {
        "kind": "fleet", "workload": args.workload,
        "network": args.network, "devices": args.devices,
        "servers": args.servers, "capacity": args.capacity,
        "queue_limit": args.queue_limit, "arrival": args.arrival,
        "spacing_s": args.spacing, "seed": args.seed, "faulty": faulty,
        "engine": args.engine, "cloud_servers": args.cloud_servers,
        "cloud_speed": args.cloud_speed, "deadline_s": args.deadline,
        "autoscale": args.autoscale, "shards": args.shards,
    }


def cmd_report(args) -> int:
    """Analyze a trace — from a live seeded fleet run or a saved JSONL
    file — into the deterministic report (docs/observability.md)."""
    if args.from_jsonl:
        # One pass over the file, a line at a time: a malformed or
        # out-of-order line surfaces here, before any report byte.
        try:
            with open_jsonl(args.from_jsonl) as (meta, events):
                report = build_report(
                    events,
                    source={"kind": "jsonl", "path": args.from_jsonl},
                    dropped=meta.get("dropped", 0),
                    declared_events=meta.get("events"))
        except ValueError as exc:
            return _usage_error(f"{args.from_jsonl}: {exc}")
    else:
        network = _resolve_network(args.network)
        if network is None:
            return 2
        fleet = _run_fleet(args, network, enable_tracing=True)
        if fleet is None:
            return 2
        result, base_plan = fleet[:2]
        report = build_report(
            result.merged_events(),
            source=_fleet_source(args, base_plan is not None),
            dropped=result.dropped_events,
            servers=result.pool.servers_detail(result.makespan_s))

    for warning in report["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    text = report_to_json(report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote report to {args.json}")
    else:
        sys.stdout.write(text)
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_html(report))
        print(f"wrote HTML report to {args.html}")
    return 0


def cmd_table(args) -> int:
    renderers = {"1": render_table1, "2": render_table2,
                 "3": render_table3, "5": render_table5}
    if args.number == "4":
        print(render_table4())   # needs the full suite (several minutes)
        return 0
    renderer = renderers.get(args.number)
    if renderer is None:
        return _usage_error(f"unknown table {args.number!r}; "
                            f"tables: 1, 2, 3, 4, 5")
    print(renderer())
    return 0


def cmd_figure(args) -> int:
    key = args.name.lower()
    if key == "6a":
        print(render_figure6(figure6a_execution_time(),
                             "Figure 6(a): normalized execution time"))
    elif key == "6b":
        print(render_figure6(figure6b_battery(),
                             "Figure 6(b): normalized battery"))
    elif key == "7":
        print(render_figure7())
    elif key == "8":
        print(render_figure8())
    else:
        return _usage_error(f"unknown figure {args.name!r}; "
                            f"figures: 6a, 6b, 7, 8")
    return 0


def _add_fault_args(p) -> None:
    """Fault-injection knobs shared by the run/trace/fleet subcommands
    (docs/fault-model.md).  All defaults keep the link perfect."""
    p.add_argument("--seed", type=int, default=0,
                   help="RNG root seed (deterministic; fleet runs fan "
                        "it out per device/component)")
    p.add_argument("--drop-rate", type=_finite_float, default=0.0,
                   metavar="P", help="per-message transient loss "
                   "probability (0..1)")
    p.add_argument("--jitter", type=_finite_float, default=0.0,
                   metavar="SECONDS",
                   help="max uniform extra latency per delivery")
    p.add_argument("--disconnect-after", type=int, default=None,
                   metavar="N", help="hard-disconnect the link after N "
                   "delivered messages")
    p.add_argument("--disconnect-rate", type=_finite_float, default=0.0,
                   metavar="P", help="per-message hard-disconnect "
                   "probability (0..1)")
    p.add_argument("--reconnect-rate", type=_finite_float, default=0.0,
                   metavar="P", help="per-probe reconnect success "
                   "probability (0..1)")


def _add_network_arg(p) -> None:
    p.add_argument("--network", default="802.11ac",
                   help=f"one of {sorted(NETWORKS)}")


def _add_session_args(p) -> None:
    """What ``run`` and ``trace`` share: one workload over one network,
    with the scatter/gather and fault knobs."""
    p.add_argument("workload")
    _add_network_arg(p)
    _add_parallel_args(p)
    _add_fault_args(p)


def _finite_float(text: str) -> float:
    """``type=`` of every float flag: ``nan`` and ``inf`` parse as
    floats, and no simulation can consume them."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text!r}")
    return value


def _positive_shards(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1, got {value}")
    return value


def _add_parallel_args(p) -> None:
    """The scatter/gather knob shared by the run/trace/fleet/report
    subcommands (docs/parallel-offload.md).  The default keeps every
    invocation on the historical single-server path byte for byte."""
    p.add_argument("--shards", type=_positive_shards, default=1,
                   metavar="K",
                   help="split each shardable offload target across up "
                        "to K servers (default 1: classic single-server "
                        "invocations; non-shardable targets always stay "
                        "at 1)")


def _add_fleet_args(p) -> None:
    """Every knob that shapes a simulated fleet — declared once, so the
    ``fleet`` and ``report`` subcommands cannot drift apart: the fleet
    and pool shape, then the scatter/gather, placement
    (docs/placement.md) and fault knobs.  All defaults reproduce the
    historical homogeneous fifo pool byte for byte."""
    p.add_argument("--devices", type=int, default=20,
                   help="number of mobile devices (default 20)")
    p.add_argument("--servers", type=int, default=2,
                   help="number of offload servers (default 2)")
    p.add_argument("--capacity", type=int, default=1,
                   help="execution slots per server (default 1)")
    p.add_argument("--queue-limit", type=int, default=4, metavar="N",
                   help="max invocations waiting per server before "
                        "admission is refused (default 4)")
    p.add_argument("--arrival", default="uniform",
                   choices=["uniform", "poisson", "burst"],
                   help="device start pattern (default uniform)")
    p.add_argument("--spacing", type=_finite_float, default=0.002,
                   metavar="SECONDS",
                   help="mean gap between device starts (default 2 ms)")
    p.add_argument("--workload", default=FLEET_MICRO.name,
                   help=f"workload every device runs (default "
                        f"{FLEET_MICRO.name!r}, a built-in hot "
                        f"kernel; any `list` name works)")
    _add_network_arg(p)
    _add_parallel_args(p)
    p.add_argument("--engine", default=DEFAULT_DECISION_ENGINE,
                   choices=list(DECISION_ENGINES),
                   help="placement decision engine (default "
                        f"{DEFAULT_DECISION_ENGINE!r}; see "
                        "docs/placement.md for the ranking each one "
                        "applies)")
    p.add_argument("--cloud-servers", type=int, default=0, metavar="N",
                   help="add N cloud-tier servers behind the cloud-wan "
                        "link (default 0: edge-only pool)")
    p.add_argument("--cloud-speed", type=_finite_float, default=2.0,
                   metavar="X", help="cloud server speed multiplier "
                   "(default 2.0: twice the edge reference server)")
    p.add_argument("--deadline", type=_finite_float, default=None,
                   metavar="SECONDS",
                   help="per-invocation relative deadline every device "
                        "attaches to its requests (drives the "
                        "deadline-aware engine)")
    p.add_argument("--autoscale", action="store_true",
                   help="let an SLO-driven autoscaler resize the pool "
                        "mid-run")
    p.add_argument("--autoscale-interval", type=_finite_float,
                   default=0.005, metavar="SECONDS",
                   help="autoscaler evaluation tick (default 5 ms)")
    p.add_argument("--autoscale-max", type=int, default=8, metavar="N",
                   help="pool size the autoscaler may grow to "
                        "(default 8)")
    _add_fault_args(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Native Offloader (MICRO 2015) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads").set_defaults(
        func=cmd_list)

    p = sub.add_parser("compile", help="compile one workload and show "
                                       "the offload plan")
    p.add_argument("workload")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="offload one workload end to end")
    _add_session_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("trace", help="offload one workload with "
                                     "structured tracing and print the "
                                     "event timeline + metrics")
    _add_session_args(p)
    p.add_argument("--jsonl", metavar="PATH",
                   help="also write the trace as JSON Lines")
    p.add_argument("--chrome", metavar="PATH",
                   help="also write a chrome://tracing-compatible JSON")
    p.add_argument("--tail", type=int, default=None, metavar="N",
                   help="print only the last N timeline lines")
    p.add_argument("--categories", metavar="CAT[,CAT...]",
                   help="restrict the timeline to these event categories")
    p.add_argument("--capacity", type=int, default=262_144,
                   help="trace ring-buffer capacity (events)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("fleet", help="simulate many devices sharing a "
                                     "contended server pool")
    p.add_argument("--json", metavar="PATH",
                   help="write the fleet summary as JSON")
    p.add_argument("--jsonl", metavar="PATH",
                   help="write the merged fleet trace as JSON Lines")
    _add_fleet_args(p)
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("report", help="analyze a trace (live seeded "
                                      "fleet run or saved JSONL) into a "
                                      "deterministic JSON/HTML report")
    p.add_argument("--from-jsonl", metavar="PATH",
                   help="analyze this saved JSONL trace instead of "
                        "running a fleet")
    p.add_argument("--json", metavar="PATH",
                   help="write the report JSON here (default: stdout)")
    p.add_argument("--html", metavar="PATH",
                   help="also write a self-contained HTML report")
    _add_fleet_args(p)    # shape of the live run (no --from-jsonl)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", help="1|2|3|4|5")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("figure", help="regenerate a paper figure "
                                      "(runs the full suite)")
    p.add_argument("name", help="6a|6b|7|8")
    p.set_defaults(func=cmd_figure)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        # The simulator does no host I/O of its own: this is a file the
        # command line named that cannot be read or written.
        return _usage_error(exc)


if __name__ == "__main__":
    sys.exit(main())

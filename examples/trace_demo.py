#!/usr/bin/env python3
"""Structured tracing demo: watch the runtime offload the chess game.

Runs the paper's Figure 3 chess running example with tracing enabled
(docs/observability.md), prints the decision timeline and the totals
the events fold into, re-derives the Figure 7 phase totals from events
alone, and writes both export formats (JSON Lines + chrome://tracing).

Run:  python examples/trace_demo.py [output-directory]
"""

import sys

from repro.eval.runner import run_program
from repro.runtime import SessionOptions
from repro.trace import (load_jsonl, phase_totals, render_metrics,
                         render_timeline, write_chrome_trace, write_jsonl)
from repro.workloads import workload


def main() -> None:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "."

    # One traced run on the fast Wi-Fi model.  Tracing is off by default
    # and, when off, leaves results bit-identical — enabling it only adds
    # the event stream, never simulated time.
    spec = workload("chess")
    result = run_program(
        spec, labels=("fast",),
        session_options=SessionOptions(enable_tracing=True)
    ).sessions["fast"]

    events = result.trace_events()
    print(f"{spec.name}: {len(events)} trace events "
          f"({result.trace.dropped} dropped)\n")

    # The offload decisions, one line per invocation.
    print("decisions:")
    print(render_timeline(events, categories=["decision"]))

    # The last few events: write-back, final transfer, session summary.
    print("\ntail of the timeline:")
    print(render_timeline(events, tail=8))

    # What the events add up to: per-category counts, then the Tally.
    print()
    print(render_metrics(events, dropped=result.trace.dropped))

    # Events alone reproduce the Figure 7 phase breakdown.
    derived = phase_totals(events)
    reported = result.breakdown()
    print("\nphase totals (trace-derived vs session accounting):")
    for phase, seconds in reported.items():
        print(f"  {phase:<20s} {derived[phase] * 1e3:8.4f} ms   "
              f"{seconds * 1e3:8.4f} ms")
    assert all(abs(derived[k] - v) < 1e-9 for k, v in reported.items())

    # Interchange formats: JSONL for scripts, Chrome JSON for humans.
    jsonl_path = f"{out_dir}/chess_trace.jsonl"
    chrome_path = f"{out_dir}/chess_trace.json"
    count = write_jsonl(events, jsonl_path)
    # ... and the saved trace renders the totals the live run printed.
    assert render_metrics(load_jsonl(jsonl_path)) == render_metrics(events)
    write_chrome_trace(events, chrome_path,
                       process_name=f"{spec.name} over 802.11ac")
    print(f"\nwrote {count} events to {jsonl_path}")
    print(f"wrote Chrome trace to {chrome_path} "
          f"(open in chrome://tracing or ui.perfetto.dev)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The paper's running example: the chess game of Figure 3.

Reproduces the three artifacts built around it:
  * Table 1 — movement computation time, smartphone vs desktop;
  * Table 3 — profiling + Equation 1 target selection;
  * the end-to-end offloaded game (user-interactive scanf moves stay on
    the phone, getAITurn runs on the server).

Run:  python examples/chess_offload.py
"""

from repro import FAST_WIFI, SLOW_WIFI
from repro.eval import render_table1, render_table3, table1_chess_gap
from repro.workloads import CHESS


def main() -> None:
    # Table 1: the mobile/desktop performance gap across difficulties.
    rows = table1_chess_gap()
    print(render_table1(rows))
    gaps = [r.gap for r in rows]
    print(f"gap range: {min(gaps):.2f}x .. {max(gaps):.2f}x "
          "(paper: 5.36x .. 5.89x)\n")

    # Table 3: what the profiler and Equation 1 decide.
    print(render_table3())
    print()

    # End-to-end: play three turns (CHESS's evaluation input: depth 5)
    # with offloaded AI.
    built = CHESS.build()
    print(f"offload targets: {built.program.target_names()}")
    local = built.local()
    print(f"\nlocal AI thinking: {local.seconds * 1e3:.1f} ms")
    for network in (FAST_WIFI, SLOW_WIFI):
        result = built.session(network).run()
        assert result.output == local.output
        print(f"{network.name:10s}: {result.total_seconds * 1e3:8.1f} ms  "
              f"speedup {local.seconds / result.total_seconds:.2f}x  "
              f"(offloaded {result.offloaded_invocations} of "
              f"{len(result.invocations)} AI turns)")


if __name__ == "__main__":
    main()

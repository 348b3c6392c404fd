"""Table 3 — profiling and Equation 1 estimation for the chess example
(R = 5, BW = 80 Mbps).

Paper narrative: runGame/getPlayerTurn are filtered (interactive scanf);
getAITurn and its outer loop are profitable; the inner per-move work is
unprofitable because it is invoked 12x more often.
"""

import pytest

from repro.eval import render_table3, table3_estimation

from conftest import run_once


@pytest.fixture(scope="module")
def rows():
    return table3_estimation()


def test_table3_regeneration(benchmark, rows):
    text = run_once(benchmark, render_table3, rows)
    print("\n" + text)
    assert "T_gain" in text


def test_filter_narrative(benchmark, rows):
    by_name = run_once(benchmark,
                       lambda: {r.candidate: r for r in rows})
    assert by_name["runGame"].filtered        # scanf via getPlayerTurn
    assert by_name["getPlayerTurn"].filtered  # scanf directly
    assert not by_name["getAITurn"].filtered


def test_equation_one_narrative(benchmark, rows):
    by_name = run_once(benchmark,
                       lambda: {r.candidate: r for r in rows})
    ai = by_name["getAITurn"]
    per_move = by_name["searchMove"]
    # The AI turn is worth offloading...
    assert ai.estimate.gain > 0
    assert ai.estimate.t_ideal == pytest.approx(ai.estimate.t_mobile * 0.8,
                                                rel=1e-6)
    # ...but the per-move search, with similar total time and far more
    # invocations, drowns in communication (the paper's for_j case).
    assert per_move.estimate.invocations > ai.estimate.invocations * 10
    assert per_move.estimate.t_comm > ai.estimate.t_comm * 10
    assert per_move.estimate.gain < 0

"""``repro.baselines.static_partition.minimum_cut`` against its reference.

``networkx`` stopped being a runtime dependency when the one
``nx.minimum_cut`` call it served became a short Edmonds–Karp; it stays,
through the ``test`` extra, as the reference these tests hold that code
to: the same partition — networkx's convention, the sink side is every
node that can still reach the sink in the residual graph — and the same
cut value up to the order the flow was summed in.  Skipped where
networkx is not installed.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.baselines.static_partition import (SINK, SOURCE,
                                              StaticPartitioner,
                                              minimum_cut)
from repro.runtime import NETWORKS
from repro.targets import ARM32, X86_64
from repro.targets.arch import performance_ratio
from repro.workloads import workload

nx = pytest.importorskip("networkx")


def _reference(capacities):
    graph = nx.DiGraph()
    graph.add_nodes_from((SOURCE, SINK))
    for u, edges in capacities.items():
        for v, capacity in edges.items():
            graph.add_edge(u, v, capacity=capacity)
    return nx.minimum_cut(graph, SOURCE, SINK)


def _random_task_graph(rng: random.Random, draw):
    """A graph of the shape ``StaticPartitioner.task_graph`` builds:
    every node hangs between source and sink, some pinned to the source
    by an ``inf`` edge, and call edges add capacity in both directions —
    twice for a pair that calls each other."""
    nodes = [f"f{i}" for i in range(rng.randint(1, 7))]
    graph = {SOURCE: {}}
    for node in nodes:
        graph[SOURCE][node] = (math.inf if rng.random() < 0.25
                               else draw(rng))
        graph[node] = {SINK: draw(rng)}
    for _ in range(rng.randint(0, 2 * len(nodes))):
        a, b = rng.choice(nodes), rng.choice(nodes)
        if a == b:
            continue
        comm = draw(rng)
        for u, v in ((a, b), (b, a)):
            graph[u][v] = graph[u].get(v, 0.0) + comm
    return graph


@pytest.mark.parametrize("seed", range(150))
def test_small_integer_capacities_tie_often_and_agree_exactly(seed):
    """Integer-valued capacities keep every sum exact, so the many ties
    (several minimum cuts, zero-capacity edges) must resolve the way
    networkx resolves them, bit for bit."""
    graph = _random_task_graph(random.Random(seed),
                               lambda rng: float(rng.randint(0, 4)))
    value, partition = minimum_cut(graph, SOURCE, SINK)
    ref_value, ref_partition = _reference(graph)
    assert value == ref_value
    assert partition == ref_partition


def _cut_capacity(capacities, source_side):
    return sum(capacity for u in source_side
               for v, capacity in capacities.get(u, {}).items()
               if v not in source_side)


@pytest.mark.parametrize("seed", range(150))
def test_real_capacities_agree_up_to_summation_order(seed):
    """With real capacities the flow is summed in another order than
    networkx sums it, so the value agrees to rounding — and the
    reference's own partition is sometimes not a minimum cut at all: it
    takes an edge for unsaturated when its flow is one ulp short of the
    capacity (most often when keeping every function on the mobile is
    optimal, so that every sink edge is full).  Ours must always be a
    minimum cut, and the reference's whenever that one is."""
    graph = _random_task_graph(random.Random(1000 + seed),
                               lambda rng: rng.expovariate(3.0))
    value, partition = minimum_cut(graph, SOURCE, SINK)
    ref_value, ref_partition = _reference(graph)
    assert value == pytest.approx(ref_value, rel=1e-12)
    assert _cut_capacity(graph, partition[0]) == pytest.approx(
        value, rel=1e-12)
    if _cut_capacity(graph, ref_partition[0]) == pytest.approx(
            ref_value, rel=1e-12):
        assert partition == ref_partition


def test_degenerate_graphs():
    assert minimum_cut({}, SOURCE, SINK) == (0.0, ({SOURCE}, {SINK}))
    with pytest.raises(ValueError, match="unbounded"):
        minimum_cut({SOURCE: {"f": math.inf}, "f": {SINK: math.inf}},
                    SOURCE, SINK)


# Programs whose optimum moves functions to the server and is strict: on
# an exact tie (458.sjeng: keeping everything on the mobile costs the
# same as the cut) the reference's answer hangs on the last ulp of its
# own flow and changes with PYTHONHASHSEED.
@pytest.mark.parametrize("name", ["164.gzip", "188.ammp", "456.hmmer"])
@pytest.mark.parametrize("network", ["802.11ac", "802.11n"])
def test_registry_programs_partition_as_networkx_partitions_them(
        name, network):
    built = workload(name).build()
    partitioner = StaticPartitioner(
        built.module, built.profile, NETWORKS[network],
        performance_ratio(X86_64, ARM32))
    ref_value, (ref_mobile, ref_server) = _reference(
        partitioner.task_graph())
    result = partitioner.partition()
    assert result.server_functions == ref_server - {SINK}
    assert result.mobile_functions == ref_mobile - {SOURCE}
    assert result.server_functions        # a non-trivial cut
    assert result.predicted_seconds == pytest.approx(ref_value, rel=1e-12)

"""Conservative static partitioning baseline (Li et al. [10], Wang & Li
[14] class).

These systems model the program as a task graph (vertices = functions,
edges = calls/data flows) and compute an optimal mobile/server partition by
min-cut.  Their weakness — the reason the paper builds a UVA + copy-on-
demand runtime instead — is *conservative static alias analysis*: for a
program with irregular data access, the partitioner must assume an
offloaded task may touch far more data than it actually does, and must pin
any function it cannot analyze (indirect calls, interactive I/O) to the
mobile device.  On regular media-style kernels the estimate is tight and
the baseline does fine; on irregular programs it grossly overpays
communication or refuses to offload at all.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Set, Tuple

from ..analysis.callgraph import CallGraph
from ..ir import instructions as inst
from ..ir.module import Module
from ..offload.filter import FunctionFilter
from ..profiler.profile_data import ProfileData
from ..runtime.network import NetworkModel

#: ``capacities[u][v]``: capacity of the directed edge u -> v.
Capacities = Dict[str, Dict[str, float]]
SOURCE, SINK = "__mobile__", "__server__"


@dataclass
class StaticPartitionResult:
    server_functions: Set[str]
    mobile_functions: Set[str]
    predicted_seconds: float
    local_seconds: float
    conservatism: float           # data over-approximation factor
    analyzable: bool              # did anything move to the server?

    @property
    def predicted_speedup(self) -> float:
        if self.predicted_seconds <= 0:
            return 0.0
        return self.local_seconds / self.predicted_seconds


class StaticPartitioner:
    """Min-cut partitioning over the task graph with conservative
    may-touch data estimates."""

    def __init__(self, module: Module, profile: ProfileData,
                 network: NetworkModel, performance_ratio: float):
        self.module = module
        self.profile = profile
        self.network = network
        self.ratio = performance_ratio
        self.callgraph = CallGraph(module)
        self.filter = FunctionFilter(module, self.callgraph,
                                     enable_remote_io=False)

    # -- conservatism model ------------------------------------------------
    def conservatism_factor(self) -> float:
        """How much a static may-touch analysis over-approximates the data
        an offloaded task uses.  Regular programs (affine array accesses)
        analyze tightly; function pointers and input-dependent control
        flow blow the bound up."""
        factor = 1.0
        has_fn_ptr = any(
            isinstance(i, inst.Call) and i.is_indirect
            for fn in self.module.defined_functions()
            for i in fn.instructions())
        if has_fn_ptr:
            factor += 3.0
        has_file_io = any(
            isinstance(i, inst.Call) and i.called_function is not None
            and i.called_function.name in ("fread", "fgets", "fgetc")
            for fn in self.module.defined_functions()
            for i in fn.instructions())
        if has_file_io:
            factor += 2.0
        return factor

    def _pinned_to_mobile(self, name: str) -> bool:
        """Functions the static analyzer cannot move: machine specific
        (no remote I/O without a runtime), containing indirect calls, or
        the entry point."""
        if name == "main":
            return True
        verdict = self.filter.verdict(name)
        if verdict.machine_specific:
            return True
        fn = self.module.get_function(name)
        if fn is None or not fn.is_definition:
            return True
        return any(isinstance(i, inst.Call) and i.is_indirect
                   for i in fn.instructions())

    # -- the min-cut --------------------------------------------------
    def task_graph(self) -> Capacities:
        """The task graph as edge capacities (seconds) between
        :data:`SOURCE` (the mobile), the profiled functions and
        :data:`SINK` (the server)."""
        conservatism = self.conservatism_factor()
        bandwidth = self.network.bandwidth_bytes_per_s
        graph: Capacities = {SOURCE: {}}

        functions = [fn.name for fn in self.module.defined_functions()
                     if self.profile.candidates.get(fn.name) is not None]

        for name in functions:
            prof = self.profile.candidates[name]
            # Exclusive (self) time approximation: inclusive time minus
            # callees' inclusive time, floored at zero.
            callees = self.callgraph.callees(name)
            callee_time = sum(
                self.profile.candidates[c].total_seconds
                for c in callees
                if c in self.profile.candidates and c != name)
            self_time = max(prof.total_seconds - callee_time, 0.0)
            mobile_cost = self_time
            server_cost = self_time / self.ratio
            # cut s->n  <=> n runs on the server (pays server cost)
            graph[SOURCE][name] = (float("inf")
                                   if self._pinned_to_mobile(name)
                                   else server_cost)
            # cut n->t  <=> n runs on the mobile device
            graph[name] = {SINK: mobile_cost}

        # Call edges: crossing the boundary costs a conservative transfer
        # of everything the callee may touch, once per invocation.
        for name in functions:
            prof = self.profile.candidates[name]
            for callee in self.callgraph.callees(name):
                cprof = self.profile.candidates.get(callee)
                if cprof is None or callee == name:
                    continue
                may_touch = cprof.memory_bytes * conservatism
                comm = (2.0 * may_touch / bandwidth
                        * max(cprof.invocations, 1))
                if comm > 0:
                    for u, v in ((name, callee), (callee, name)):
                        edges = graph.setdefault(u, {})
                        edges[v] = edges.get(v, 0.0) + comm
        return graph

    def partition(self) -> StaticPartitionResult:
        cut_value, (mobile_side, server_side) = minimum_cut(
            self.task_graph(), SOURCE, SINK)
        server_functions = server_side - {SINK}
        local_total = self.profile.program_seconds
        return StaticPartitionResult(
            server_functions=server_functions,
            mobile_functions=mobile_side - {SOURCE},
            predicted_seconds=min(cut_value, local_total),
            local_seconds=local_total,
            conservatism=self.conservatism_factor(),
            analyzable=bool(server_functions))


def minimum_cut(capacities: Capacities, source: str, sink: str
                ) -> Tuple[float, Tuple[Set[str], Set[str]]]:
    """Edmonds–Karp maximum flow, returned as ``(cut value, (source
    side, sink side))``.  Among the minimum cuts it picks the one
    ``networkx.minimum_cut`` picks — the sink side is every node that
    can still reach the sink in the residual graph — which
    ``tests/test_min_cut_differential.py`` holds it to.  Capacities may
    be ``inf`` as long as no source-to-sink path is all-infinite."""
    residual: Capacities = {u: dict(edges)
                            for u, edges in capacities.items()}
    for u, edges in capacities.items():
        for v in edges:
            residual.setdefault(v, {}).setdefault(u, 0.0)
    for node in (source, sink):
        residual.setdefault(node, {})

    value = 0.0
    while True:
        parent = {source: source}       # breadth first: shortest path
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, room in residual[u].items():
                if room > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        pushed = min(residual[u][v] for u, v in path)
        if pushed == float("inf"):
            raise ValueError("an infinite-capacity path joins source "
                             "and sink: the flow is unbounded")
        for u, v in path:
            residual[u][v] -= pushed
            residual[v][u] += pushed
        value += pushed

    sink_side = {sink}
    queue = deque([sink])
    while queue:
        v = queue.popleft()
        for u in residual[v]:           # every neighbour, either way
            if u not in sink_side and residual[u][v] > 0:
                sink_side.add(u)
                queue.append(u)
    return value, (set(residual) - sink_side, sink_side)

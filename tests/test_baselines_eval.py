"""Tests for the comparison baselines and the evaluation harness."""

import pytest

from repro.baselines import (StaticPartitioner, VMOffloadEstimate,
                             can_offload_native)
from repro.eval import (TABLE5_SYSTEMS, format_table, geomean,
                        render_table2, render_table5, sparkline,
                        table2_native_ratios, table3_estimation,
                        table5_system_comparison)
from repro.frontend import compile_c
from repro.profiler import profile_module
from repro.runtime import FAST_WIFI, SLOW_WIFI

from conftest import HOT_KERNEL_SRC, HOT_KERNEL_STDIN

IRREGULAR_SRC = r"""
typedef int (*FN)(int);
int a(int x) { return x + 1; }
int b(int x) { return x * 2; }
FN table[2] = { a, b };
int *data;
int kernel(int n) {
    int i, acc = 0;
    for (i = 0; i < n; i++) acc += table[acc & 1](data[i % 128]);
    return acc;
}
int main() {
    int i;
    data = (int*) malloc(128 * sizeof(int));
    for (i = 0; i < 128; i++) data[i] = i;
    printf("%d\n", kernel(3000));
    return 0;
}
"""


class TestStaticPartitioner:
    def _partition(self, src, network=FAST_WIFI, stdin=b""):
        module = compile_c(src, "m")
        profile = profile_module(module, stdin=stdin)
        return StaticPartitioner(module, profile, network, 5.8).partition()

    def test_regular_program_partitions_to_server(self):
        result = self._partition(HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN)
        assert "crunch" in result.server_functions
        assert "main" in result.mobile_functions
        assert result.predicted_speedup > 1.0

    def test_conservatism_penalizes_irregular_programs(self):
        module = compile_c(IRREGULAR_SRC, "m")
        profile = profile_module(module)
        part = StaticPartitioner(module, profile, FAST_WIFI, 5.8)
        assert part.conservatism_factor() > 1.0

    def test_indirect_call_functions_pinned(self):
        module = compile_c(IRREGULAR_SRC, "m")
        profile = profile_module(module)
        part = StaticPartitioner(module, profile, FAST_WIFI, 5.8)
        assert part._pinned_to_mobile("kernel")   # has an indirect call
        result = part.partition()
        assert "kernel" in result.mobile_functions

    def test_prediction_never_worse_than_local(self):
        result = self._partition(HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN)
        assert result.predicted_seconds <= result.local_seconds

    def test_slow_network_keeps_more_on_mobile(self):
        fast = self._partition(HOT_KERNEL_SRC, FAST_WIFI,
                               HOT_KERNEL_STDIN)
        slow = self._partition(HOT_KERNEL_SRC, SLOW_WIFI,
                               HOT_KERNEL_STDIN)
        assert len(slow.server_functions) <= len(fast.server_functions)


class TestVMOffloadBaseline:
    def test_vm_route_slower_than_native_local_for_modest_kernels(self):
        est = VMOffloadEstimate(native_local_seconds=1.0)
        # 6.2x interpretation tax vs ~5.8x server gain: the VM route
        # cannot beat native local execution end-to-end.
        assert est.speedup_vs_native_local < 1.5

    def test_vm_local_pays_interpretation_tax(self):
        est = VMOffloadEstimate(native_local_seconds=2.0)
        assert est.vm_local_seconds == pytest.approx(2.0 * 6.2)

    def test_offload_helps_the_vm_app(self):
        est = VMOffloadEstimate(native_local_seconds=1.0)
        assert est.vm_offload_seconds < est.vm_local_seconds

    def test_vm_systems_cannot_offload_native(self):
        for system in TABLE5_SYSTEMS:
            if system.requires_vm:
                assert not can_offload_native(system.requires_vm)
        native = next(s for s in TABLE5_SYSTEMS
                      if s.system == "Native Offloader")
        assert can_offload_native(native.requires_vm)


class TestEvalHarness:
    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [(1, 2.5), ("xx", "y")])
        lines = text.split("\n")
        assert len({len(l) for l in lines}) == 1  # rectangular

    def test_sparkline_length(self):
        assert len(sparkline([1.0] * 10, width=60)) == 10
        assert len(sparkline(list(range(200)), width=60)) == 60

    def test_table2_data_and_render(self):
        apps = table2_native_ratios()
        assert len(apps) == 20
        text = render_table2()
        assert "Firefox" in text and "52.19%" in text

    def test_table5_has_fourteen_systems(self):
        assert len(table5_system_comparison()) == 14
        text = render_table5()
        assert "Native Offloader" in text
        assert text.count("Yes") >= 12

    def test_table3_reproduces_paper_narrative(self):
        rows = table3_estimation()
        by_name = {r.candidate: r for r in rows}
        # runGame is machine specific (scanf via getPlayerTurn)
        assert by_name["runGame"].filtered
        # getAITurn is profitable and offloadable
        assert not by_name["getAITurn"].filtered
        assert by_name["getAITurn"].estimate.gain > 0
        # searchMove's invocation count makes it unprofitable
        assert by_name["searchMove"].estimate.gain < 0
        assert by_name["searchMove"].estimate.invocations > \
            by_name["getAITurn"].estimate.invocations

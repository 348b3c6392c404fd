"""Ablation A1 — memory-unification components on/off.

DESIGN.md calls out heap replacement, referenced-global reallocation and
layout realignment as the correctness-critical design choices; disabling
each must break (or visibly degrade) cross-architecture execution, and the
full configuration must stay byte-exact.
"""

import pytest

from repro.machine import SegmentationFault
from repro import WorkloadSpec
from repro.offload import CompilerOptions
from repro.runtime import FAST_WIFI, SessionOptions
from repro.targets import ARM32, X86

from conftest import build_on_profiling_input, run_once

SPEC_NAME = "456.hmmer"


def run_variant(compiler_options, session_options=None, name=SPEC_NAME):
    built = build_on_profiling_input(name, compiler_options)
    local = built.local()
    session = built.session(FAST_WIFI, session_options or SessionOptions(
        enable_dynamic_estimation=False))
    return local, session.run(), built.program


def test_full_unification_is_exact(benchmark):
    local, result, _ = run_once(benchmark, run_variant, CompilerOptions())
    assert result.output == local.output
    assert result.offloaded_invocations >= 1


def test_without_global_reallocation(benchmark):
    """Server-side reads of the mobile device's globals see the server's
    own stale/NULL copies — crash or wrong output."""
    def attempt():
        try:
            local, result, _ = run_variant(
                CompilerOptions(enable_global_realloc=False))
            return local.stdout, result.stdout, None
        except SegmentationFault as fault:
            return None, None, fault
    local_out, offload_out, fault = run_once(benchmark, attempt)
    assert fault is not None or offload_out != local_out


def test_without_heap_replacement(benchmark):
    """Without u_malloc, both libc heaps occupy the same virtual range —
    server allocations collide with mobile objects."""
    def attempt():
        try:
            local, result, _ = run_variant(
                CompilerOptions(enable_heap_replacement=False))
            return local.stdout, result.stdout, None
        except SegmentationFault as fault:
            return None, None, fault
    local_out, offload_out, fault = run_once(benchmark, attempt)
    assert fault is not None or offload_out != local_out


def test_without_layout_realignment_cross_abi(benchmark):
    """ARM32 -> IA32: struct offsets disagree (Figure 4); pinning only the
    consumer to the server exposes the mismatch."""
    src = r"""
    typedef struct { char tag; double score; } Rec;
    Rec *recs;
    double total(int n) {
        double s = 0.0;
        int i;
        for (i = 0; i < n; i++) s += recs[i].score;
        return s;
    }
    int main() {
        int n, i;
        scanf("%d", &n);
        recs = (Rec*) malloc(n * sizeof(Rec));
        for (i = 0; i < n; i++) { recs[i].tag = 1; recs[i].score = i; }
        printf("%.1f\n", total(n));
        return 0;
    }
    """
    spec = WorkloadSpec(name="rec", description="", source=src,
                        profile_stdin=b"3000\n", eval_stdin=b"3000\n",
                        forced_targets=("total",))

    def attempt(realign):
        built = spec.build(CompilerOptions(
            mobile_arch=ARM32, server_arch=X86,
            enable_layout_realignment=realign))
        session = built.session(FAST_WIFI, SessionOptions(
            enable_dynamic_estimation=False))
        return built.local().stdout, session.run().stdout

    local_out, broken_out = run_once(benchmark, attempt, False)
    assert broken_out != local_out
    local_out2, fixed_out = attempt(True)
    assert fixed_out == local_out2


def test_without_stack_reallocation(benchmark):
    """Overlapping stacks: the server's frames shadow the mobile stack
    addresses its arguments point into."""
    def attempt():
        try:
            local, result, _ = run_variant(
                CompilerOptions(),
                SessionOptions(enable_dynamic_estimation=False,
                               enable_stack_reallocation=False),
                name="183.equake")
            return local.stdout, result.stdout, None
        except SegmentationFault as fault:
            return None, None, fault
    local_out, offload_out, fault = run_once(benchmark, attempt)
    assert fault is not None or offload_out != local_out

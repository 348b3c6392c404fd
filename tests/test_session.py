"""End-to-end tests of the offload session: semantics preservation,
decision making, overhead accounting, and the unification ablations."""

import pytest

from repro.offload import CompilerOptions
from repro.runtime import (FAST_WIFI, IDEAL_NETWORK, SLOW_WIFI,
                           NetworkModel, SessionOptions)
from repro.targets.arch import performance_ratio

from conftest import HOT_KERNEL_SRC, HOT_KERNEL_STDIN, build_c, offload_c

FN_PTR_SRC = r"""
typedef int (*OP)(int);
int twice(int x) { return 2 * x; }
int square(int x) { return x * x; }
OP ops[2] = { twice, square };

int kernel(int n) {
    int i, acc = 0;
    for (i = 0; i < n; i++) {
        OP op = ops[i & 1];
        acc += op(i);
    }
    return acc;
}

int main() {
    int n;
    scanf("%d", &n);
    printf("%d\n", kernel(n));
    return 0;
}
"""

REMOTE_IO_SRC = r"""
int *data;
int kernel(int n, void *f) {
    char line[32];
    int i, acc = 0;
    while (fgets(line, 32, f)) acc += atoi(line);
    for (i = 0; i < n; i++) acc += data[i % 64] * i;
    printf("acc %d\n", acc);
    return acc;
}
int main() {
    int i, n;
    void *f;
    scanf("%d", &n);
    data = (int*) malloc(64 * sizeof(int));
    for (i = 0; i < 64; i++) data[i] = i;
    f = fopen("nums.txt", "r");
    if (!f) return 1;
    printf("%d\n", kernel(n, f));
    fclose(f);
    return 0;
}
"""
REMOTE_IO_FILES = {"nums.txt": b"1\n2\n3\n4\n"}


class TestSemanticsPreservation:
    def test_output_identical_on_every_network(self):
        for network in (IDEAL_NETWORK, FAST_WIFI, SLOW_WIFI):
            local, result, program = offload_c(
                HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN, network=network)
            assert result.output == local.output
            assert local.exit_code == 0

    def test_fn_ptr_program_offloads_correctly(self):
        local, result, program = offload_c(FN_PTR_SRC, stdin=b"4000\n")
        assert program.fn_ptr_sites > 0
        assert result.output == local.output
        assert result.offloaded_invocations >= 1
        assert result.fnptr_seconds > 0

    def test_remote_io_program(self):
        local, result, program = offload_c(
            REMOTE_IO_SRC, stdin=b"5000\n", files=dict(REMOTE_IO_FILES))
        assert program.remote_io_sites > 0
        assert result.output == local.output
        assert result.remote_io_seconds > 0

    @staticmethod
    def _offload_crunch_with(statement, files=None, prologue=""):
        """The hot kernel with ``statement`` run inside the offloaded
        ``crunch`` (``prologue`` runs in ``main`` before it; both may
        use the global ``void *ro``): the local result, the traced
        session and its result."""
        src = "void *ro;\n" + HOT_KERNEL_SRC.replace(
            "    return acc;\n", f"    {statement}\n    return acc;\n")
        src = src.replace("    printf(", f"    {prologue}\n    printf(")
        assert statement in src and prologue in src
        built = build_c(src, HOT_KERNEL_STDIN, files,
                        compiler_options=CompilerOptions(
                            forced_targets=["crunch"]))
        session = built.session(FAST_WIFI,
                                SessionOptions(enable_tracing=True))
        result = session.run()
        assert result.offloaded_invocations == 1
        return built.local(), session, result

    def test_remote_fprintf_to_stderr_stays_off_stdout(self):
        """``fprintf((void*)2, ...)`` in an offloaded target lands on
        the mobile's stderr, exactly where local libc routes handle 2 —
        not in the offloaded run's stdout."""
        local, session, result = self._offload_crunch_with(
            'fprintf((void*)2, "diag %d\\n", acc);')
        assert result.output == local.output
        acc = local.stdout.split()[1]
        assert result.output.stderr == b"diag %s\n" % acc.encode()
        ops = result.trace.events("rio.op")
        assert [e.name for e in ops] == ["fprintf"]

    def test_remote_fprintf_to_read_only_file_returns_zero(self):
        """``fprintf`` to a file opened ``"r"`` writes nothing and
        returns 0 — offloaded exactly as locally (the forwarder once
        returned the formatted length instead)."""
        local, session, result = self._offload_crunch_with(
            'acc += 1000 * fprintf(ro, "diag %d\\n", acc);',
            files={"ro.txt": b"keep\n"},
            prologue='ro = fopen("ro.txt", "r");')
        assert result.output == local.output
        assert result.output.files["ro.txt"] == b"keep\n"

    def test_remote_fwrite_to_unopened_handle_reads_nothing(self):
        """``fwrite`` to a handle that is not an open file returns 0
        without touching its buffer — offloaded as locally, so a wild
        pointer neither faults on the server nor is billed as output."""
        local, _, result = self._offload_crunch_with(
            "acc += fwrite((void*)8, 1, 64, (void*)99);")
        assert result.output == local.output
        [op] = result.trace.events("rio.op")
        assert (op.name, op.payload["bytes"]) == ("fwrite", 0)

    def test_mutated_heap_written_back(self):
        src = r"""
        int *buf;
        int fill(int n) {
            int i;
            for (i = 0; i < n; i++) buf[i] = i * i;
            return buf[n - 1];
        }
        int main() {
            int n, i, check = 0;
            scanf("%d", &n);
            buf = (int*) malloc(n * sizeof(int));
            fill(n);
            /* read the server-written data back on the mobile side */
            for (i = 0; i < n; i += 7) check += buf[i];
            printf("%d\n", check);
            return 0;
        }
        """
        local, result, program = offload_c(src, stdin=b"9000\n")
        assert result.output == local.output
        assert result.offloaded_invocations == 1
        assert result.bytes_to_mobile > 9000 * 4 / 2  # dirty write-back


class TestDecisions:
    def test_always_offload_without_dynamic_estimation(self):
        local, result, _ = offload_c(
            HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN,
            session_options=SessionOptions(
                enable_dynamic_estimation=False))
        assert all(r.offloaded for r in result.invocations)
        assert result.offloaded_invocations >= 1

    def test_terrible_network_declined(self):
        dialup = NetworkModel("dialup", bandwidth_bps=56e3, latency_s=0.2,
                              slow=True)
        local, result, _ = offload_c(HOT_KERNEL_SRC,
                                     stdin=HOT_KERNEL_STDIN,
                                     network=dialup)
        assert result.offloaded_invocations == 0
        assert result.output == local.output

    def test_fast_network_speedup(self):
        local, result, _ = offload_c(HOT_KERNEL_SRC,
                                     stdin=HOT_KERNEL_STDIN)
        assert local.seconds / result.total_seconds > 1.5

    def test_ideal_speedup_approaches_ratio(self):
        local, result, program = offload_c(
            HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN, network=IDEAL_NETWORK,
            session_options=SessionOptions(zero_overhead=True))
        speedup = local.seconds / result.total_seconds
        ratio = performance_ratio(program.options.server_arch,
                                  program.options.mobile_arch)
        assert 0.6 * ratio < speedup <= ratio * 1.02


class TestAccounting:
    def test_breakdown_sums_close_to_total(self):
        _, result, _ = offload_c(HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN)
        parts = sum(result.breakdown().values())
        assert parts == pytest.approx(result.total_seconds, rel=0.15)

    def test_energy_positive_and_traced(self):
        _, result, _ = offload_c(HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN)
        assert result.energy_mj > 0
        assert result.power_trace.total_energy_mj == pytest.approx(
            result.energy_mj)
        states = {iv.state for iv in result.power_trace.intervals}
        assert "compute" in states
        assert "wait" in states

    def test_invocation_records(self):
        _, result, _ = offload_c(HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN)
        offloaded = [r for r in result.invocations if r.offloaded]
        assert offloaded
        record = offloaded[0]
        assert record.bytes_to_server > 0
        assert record.server_seconds > 0
        assert record.init_seconds > 0

    def test_offload_saves_energy_on_fast_network(self):
        local, result, _ = offload_c(HOT_KERNEL_SRC,
                                     stdin=HOT_KERNEL_STDIN)
        local_energy = local.energy_mj
        assert result.energy_mj < local_energy * 0.6


class TestUnificationAblations:
    """Disabling unification components must break cross-machine
    execution — that is the paper's whole argument."""

    GLOBAL_DEP_SRC = r"""
    int knob;
    int *buf;
    int kernel(int n) {
        int i, acc = 0;
        for (i = 0; i < n; i++) acc += buf[i % 256] * knob;
        return acc;
    }
    int main() {
        int n, i;
        scanf("%d %d", &knob, &n);
        buf = (int*) malloc(256 * sizeof(int));
        for (i = 0; i < 256; i++) buf[i] = i;
        printf("%d\n", kernel(n));
        return 0;
    }
    """

    def test_without_global_realloc_server_crashes_or_miscomputes(self):
        # The server resolves @buf/@knob to *its own* globals (different
        # back-end addresses): buf is NULL there, so the offloaded kernel
        # dereferences NULL — or, at best, computes garbage.
        from repro.machine import SegmentationFault
        try:
            local, result, _ = offload_c(
                self.GLOBAL_DEP_SRC, stdin=b"5 6000\n",
                compiler_options=CompilerOptions(
                    enable_global_realloc=False,
                    forced_targets=["kernel"]),
                session_options=SessionOptions(
                    enable_dynamic_estimation=False))
        except SegmentationFault:
            return  # NULL dereference on the server: expected failure
        assert result.output != local.output

    def test_with_global_realloc_correct(self):
        local, result, _ = offload_c(
            self.GLOBAL_DEP_SRC, stdin=b"5 6000\n",
            session_options=SessionOptions(
                enable_dynamic_estimation=False))
        assert result.output == local.output

    def test_without_layout_realignment_cross_abi_breaks(self):
        from repro.targets import ARM32, X86
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
        # Force only the reading kernel to the server: the data is then
        # written under the ARM layout and read under the IA32 layout.
        broken = CompilerOptions(mobile_arch=ARM32, server_arch=X86,
                                 enable_layout_realignment=False,
                                 forced_targets=["total"])
        local, result, _ = offload_c(
            src, stdin=b"3000\n", compiler_options=broken,
            session_options=SessionOptions(
                enable_dynamic_estimation=False))
        # IA32 reads Move.score at offset 4 while ARM wrote it at 8:
        # garbage values (Figure 4's failure mode)
        assert result.output != local.output

    def test_with_layout_realignment_cross_abi_works(self):
        from repro.targets import ARM32, X86
        src = self.GLOBAL_DEP_SRC
        local, result, _ = offload_c(
            src, stdin=b"3 5000\n",
            compiler_options=CompilerOptions(mobile_arch=ARM32,
                                             server_arch=X86),
            session_options=SessionOptions(
                enable_dynamic_estimation=False))
        assert result.output == local.output


class TestCommAblations:
    def test_prefetch_off_forces_cod(self):
        local, with_pf, _ = offload_c(HOT_KERNEL_SRC,
                                      stdin=HOT_KERNEL_STDIN)
        _, without_pf, _ = offload_c(
            HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN,
            session_options=SessionOptions(enable_prefetch=False))
        assert without_pf.cod_faults > with_pf.cod_faults
        assert without_pf.output == local.output

    def test_batching_off_costs_more_time(self):
        _, batched, _ = offload_c(HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN,
                                  network=SLOW_WIFI)
        _, unbatched, _ = offload_c(
            HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN, network=SLOW_WIFI,
            session_options=SessionOptions(
                enable_batching=False,
                enable_dynamic_estimation=False))
        if batched.offloaded_invocations and \
                unbatched.offloaded_invocations:
            assert unbatched.comm_seconds >= batched.comm_seconds

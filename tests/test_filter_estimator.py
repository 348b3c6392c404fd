"""Tests for the function filter and the static performance estimator —
including the paper's exact Table 3 arithmetic."""

import pytest

from repro.analysis import LoopInfo
from repro.frontend import compile_c
from repro.offload import EstimatorParams, FunctionFilter, mbps
from repro.profiler.profile_data import CandidateProfile


class TestFunctionFilter:
    SRC = r"""
    int pure_math(int x) { return x * x + 1; }
    int reads_user(void) { int v; scanf("%d", &v); return v; }
    int prints(int x) { printf("%d\n", x); return x; }
    int reads_file(void) {
        void *f = fopen("a.txt", "r");
        int c = f ? fgetc(f) : 0;
        if (f) fclose(f);
        return c;
    }
    int calls_scanf_transitively(void) { return reads_user() + 1; }
    int main() { return pure_math(reads_user()) + prints(1) + reads_file()
                        + calls_scanf_transitively(); }
    """

    @pytest.fixture(scope="class")
    def filt(self):
        return FunctionFilter(compile_c(self.SRC, "m"))

    def test_pure_function_offloadable(self, filt):
        assert filt.is_offloadable("pure_math")

    def test_interactive_input_machine_specific(self, filt):
        verdict = filt.verdict("reads_user")
        assert verdict.machine_specific
        assert any("scanf" in r for r in verdict.reasons)

    def test_output_remotely_executable(self, filt):
        assert filt.is_offloadable("prints")

    def test_file_input_remotely_executable(self, filt):
        assert filt.is_offloadable("reads_file")

    def test_transitive_contamination(self, filt):
        verdict = filt.verdict("calls_scanf_transitively")
        assert verdict.machine_specific
        assert any("via reads_user" in r for r in verdict.reasons)

    def test_main_contaminated(self, filt):
        assert not filt.is_offloadable("main")

    def test_remote_io_disabled_pins_output(self):
        filt = FunctionFilter(compile_c(self.SRC, "m"),
                              enable_remote_io=False)
        assert not filt.is_offloadable("prints")
        assert not filt.is_offloadable("reads_file")

    def test_sprintf_is_memory_only(self):
        # it formats into guest memory, so no I/O setting pins it
        src = r"""
        char buf[16];
        int fmt(int v) { return sprintf(buf, "%d", v); }
        int main() { return fmt(7); }
        """
        filt = FunctionFilter(compile_c(src, "m"), enable_remote_io=False)
        assert filt.is_offloadable("fmt"), filt.verdict("fmt").reasons

    def test_unknown_external_machine_specific(self):
        src = """
        extern int mystery_syscall(int);
        int main() { return 0; }
        """
        # externs declared via prototypes:
        src = ("int mystery(int x);\n"
               "int uses(void) { return mystery(1); }\n"
               "int main() { return uses(); }")
        filt = FunctionFilter(compile_c(src, "m"))
        verdict = filt.verdict("uses")
        assert verdict.machine_specific
        assert any("unknown external" in r for r in verdict.reasons)

    def test_loop_classification_follows_callees(self):
        src = r"""
        int ask(void) { int v; scanf("%d", &v); return v; }
        int main() {
            int i, s = 0;
            for (i = 0; i < 3; i++) s += ask();
            return s;
        }
        """
        module = compile_c(src, "m")
        filt = FunctionFilter(module)
        info = LoopInfo(module.function("main"))
        verdict = filt.classify_loop(info.loops[0])
        assert verdict.machine_specific


class TestEquationOne:
    """The estimator must reproduce the paper's Table 3 numbers exactly:
    R=5, BW=80 Mbps."""

    @pytest.fixture(scope="class")
    def estimator(self):
        return EstimatorParams(performance_ratio=5.0,
                               bandwidth_bytes_per_s=mbps(80))

    def _profile(self, name, seconds, invocations, mem_mb):
        prof = CandidateProfile(name, "function", name)
        prof.total_seconds = seconds
        prof.invocations = invocations
        prof.pages_touched = set(range(int(mem_mb * 1e6 / 4096)))
        return prof

    def test_getAITurn_row(self, estimator):
        # Table 3: Exec 26.0 s, 3 invocations, 12 MB
        prof = self._profile("getAITurn", 26.0, 3, 12.0)
        prof.pages_touched = set(range(12_000_000 // 4096))
        est = estimator.estimate(prof)
        # T_ideal = 26 * (1 - 1/5) = 20.8
        assert est.t_ideal == pytest.approx(20.8, rel=1e-3)
        # T_c = 2 * 12MB / 10MB/s * 3 = 7.2 s ... with page-rounded memory
        assert est.t_comm == pytest.approx(7.2, rel=0.01)
        assert est.gain == pytest.approx(13.6, rel=0.01)
        assert est.gain > 0

    def test_for_j_row_unprofitable(self, estimator):
        # Table 3: for_j 25.0 s, 36 invocations, 12 MB -> Tg = -66.4
        prof = self._profile("for_j", 25.0, 36, 12.0)
        prof.pages_touched = set(range(12_000_000 // 4096))
        est = estimator.estimate(prof)
        assert est.t_ideal == pytest.approx(20.0, rel=1e-3)
        assert est.t_comm == pytest.approx(86.4, rel=0.01)
        assert est.gain == pytest.approx(-66.4, rel=0.01)
        assert not est.gain > 0

    def test_getPlayerTurn_row_unprofitable(self, estimator):
        # Table 3: 1.5 s, 3 invocations, 10 MB -> Tg = -4.8
        prof = self._profile("getPlayerTurn", 1.5, 3, 10.0)
        prof.pages_touched = set(range(10_000_000 // 4096))
        est = estimator.estimate(prof)
        assert est.gain == pytest.approx(-4.8, rel=0.01)

    def test_monotonic_in_bandwidth(self):
        prof = self._profile("x", 10.0, 1, 5.0)
        gains = []
        for bw in (10, 40, 160, 640):
            est = EstimatorParams(5.0, mbps(bw)).estimate(prof)
            gains.append(est.gain)
        assert gains == sorted(gains)

    def test_monotonic_in_ratio(self):
        prof = self._profile("x", 10.0, 1, 1.0)
        gains = []
        for ratio in (1.5, 3, 6, 12):
            est = EstimatorParams(ratio, mbps(80)).estimate(prof)
            gains.append(est.gain)
        assert gains == sorted(gains)

    def test_a_slower_server_is_legal_and_never_profitable(self):
        # R <= 1: Equation 1 is still computed, and reports a loss.
        est = EstimatorParams(0.5, mbps(80)).estimate(
            self._profile("x", 10.0, 1, 1.0))
        assert est.t_ideal == pytest.approx(-10.0)
        assert not est.gain > 0

    def test_invalid_params_rejected(self):
        for ratio in (0.0, -2.0, float("nan")):
            with pytest.raises(ValueError):
                EstimatorParams(performance_ratio=ratio,
                                bandwidth_bytes_per_s=1e6)
        with pytest.raises(ValueError):
            EstimatorParams(performance_ratio=5.0,
                            bandwidth_bytes_per_s=0)

    def test_mbps_conversion(self):
        assert mbps(80) == pytest.approx(10e6)

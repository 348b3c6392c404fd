"""Full-pipeline integration tests on real workloads (profiling inputs,
to stay fast) plus the public one-call API."""

import dataclasses

import pytest

import repro
from repro.runtime import FAST_WIFI, IDEAL_NETWORK, SLOW_WIFI
from repro.workloads import workload


def run_full(name, networks=(FAST_WIFI,)):
    spec = workload(name)
    built = dataclasses.replace(spec, eval_stdin=spec.profile_stdin,
                                eval_files=spec.profile_files).build()
    results = {network.name: built.session(network).run()
               for network in networks}
    return built.local(), results, built.program


@pytest.mark.parametrize("name", ["456.hmmer", "462.libquantum",
                                  "175.vpr", "chess"])
def test_offload_preserves_output(name):
    local, results, _ = run_full(name, (IDEAL_NETWORK, FAST_WIFI,
                                        SLOW_WIFI))
    for label, result in results.items():
        assert result.output == local.output, f"{name} on {label}"


def test_hmmer_offloads_and_wins():
    local, results, program = run_full("456.hmmer")
    result = results[FAST_WIFI.name]
    assert result.offloaded_invocations == 1
    assert result.total_seconds < local.seconds
    assert result.energy_mj < local.energy_mj


def test_gobmk_pays_remote_io_and_fn_ptr(

):
    local, results, program = run_full("445.gobmk")
    result = results[FAST_WIFI.name]
    assert program.fn_ptr_sites > 0
    assert program.remote_io_sites > 0
    assert result.output == local.output
    assert result.remote_io_seconds > 0
    assert result.fnptr_seconds > 0


def test_twolf_reads_cell_file_remotely():
    local, results, _ = run_full("300.twolf")
    result = results[FAST_WIFI.name]
    assert result.output == local.output
    assert result.remote_io_seconds > 0


def test_equake_loop_outlined_and_offloaded():
    local, results, program = run_full("183.equake")
    assert any(t.kind == "loop" for t in program.targets)
    assert program.outlined_loops
    result = results[FAST_WIFI.name]
    assert result.output == local.output
    assert result.offloaded_invocations >= 1


def test_public_offload_app_api():
    src = r"""
    int work(int n) {
        int i, acc = 0;
        for (i = 0; i < n; i++) acc += i * i;
        return acc;
    }
    int main() {
        int n;
        scanf("%d", &n);
        printf("%d\n", work(n));
        return 0;
    }
    """
    result = repro.offload_app(src, stdin=b"20000\n")
    assert result.exit_code == 0
    assert result.stdout.strip().lstrip("-").isdigit()
    assert result.offloaded_invocations >= 1


def test_version_exposed():
    assert repro.__version__

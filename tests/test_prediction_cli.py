"""Tests for the NWSLite-style bandwidth predictor, the cloudlet network
comparison, and the command-line interface."""

import pytest

from repro.runtime import (BandwidthPredictor, CLOUD_WAN, FAST_WIFI,
                           SessionOptions)

from conftest import HOT_KERNEL_SRC, HOT_KERNEL_STDIN, offload_c


class TestBandwidthPredictor:
    def test_falls_back_until_warm(self):
        predictor = BandwidthPredictor()
        assert predictor.predict_bps(100e6) == 100e6
        predictor.observe_transfer(100_000, 0.01)   # 80 Mbps
        assert predictor.predict_bps(100e6) == 100e6  # still 1 sample

    def test_converges_on_stable_link(self):
        predictor = BandwidthPredictor()
        for _ in range(10):
            predictor.observe_transfer(100_000, 0.01)   # 80 Mbps
        assert predictor.predict_bps(400e6) == pytest.approx(80e6,
                                                             rel=0.05)

    def test_tracks_degrading_link(self):
        predictor = BandwidthPredictor()
        for _ in range(6):
            predictor.observe_transfer(100_000, 0.01)   # 80 Mbps
        for _ in range(6):
            predictor.observe_transfer(100_000, 0.08)   # 10 Mbps
        assert predictor.predict_bps(80e6) < 30e6

    def test_recovers_quickly_after_outlier(self):
        predictor = BandwidthPredictor()
        for _ in range(8):
            predictor.observe_transfer(100_000, 0.01)
        predictor.observe_transfer(100_000, 1.0)  # one stall
        predictor.observe_transfer(100_000, 0.01)
        # one good sample is enough for the ensemble to discard the
        # stall (the robust forecasters outrank last-value again)
        assert predictor.predict_bps(80e6) > 20e6

    def test_small_control_messages_ignored(self):
        predictor = BandwidthPredictor()
        for _ in range(20):
            predictor.observe_transfer(64, 0.002)
        assert predictor.samples == 0
        assert predictor.predict_bps(80e6) == 80e6

    def test_error_tracking(self):
        predictor = BandwidthPredictor()
        for i in range(12):
            predictor.observe_transfer(100_000, 0.01)
        assert predictor.mean_relative_error < 0.10

    def test_session_integration(self):
        local, result, _ = offload_c(
            HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN,
            session_options=SessionOptions(
                enable_bandwidth_prediction=True))
        assert result.output == local.output


class TestCloudletComparison:
    def test_nearby_server_beats_distant_cloud(self):
        """Section 6 / Cloudlet: a WLAN-attached server beats a WAN cloud
        because per-offload latency dominates for interactive tasks."""
        _, cloudlet, _ = offload_c(HOT_KERNEL_SRC,
                                   stdin=HOT_KERNEL_STDIN,
                                   network=FAST_WIFI)
        _, cloud, _ = offload_c(HOT_KERNEL_SRC, stdin=HOT_KERNEL_STDIN,
                                network=CLOUD_WAN)
        assert cloudlet.output == cloud.output
        if cloud.offloaded_invocations:
            assert cloudlet.total_seconds < cloud.total_seconds


class TestCLI:
    def test_list(self, capsys):
        from repro.__main__ import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "458.sjeng" in out and "chess" in out

    def test_compile(self, capsys):
        from repro.__main__ import main
        assert main(["compile", "456.hmmer"]) == 0
        out = capsys.readouterr().out
        assert "main_loop_serial" in out

    @pytest.mark.parametrize("name,target", [("fleet-micro", "crunch"),
                                             ("parallel-micro", "smooth")])
    def test_compile_accepts_the_built_in_kernels(self, name, target,
                                                  capsys):
        """They are registry entries: what ``run`` takes, ``compile``
        takes."""
        from repro.__main__ import main
        assert main(["compile", name]) == 0
        assert f"offload targets : {target}" in capsys.readouterr().out

    def test_run(self, capsys):
        from repro.__main__ import main
        assert main(["run", "462.libquantum"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "identical" in out

    def test_run_unknown_network(self, capsys):
        from repro.__main__ import main
        assert main(["run", "chess", "--network", "carrier-pigeon"]) == 2

    @pytest.mark.parametrize("line", [
        "fleet --servers 0 --devices 2",
        "fleet --devices 2 --capacity 0",
        "fleet --devices 2 --cloud-servers 1 --cloud-speed 0",
        "fleet --devices 2 --cloud-servers -1",
        "fleet --devices 2 --autoscale --autoscale-max 0",
        "fleet --devices 2 --spacing -1",
        "fleet --devices -3",
        "run nosuch",
        "fleet --devices 2 --workload nosuch",
        "trace chess --capacity 0",
        "trace chess --tail -2",
        "trace chess --categories nosuch",
        "trace chess --categories decision,,estimate",
        "fleet --devices 2 --deadline -1",
        "table 9",
        "figure 9",
    ])
    def test_bad_value_is_a_one_line_error(self, line, capsys):
        """A bad flag value exits 2 with one ``repro: error:`` line —
        never a traceback, never a silently empty simulation."""
        from repro.__main__ import main
        assert main(line.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("line", [
        f"fleet --{flag}=nan"
        for flag in ("drop-rate", "jitter", "disconnect-rate",
                     "reconnect-rate", "spacing", "cloud-speed",
                     "deadline", "autoscale-interval")
    ] + ["fleet --jitter=inf",
         "fleet --spacing=-inf", "run chess --jitter=1e999",
         "trace chess --drop-rate=often"])
    def test_float_flags_must_be_finite(self, line, capsys):
        """``nan`` and ``inf`` are floats no simulation can consume
        (a NaN tick runs the clock backwards): argparse refuses them,
        naming the flag."""
        from repro.__main__ import main
        with pytest.raises(SystemExit) as refused:
            main(line.split())
        assert refused.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        flag = line.split("--")[-1].split("=")[0]
        assert f"error: argument --{flag}: " in last
        assert "must be a finite number" in last
        assert "Traceback" not in captured.err

    def test_no_flag_parses_a_bare_float(self):
        """A float flag added later takes the shared type too."""
        import inspect

        import repro.__main__ as cli
        assert "type=float" not in inspect.getsource(cli)

    def test_gate_and_device_validate_where_the_value_is_consumed(self):
        """A device's deadline is checked by DeviceSpec itself, not only
        by the flag that sets it."""
        from repro.fleet import DeviceSpec
        for bad in (float("nan"), -1.0, 0.0):
            with pytest.raises(ValueError, match="deadline"):
                DeviceSpec("dev", None, None, deadline_s=bad)
        assert DeviceSpec("dev", None, None, deadline_s=0.5).deadline_s

    @pytest.mark.parametrize("flag", ["--jsonl", "--chrome"])
    def test_unwritable_trace_output_is_a_one_line_error(
            self, flag, tmp_path, capsys):
        from repro.__main__ import main
        path = tmp_path / "no-such-dir" / "trace.out"
        assert main(["trace", "fleet-micro", flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and str(path) in err
        assert len(err.splitlines()) == 1

    def test_run_and_trace_declare_the_same_session_flags(self):
        """``workload``, ``--network``, ``--shards`` and the fault knobs
        come from one ``_add_session_args``: whatever ``run`` accepts,
        ``trace`` accepts with the same defaults."""
        from repro.__main__ import build_parser
        parser = build_parser()
        run = vars(parser.parse_args(["run", "chess"]))
        trace = vars(parser.parse_args(["trace", "chess"]))
        run.pop("func"), run.pop("command")
        assert run and all(trace[key] == run[key] for key in run)

    def test_table_2_and_5(self, capsys):
        from repro.__main__ import main
        assert main(["table", "2"]) == 0
        assert main(["table", "5"]) == 0
        out = capsys.readouterr().out
        assert "Firefox" in out and "Native Offloader" in out

    def test_table_invalid(self, capsys):
        from repro.__main__ import main
        assert main(["table", "9"]) == 2

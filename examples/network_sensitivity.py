#!/usr/bin/env python3
"""Network sensitivity: where does offloading stop paying off?

Sweeps link bandwidth for one communication-heavy program (164.gzip) and
one compute-bound program (456.hmmer), showing the dynamic performance
estimator switching between offloading and local execution — the paper's
Section 5.1 point that the runtime "can avoid offloading under unfavorable
situations such as slow network connection".

Run:  python examples/network_sensitivity.py
"""

from repro import NetworkModel
from repro.workloads import workload

BANDWIDTHS_MBPS = [10, 20, 40, 80, 160, 320, 640]


def sweep(name: str) -> None:
    built = workload(name).build()
    local = built.local()
    print(f"\n{name}  (targets: {', '.join(built.program.target_names())}, "
          f"local {local.seconds * 1e3:.1f} ms)")
    print(f"{'BW (Mbps)':>10s} {'time (ms)':>10s} {'speedup':>8s} "
          f"{'offloaded':>10s}")
    for mbps in BANDWIDTHS_MBPS:
        network = NetworkModel(f"{mbps}Mbps", bandwidth_bps=mbps * 1e6,
                               latency_s=2e-3, slow=mbps < 100)
        result = built.session(network).run()
        assert result.output == local.output
        print(f"{mbps:>10d} {result.total_seconds * 1e3:>10.1f} "
              f"{local.seconds / result.total_seconds:>7.2f}x "
              f"{result.offloaded_invocations:>4d}/"
              f"{len(result.invocations):<4d}")


def main() -> None:
    print("Dynamic estimation across link speeds "
          "(Equation 1 with run-time values):")
    sweep("456.hmmer")   # compute-bound: offloads even on slow links
    sweep("164.gzip")    # comm-heavy: declines below the crossover


if __name__ == "__main__":
    main()

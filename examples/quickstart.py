#!/usr/bin/env python3
"""Quickstart: automatically offload a native C application.

Compiles a small C program (a naive prime sieve with an interactive
parameter), lets the Native Offloader pipeline find and offload its hot
function, and compares local execution against offloaded execution on the
fast and slow Wi-Fi models.

Run:  python examples/quickstart.py
"""

from repro import (FAST_WIFI, SLOW_WIFI, CompilerOptions,
                   NativeOffloaderCompiler, OffloadSession, compile_c,
                   profile_module, run_local)

SOURCE = r"""
int *flags;
int limit;

int count_primes(void) {
    int i, j, count = 0;
    for (i = 2; i < limit; i++) flags[i] = 1;
    for (i = 2; i < limit; i++) {
        if (flags[i]) {
            count++;
            for (j = i + i; j < limit; j += i) flags[j] = 0;
        }
    }
    return count;
}

int main() {
    int primes;
    scanf("%d", &limit);
    flags = (int*) malloc(limit * sizeof(int));
    primes = count_primes();
    printf("%d primes below %d\n", primes, limit);
    return 0;
}
"""

STDIN = b"60000\n"
PROFILE_STDIN = b"20000\n"


def main() -> None:
    # 1. Front end: C -> IR.
    module = compile_c(SOURCE, "primes")

    # 2. Hot function/loop profiling on the mobile machine model.
    profile = profile_module(module, stdin=PROFILE_STDIN)
    print("Hot candidates (profiling input):")
    for candidate in profile.hottest(3):
        print(f"  {candidate.name:24s} {candidate.total_seconds * 1e3:8.2f} ms"
              f"  x{candidate.invocations}")

    # 3. The Native Offloader compiler: select targets, unify memory,
    #    partition into mobile + server binaries.
    program = NativeOffloaderCompiler(CompilerOptions()).compile(
        module, profile)
    print(f"\nSelected offload targets: {program.target_names()}")
    print(f"Memory unification: {program.unification.summary()}")

    # 4. Baseline: run everything locally on the phone.
    local = run_local(module, stdin=STDIN)
    print(f"\nLocal execution:   {local.seconds * 1e3:8.2f} ms   "
          f"{local.energy_mj:8.1f} mJ")
    print(f"  output: {local.stdout.strip()}")

    # 5. Offloaded execution over two networks.
    for network in (FAST_WIFI, SLOW_WIFI):
        session = OffloadSession(program, network, stdin=STDIN)
        result = session.run()
        assert result.output == local.output, "offload changed the output!"
        print(f"{network.name:10s} offload: {result.total_seconds * 1e3:8.2f} ms   "
              f"{result.energy_mj:8.1f} mJ   "
              f"speedup {local.seconds / result.total_seconds:4.2f}x   "
              f"battery saving "
              f"{(1 - result.energy_mj / local.energy_mj) * 100:5.1f}%")


if __name__ == "__main__":
    main()

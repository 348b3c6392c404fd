#!/usr/bin/env python3
"""Why memory unification exists: the Figure 4 layout problem, live.

Shows (1) the same C struct laid out differently by different ABIs — the
paper's Figure 4 uses ``Move { char from, to; double score; }`` on IA32 vs
ARM — (2) address-size and endianness differences across targets, and
(3) an offload session between an ARM32 phone and an x86-64 server whose
output is correct *because* the unified layout is installed.

Run:  python examples/cross_architecture.py
"""

from repro import FAST_WIFI, CompilerOptions, WorkloadSpec, compile_c
from repro.targets import ARM32, MIPS32BE, X86, X86_64, DataLayout

SOURCE = r"""
typedef struct { char from, to; double score; } Move;
typedef struct { char tag; void *payload; int len; } Packet;

Move *moves;
int nmoves;

double total_score(void) {
    double s = 0.0;
    int i;
    for (i = 0; i < nmoves; i++) s += moves[i].score;
    return s;
}

int main() {
    int i;
    scanf("%d", &nmoves);
    moves = (Move*) malloc(nmoves * sizeof(Move));
    for (i = 0; i < nmoves; i++) {
        moves[i].from = (char)i;
        moves[i].to = (char)(i + 1);
        moves[i].score = i * 0.5;
    }
    printf("total %.1f\n", total_score());
    return 0;
}
"""


def show_layouts() -> None:
    module = compile_c(SOURCE, "layouts")
    print("Struct layouts per target ABI (Figure 4):")
    for struct_name in ("Move", "Packet"):
        struct = module.struct(struct_name)
        print(f"\n  struct {struct_name}:")
        for arch in (ARM32, X86, X86_64, MIPS32BE):
            layout = DataLayout(arch).struct_layout(struct)
            fields = ", ".join(
                f"{name}@{off}" for (name, _), off
                in zip(struct.fields, layout.offsets))
            print(f"    {arch.name:9s} size={layout.size:3d} "
                  f"ptr={arch.pointer_bytes}B {arch.endianness:6s}  "
                  f"{fields}")
    print("\n  -> IA32 packs Move.score at offset 4 (4-byte double "
          "alignment);")
    print("     ARM aligns it to 8.  Same virtual address, different "
          "bytes —")
    print("     which is why realignment must impose the mobile layout "
          "on the server.")


LAYOUTS = WorkloadSpec(name="layouts", description="Figure 4 kernel",
                       source=SOURCE, profile_stdin=b"2000\n",
                       eval_stdin=b"6000\n")


def run_cross(arch_mobile, arch_server) -> None:
    # The mobile architecture is stated once: its layout rules the front
    # end, the profile, the local run and both machines of the session.
    built = LAYOUTS.build(CompilerOptions(mobile_arch=arch_mobile,
                                          server_arch=arch_server))
    local = built.local()
    session = built.session(FAST_WIFI)
    result = session.run()
    report = built.program.unification
    match = "OK" if result.output == local.output else "MISMATCH"
    print(f"\n{arch_mobile.name} -> {arch_server.name}: output {match}; "
          f"realigned structs: {report.realigned_structs or 'none'}; "
          f"pointer conversion: {report.needs_pointer_conversion}; "
          f"endianness translation: {report.needs_endianness_translation}")
    print(f"  server pointer conversions: "
          f"{session.server.pointer_conversions}, "
          f"endian swaps: {session.server.endian_swaps}")


def main() -> None:
    show_layouts()
    run_cross(ARM32, X86_64)      # address-size conversion (32 -> 64 bit)
    run_cross(ARM32, X86)         # layout realignment (Figure 4's case)
    run_cross(MIPS32BE, X86_64)   # endianness translation, big -> little


if __name__ == "__main__":
    main()

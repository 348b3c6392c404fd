#!/usr/bin/env python3
"""Print the Python the interpreter generates for one guest function.

    python3 tools/show_blocks.py <workload|file.c> <function>
                                 [--arch NAME] [--server NAME]

The interpreter runs a guest function as generated Python functions, one
per basic block or — a call ends a stretch — per part of one, and a
stretch that ends in an unconditional ``br`` runs on into the block it
jumps to (docs/architecture.md, "Interpreter: decode once, then run
generated blocks").  A traceback through ``<guest block>`` code has line
numbers but no source lines; this prints the source, each instruction's
lines under the IR instruction they execute, labelled with its block,
and numbered as a traceback numbers them; a stretch's header names the
blocks it runs on through.  ``--arch`` picks the machine (a preset name,
default ``arm32``: costs, addresses and pointer width are written into
the source as literals).  ``--server NAME`` builds the program for
``--arch`` → NAME and prints the function as that session's server
decodes it: the unified pointer width and byte order, with the
translation counters they cost.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.frontend import compile_c  # noqa: E402
from repro.ir.printer import print_function  # noqa: E402
from repro.machine import Interpreter, boot  # noqa: E402
from repro.machine.interpreter import (  # noqa: E402
    _Decoder, _decode, _with_text)
from repro.offload import CompilerOptions  # noqa: E402
from repro.targets import PRESETS  # noqa: E402
from repro.workloads import WORKLOADS, WorkloadSpec, workload  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Show the generated source of a guest function.")
    parser.add_argument("program", help="a registry workload or a .c file")
    parser.add_argument("function")
    parser.add_argument("--arch", default="arm32", choices=sorted(PRESETS))
    parser.add_argument("--server", choices=sorted(PRESETS),
                        help="show the server's variant of a program "
                             "offloaded from --arch to this architecture")
    args = parser.parse_args(argv)

    if args.program in WORKLOADS:
        spec = workload(args.program)
    else:
        try:
            source = Path(args.program).read_text(encoding="utf-8")
        except OSError as error:
            parser.error(f"{args.program}: neither a workload nor a "
                         f"readable file ({error.strerror})")
        spec = WorkloadSpec.from_source(source, Path(args.program).stem,
                                        b"", None)
    arch = PRESETS[args.arch]
    if args.server is None:
        where = args.program
        machine = boot(compile_c(spec.source, spec.name, target=arch), arch)
    else:
        where = f"the {args.server} server of {args.program}"
        server = PRESETS[args.server]
        program = spec.build(CompilerOptions(mobile_arch=arch,
                                             server_arch=server)).program
        machine = boot(program.server_module, server, "server")
    fn = machine.module.get_function(args.function)
    if fn is None or not fn.is_definition:
        defined = ", ".join(f.name for f in machine.module.defined_functions())
        parser.error(f"no function {args.function!r} defined in {where}; "
                     f"it defines: {defined}")
    interp = Interpreter(machine)
    blocks, frame_size = interp._decoded[fn] = _decode(interp, fn)

    # print_function: a header line, then per block its label and one
    # line per instruction
    ir_lines = iter(print_function(fn).splitlines()[1:])
    ir = {}
    for ir_block in fn.blocks:
        next(ir_lines)  # the label
        ir[ir_block] = [next(ir_lines).strip()
                        for _ in ir_block.instructions]
    print(f"# {fn.name} on {machine!r}: {len(fn.blocks)} blocks in "
          f"{len(blocks)} stretches, a frame of {frame_size} slots")
    decoder = _Decoder(interp, fn)
    for index in range(len(blocks)):
        block = _with_text(interp, fn, index)
        parts = [decoder.stretches[part] for part in decoder.chain(index)]
        (ir_block, start, _), *on = parts
        behind = f" from instruction {start}" if start else ""
        through = (" running on through " + ", ".join(
            part_block.name for part_block, _, _ in on) if on else "")
        print(f"\n# {index}: block {ir_block.name}{behind}{through} "
              f"({block.count} instructions)")
        what = [f"{part_block.name}: {ir[part_block][part_start + position]}"
                for part_block, part_start, instructions in parts
                for position in range(len(instructions))]
        line = 1
        for text in block.header.splitlines():
            print(f"{line:5} {text}")
            line += 1
        for position, chunk in enumerate(block.chunks):
            print("      #   " + (what[position] if position < len(what)
                                  else "(no terminator)"))
            for text in chunk.splitlines():
                print(f"{line:5} {text}")
                line += 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

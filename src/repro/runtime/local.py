"""Pure-local execution baseline.

Figure 6 normalizes every configuration to local execution on the
smartphone; this helper runs an (unmodified or partitioned-mobile) module
on one machine with time and battery accounting and no offloading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..ir.module import Module
from ..machine.energy import EnergyMeter, PowerTrace
from ..machine.fs import GuestOutput, IOEnvironment
from ..machine.interpreter import Interpreter, Observer
from ..machine.machine import boot
from ..targets.arch import TargetArch
from ..targets.presets import ARM32


class GuestRun:
    """A result that carries a program's ``output``; the two components
    callers print are read off it."""

    output: GuestOutput

    @property
    def exit_code(self) -> int:
        return self.output.exit_code

    @property
    def stdout(self) -> str:
        return self.output.stdout.decode("utf-8", errors="replace")


@dataclass
class LocalRunResult(GuestRun):
    seconds: float
    energy_mj: float
    output: GuestOutput
    instructions: int
    power_trace: PowerTrace


def run_local(module: Module,
              arch: TargetArch = ARM32,
              stdin: bytes = b"",
              files: Optional[Dict[str, bytes]] = None,
              observer: Optional[Observer] = None) -> LocalRunResult:
    """Execute a module start-to-finish on a single mobile machine."""
    machine = boot(module, arch, "mobile",
                   IOEnvironment(files=files, stdin=stdin))
    interp = Interpreter(machine, observer=observer)
    exit_code = interp.run_main()
    meter = EnergyMeter()
    seconds = interp.time_seconds
    meter.charge(0.0, seconds, "compute")
    return LocalRunResult(
        seconds=seconds,
        energy_mj=meter.total_energy_mj,
        output=machine.io.output(exit_code),
        instructions=interp.instruction_count,
        power_trace=meter.trace,
    )

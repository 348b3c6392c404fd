"""The two recipes every caller shares, and the guard that keeps them
shared.

* source -> program: ``WorkloadSpec.build`` states the mobile
  architecture once, and builds and runs all 20 ordered pairs of
  ``repro.targets.PRESETS`` — a server no faster than the mobile is an
  unprofitable environment, not an illegal one;
* seed -> fleet: ``repro.fleet.identical_devices`` reproduces, value for
  value, what ``python -m repro fleet`` built before it existed;
* ``repro.__main__`` is parsing and printing: no C source, no pipeline
  call, no seed label, and nothing outside ``src/`` reaches into it for
  a private name;
* a guest process is booted by ``repro.machine.boot`` and compared as a
  ``GuestOutput``: no second boot sequence, no stdout-only oracle;
* every name imported under ``src/`` is read where it is imported.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import itertools
import re
from pathlib import Path

import pytest

import repro.__main__ as cli
from repro import CompilerOptions, SessionOptions, WorkloadSpec
from repro.fleet import identical_devices
from repro.runtime import FAST_WIFI, FaultPlan, run_local
from repro.targets import ARM32, ARM64, MIPS32BE
from repro.targets.arch import performance_ratio
from repro.targets.presets import PRESETS
from repro.workloads import ALL_WORKLOADS, MICRO_WORKLOADS, workload

REPO = Path(__file__).resolve().parent.parent

# The Figure 4 struct kernel (bench/programs/layouts.c): char, double
# and pointer fields, so every pair exercises layout, pointer-size and
# byte-order translation.
LAYOUTS = WorkloadSpec(
    name="layouts", description="Figure 4 kernel",
    profile_stdin=b"40\n", eval_stdin=b"90\n", source=r"""
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
""")

PAIRS = list(itertools.permutations(PRESETS.values(), 2))


# -- source -> program ---------------------------------------------------
@pytest.mark.parametrize("mobile,server", PAIRS,
                         ids=lambda arch: arch.name)
def test_every_ordered_pair_builds_and_matches_local(mobile, server):
    """Profitability does not gate correctness: 11 of these 20 pairs have
    R <= 1 (arm32 -> mips32be and x86_64 -> mips32be among them) and
    could not be compiled at all, forced or not."""
    ratio = performance_ratio(server, mobile)
    options = CompilerOptions(mobile_arch=mobile, server_arch=server)

    unforced = LAYOUTS.build(options)
    local = unforced.local()
    assert local.stdout == "total 2002.5\n"
    if ratio <= 1.0:
        assert unforced.program.target_names() == []
        assert f"R = {ratio:.2f}" in unforced.program.why_no_targets()
    result = unforced.session(FAST_WIFI).run()
    assert result.output == local.output

    forced = LAYOUTS.build(dataclasses.replace(
        options, forced_targets=["total_score"]))
    estimate = forced.program.profile.candidates["total_score"]
    assert estimate.invocations == 1
    result = forced.session(FAST_WIFI, SessionOptions(
        enable_dynamic_estimation=False)).run()
    assert result.offloaded_invocations == 1
    assert result.output == local.output


def test_the_recipe_states_the_mobile_architecture_once():
    """``mobile_arch`` picks the front end's layout target, the profiled
    machine and the machine of the local run."""
    spec = WorkloadSpec(
        name="widths", description="", source=r"""
        int main() {
            printf("%d\n", (int) sizeof(char*));
            return 0;
        }""")
    assert spec.build().local().stdout == "4\n"            # ARM32
    wide = spec.build(CompilerOptions(mobile_arch=ARM64))
    assert wide.profile.output == wide.local().output
    assert wide.local().stdout == "8\n"

    built = LAYOUTS.build(CompilerOptions(mobile_arch=MIPS32BE))
    assert built.profile.arch_name == "mips32be"
    on_mips, on_arm = (run_local(built.module, arch=arch,
                                 stdin=LAYOUTS.eval_stdin)
                       for arch in (MIPS32BE, ARM32))
    assert built.local().seconds == on_mips.seconds != on_arm.seconds


def test_built_in_kernels_are_registry_entries_outside_the_suite():
    names = [spec.name for spec in MICRO_WORKLOADS]
    assert names == ["fleet-micro", "parallel-micro"]
    assert not set(names) & {spec.name for spec in ALL_WORKLOADS}
    with pytest.raises(KeyError, match="fleet-micro.*parallel-micro"):
        workload("nosuch")
    for name, kernel in zip(names, ("crunch", "smooth")):
        spec = workload(name)
        assert spec.profile_stdin == spec.eval_stdin
        assert spec.build().program.target_names() == [kernel]
    # the caller's forced_targets win over the spec's
    assert workload("fleet-micro").build(CompilerOptions(
        forced_targets=[])).program.target_names() == []


# -- seed -> fleet -------------------------------------------------------
def test_fleet_builder_reproduces_the_cli_device_list():
    """``fleet --seed 7 --arrival poisson --drop-rate 0.3``: the first
    four devices the CLI's ``_run_fleet`` built at 7aadd80 (poisson
    offsets accumulate and fault seeds are per index, so they are the
    prefix of the 20-device default)."""
    program, options = object(), SessionOptions(shards=1)
    devices = identical_devices(
        4, program, FAST_WIFI, stdin=b"600\n", arrival="poisson",
        spacing_s=0.002, seed=7, options=options,
        fault_plan=FaultPlan(seed=7, drop_rate=0.3))
    assert [(d.device_id, d.start_offset_s, d.options.fault_plan.seed)
            for d in devices] == [
        ("dev00", 0.0, 754829387426766123),
        ("dev01", 0.0018795880294791452, 11002148446320422656),
        ("dev02", 0.0040182393089682284, 1595906087553296827),
        ("dev03", 0.004415386507531527, 435893085789472572),
    ]
    for device in devices:
        assert device.program is program and device.network is FAST_WIFI
        assert device.stdin == b"600\n" and device.deadline_s is None
        assert device.options == dataclasses.replace(
            options, fault_plan=device.options.fault_plan)
        assert device.options.fault_plan == FaultPlan(
            seed=device.options.fault_plan.seed, drop_rate=0.3)

    # perfect links: the options are used as given, whatever the seed
    plain = identical_devices(3, program, FAST_WIFI, seed=7,
                              options=options, deadline_s=0.25)
    assert [d.start_offset_s for d in plain] == [0.0, 0.002, 0.004]
    assert all(d.options is options and d.deadline_s == 0.25
               for d in plain)
    for bad in (dict(spacing_s=-1.0), dict(arrival="weird"),
                dict(deadline_s=0.0)):
        with pytest.raises(ValueError):
            identical_devices(2, program, FAST_WIFI, **bad)
    with pytest.raises(ValueError):
        identical_devices(-1, program, FAST_WIFI)


# -- the guard -----------------------------------------------------------
def test_main_module_is_parsing_and_printing():
    """Style of ``test_no_flag_parses_a_bare_float``: the recipes live
    in the packages that own their inputs, and a copy typed back into
    the CLI fails here."""
    source = inspect.getsource(cli)
    for call in ("compile_c(", "profile_module(",
                 "NativeOffloaderCompiler(", "OffloadSession(",
                 "run_local(", "SeedFanout(", "int main"):
        assert call not in source, call
    assert len(source.splitlines()) < 820


def test_nothing_outside_src_imports_a_private_cli_name():
    offenders = []
    for folder in ("tests", "benchmarks", "examples"):
        for path in sorted((REPO / folder).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            private = [alias.name
                       for node in ast.walk(ast.parse(text))
                       if isinstance(node, ast.ImportFrom)
                       and node.module == "repro.__main__"
                       for alias in node.names
                       if alias.name.startswith("_")]
            private += re.findall(r"\b(?:cli|__main__)\.(_[a-z]\w*)", text)
            offenders += [f"{path.relative_to(REPO)}: {name}"
                          for name in private]
    assert offenders == []


def test_each_recipe_is_stated_once_under_src():
    text = "\n".join(path.read_text(encoding="utf-8") for path in
                     sorted((REPO / "src" / "repro").rglob("*.py")))
    assert len(re.findall(r"(?<!class )NativeOffloaderCompiler\(",
                          text)) == 1
    assert text.count('rng("arrivals")') == text.count('"arrivals"') == 1
    assert text.count('seed("fault"') == 1
    for kernel in ("crunch(void)", "smooth(void)"):
        assert text.count(kernel) == 1
    # module -> machine: one libc binding, one layout choice (made by
    # Machine.load from the module's metadata), both behind boot()
    for call in ("install_libc(", "unified_data_layout("):
        assert len(re.findall(rf"(?<!def ){re.escape(call)}", text)) == 1
    assert "set_layout" not in text


def _annotation_names(tree) -> set:
    """Names read by quoted annotations (``"OffloadSession"``)."""
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))
                   and node.annotation is not None]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    and node.returns is not None]
    return {name.id
            for annotation in annotations
            for quoted in ast.walk(annotation)
            if isinstance(quoted, ast.Constant)
            and isinstance(quoted.value, str)
            for name in ast.walk(ast.parse(quoted.value, mode="eval"))
            if isinstance(name, ast.Name)}


def test_every_name_imported_under_src_is_read():
    """An unread import is a dependency nobody has: delete it.  A
    package's ``__init__.py`` re-exports, and a line marked ``# noqa:
    F401`` says it re-exports on purpose."""
    unread = []
    for path in sorted((REPO / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)} | _annotation_names(tree)
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or any("noqa: F401" in line for line
                           in lines[node.lineno - 1:node.end_lineno])):
                continue
            unread += [f"{path.relative_to(REPO)}:{node.lineno}: {name}"
                       for name in (alias.asname or alias.name.split(".")[0]
                                    for alias in node.names)
                       if name not in read]
    assert unread == []


def test_nothing_outside_src_boots_by_hand_or_compares_stdout_alone():
    """A machine comes from ``boot`` (``tools/show_blocks.py``, conftest
    and every test that runs IR directly); "offloaded equals local" is
    ``.output ==`` or ``differences``, never ``.stdout ==``."""
    def lines(*folders):
        return [(path.relative_to(REPO), line.strip())
                for folder in folders
                for path in sorted((REPO / folder).rglob("*.py"))
                if path != Path(__file__).resolve()
                for line in path.read_text(encoding="utf-8").splitlines()]

    assert [found for found in lines("tests", "tools", "benchmarks",
                                     "examples")
            if re.search(r"install_libc|set_layout", found[1])] == []
    assert [found for found in lines("src", "benchmarks", "examples")
            if re.search(r"\.stdout\s*[=!]=|[=!]=\s*\S+\.stdout\b",
                         found[1])] == []

"""Every forwardable stdio call, on every edge input, behaves the same
offloaded as on the phone alone (paper, Section 3.4: the remote I/O
manager runs "the same call" against the mobile's environment).

One program runs the whole table inside a function that is forced onto
the server, recording each call's C return value and dumping them on
stdout; its ``GuestOutput`` — exit code, stdout, stderr and the final
file contents — must equal the plain single-machine run's, for a
same-endian and a cross-endian pair.
"""

import pytest

from repro.machine.libc import STDIO
from repro.offload import CompilerOptions
from repro.offload.server_opt import REMOTE_IO_FUNCTIONS
from repro.runtime import FAST_WIFI, SessionOptions
from repro.targets import ARM32, MIPS32BE, X86_64

from conftest import build_c

FILES = {"in.txt": b"abcdefgh\nsecond line\nxyz", "ro.txt": b"keep\n",
         "log.txt": b"old\n"}

# (label, C expression whose int value is the call's observable result).
# The cases run in order inside the offloaded function and share state:
# `s` is a string built in the server's own stack frame, `b` a zeroed
# server-stack buffer, rd/ro/wr/ap/rw files it opens itself; handle 99 is
# never open, handles 1 and 2 are the standard streams.
CASES = [
    ("fopen r", '(rd = fopen("in.txt", "r")) != 0'),
    ("fopen r read-only", '(ro = fopen("ro.txt", "r")) != 0'),
    ("fopen w", '(wr = fopen("out.txt", "w")) != 0'),
    ("fopen a", '(ap = fopen("log.txt", "a")) != 0'),
    ("fopen missing", 'fopen("missing.txt", "r") == 0'),
    ("fopen r+ missing", 'fopen("missing.txt", "r+") == 0'),
    ("fopen r+ existing", '(rw = fopen("log.txt", "r+")) != 0'),
    ("fgetc through r+", "fgetc(rw)"),
    ("fwrite through r+", "fwrite(s, 1, 2, rw) + fclose(rw)"),
    ("fopen name built on the server", 'fopen(s, "r") == 0'),
    ("printf %s of a server string", 'printf("n=%d s=%s|%5s|\\n", n, s, s)'),
    ("printf nothing", 'printf("")'),
    ("puts server string", "puts(s)"),
    ("puts empty", 'puts("")'),
    ("putchar", "putchar(65)"),
    ("putchar wide", "putchar(266)"),
    ("fprintf stderr", 'fprintf((void*)2, "err %d %s\\n", n, s)'),
    ("fprintf stdout handle", 'fprintf((void*)1, "out %d\\n", n)'),
    ("fprintf unopened", 'fprintf((void*)99, "stray\\n")'),
    ("fprintf file", 'fprintf(wr, "w %s %d\\n", s, n)'),
    ("fprintf read-only", 'fprintf(ro, "nope %d\\n", n)'),
    ("fwrite", "fwrite(s, 1, 3, wr)"),
    ("fwrite records", "fwrite(s, 2, 2, wr)"),
    ("fwrite count 0", "fwrite(s, 1, 0, wr)"),
    ("fwrite size 0", "fwrite(s, 0, 5, wr)"),
    ("fwrite nothing from NULL", "fwrite((void*)0, 1, 0, wr)"),
    ("fwrite unopened", "fwrite(s, 1, 3, (void*)99)"),
    ("fwrite handle 2", "fwrite(s, 1, 3, (void*)2)"),
    ("fwrite read-only", "fwrite(s, 1, 3, ro)"),
    ("fwrite append", "fwrite(s, 1, 4, ap)"),
    ("fread", "fread(b, 1, 3, rd) * 1000 + b[0] + b[2]"),
    ("fread records", "fread(b, 2, 2, rd) * 1000 + b[3]"),
    ("fread count 0", "fread(b, 1, 0, rd)"),
    ("fread size 0", "fread(b, 0, 4, rd)"),
    ("fread unopened", "fread(b, 1, 4, (void*)99)"),
    ("fread handle 2", "fread(b, 1, 4, (void*)2)"),
    ("fread write-only file", "fread(b, 1, 4, wr)"),
    ("feof mid-file", "feof(rd)"),
    ("fgetc", "fgetc(rd)"),
    ("fgets limit 1", "(fgets(b, 1, rd) != 0) * 1000 + b[0]"),
    ("fgets to newline", "(fgets(b, 32, rd) != 0) * 1000 + b[0] + b[1]"),
    ("fgets limit cuts", "(fgets(b, 4, rd) != 0) * 1000 + b[2] + b[3]"),
    ("fgets rest of line", "(fgets(b, 32, rd) != 0) * 1000 + b[0]"),
    ("fgets unopened", "fgets(b, 32, (void*)99) == 0"),
    ("fgets handle 2", "fgets(b, 32, (void*)2) == 0"),
    ("fread short record", "fread(b, 2, 1, rd) * 1000 + b[0]"),
    ("fread tail", "fread(b, 1, 32, rd) * 1000 + b[0] + b[1]"),
    ("fread at EOF", "fread(b, 1, 4, rd)"),
    ("fgets at EOF", "fgets(b, 32, rd) == 0"),
    ("fgetc at EOF", "fgetc(rd)"),
    ("feof at EOF", "feof(rd)"),
    ("fgetc unopened", "fgetc((void*)99)"),
    ("fgetc handle 2", "fgetc((void*)2)"),
    ("feof unopened", "feof((void*)99)"),
    ("fclose", "fclose(rd)"),
    ("fclose twice", "fclose(rd)"),
    ("fclose unopened", "fclose((void*)99)"),
    ("fgetc closed", "fgetc(rd)"),
    ("fclose written", "fclose(wr) + fclose(ap) + fclose(ro)"),
]

SOURCE = r"""
int r[%(count)d];
void *rd; void *ro; void *wr; void *ap; void *rw;

int probe(int n) {
    char s[8];
    char b[40];
    int i, k = 0;
    for (i = 0; i < 40; i++) b[i] = 0;
    s[0] = 'n'; s[1] = 'o'; s[2] = 'p'; s[3] = 'e'; s[4] = 48 + n; s[5] = 0;
%(body)s
    return k;
}

int main() {
    int i, n, k;
    scanf("%%d", &n);
    k = probe(n);
    for (i = 0; i < k; i++) printf("%%d\n", r[i]);
    return k + n;
}
""" % {"count": len(CASES),
       "body": "\n".join(f"    r[k++] = {expr};" for _, expr in CASES)}
STDIN = b"7\n"


def _returns(run):
    """The C return values the program dumped at the end of its stdout,
    keyed by case label: the readable half of a mismatch."""
    dumped = run.stdout.split("\n")[-len(CASES) - 1:-1]
    assert len(dumped) == len(CASES)
    return dict(zip((label for label, _ in CASES), dumped))


@pytest.mark.parametrize("mobile_arch", [ARM32, MIPS32BE],
                         ids=lambda arch: f"{arch.name}->x86_64")
def test_every_stdio_op_offloaded_equals_phone_only(mobile_arch):
    # mobile_arch is stated once: it is the front end's layout target,
    # the profiled machine and the session's mobile side.
    built = build_c(SOURCE, STDIN, FILES, name="stdio-table",
                    compiler_options=CompilerOptions(
                        mobile_arch=mobile_arch, server_arch=X86_64,
                        forced_targets=["probe"]))
    assert built.profile.arch_name == mobile_arch.name
    local = built.local()
    assert _returns(local)["fprintf read-only"] == "0"
    assert local.output.files["out.txt"].startswith(b"w nope7 7\nnopno")
    assert local.output.files["log.txt"] == b"ono\nnope"
    assert "missing.txt" not in local.output.files
    assert local.output.stderr == b"err 7 nope7\n"

    result = built.session(FAST_WIFI, SessionOptions(
        enable_dynamic_estimation=False, enable_tracing=True)).run()
    assert result.offloaded_invocations == 1
    # every op in the table really was forwarded, none ran on the server
    forwarded = {e.name for e in result.trace.events("rio.op")}
    assert forwarded == set(STDIO)
    assert _returns(result) == _returns(local)          # the readable diff
    assert result.output.differences(local.output) == []


def test_remotable_names_are_the_stdio_table():
    """A new remotable call is one STDIO row: the filter and the
    server rewrite both read their set off the table, so a session
    registers an ``r_*`` builtin for every call it forwards."""
    assert REMOTE_IO_FUNCTIONS == set(STDIO)

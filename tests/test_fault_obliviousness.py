"""Fault obliviousness: a faulty link changes time and energy, never what
the program computes.

Whatever a seeded ``FaultPlan`` does to the link — drops and retries,
jitter, a bandwidth collapse, a hard disconnect after N messages, random
disconnects with or without reconnects — an offloaded run's
``GuestOutput`` equals the phone-only run's, and the mobile pages the
data plane is responsible for (the UVA heap and the globals) end up
byte-equal to a fault-free session's.  Three small programs, each
offloaded on three architecture pairs that differ in pointer width or
byte order: a heap kernel invoked several times, a linked list of
pointer-holding structs built on the server, and a text tally that reads
globals and prints from the server.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_c
from repro.machine import GLOBAL_BASES, UVA_HEAP_BASE, UVA_HEAP_SIZE
from repro.offload import CompilerOptions
from repro.runtime import FAST_WIFI, SessionOptions
from repro.runtime.network import FaultPlan
from repro.targets import ARM32, ARM64, MIPS32BE, X86, X86_64

PROGRAMS = {
    "heap-kernel": ("mix", r"""
int *buf;
int n;

int mix(int salt) {
    int i, acc = salt;
    for (i = 0; i < n; i++) {
        acc = acc * 31 + (buf[i] ^ salt);
        buf[i] = acc & 0xffff;
    }
    return acc;
}

int main() {
    int i, k, total = 0;
    scanf("%d", &n);
    buf = (int*) malloc(n * sizeof(int));
    for (i = 0; i < n; i++) buf[i] = i * 7 + 3;
    for (k = 0; k < 3; k++) {
        buf[k] = buf[k] ^ 0x55;
        total = total ^ mix(k);
        printf("%d %d\n", k, total);
    }
    return 0;
}
""", b"300\n"),
    "struct-list": ("build", r"""
struct node {
    char tag;
    double weight;
    struct node *next;
    short key;
};
struct node *head;

int build(int n, int base) {
    int i;
    for (i = 0; i < n; i++) {
        struct node *p = (struct node*) malloc(sizeof(struct node));
        p->tag = 'a' + i % 26;
        p->weight = (base + i) * 0.5;
        p->key = (short) (base * 7 - i);
        p->next = head;
        head = p;
    }
    return n;
}

int main() {
    int k, count = 0;
    struct node *p;
    double sum = 0.0;
    for (k = 0; k < 3; k++) count += build(40, k * 100);
    for (p = head; p; p = p->next) {
        sum += p->weight;
        if (p->tag == 'c') count += p->key;
    }
    printf("%d %.2f\n", count, sum);
    return 0;
}
""", b""),
    "text-tally": ("tally", r"""
char text[512];
int counts[26];

void tally(int round) {
    int i;
    for (i = 0; text[i]; i++) {
        if (text[i] >= 'a' && text[i] <= 'z') counts[text[i] - 'a'] += round;
    }
    printf("round %d: a=%d e=%d\n", round, counts[0], counts[4]);
}

int main() {
    int r;
    scanf("%s", text);
    for (r = 1; r <= 3; r++) tally(r);
    printf("z=%d\n", counts[25]);
    return 0;
}
""", b"the_quick_brown_fox_jumps_over_the_lazy_dog_again_and_again\n"),
}
PAIRS = {"arm32-x86_64": (ARM32, X86_64),
         "mips32be-x86_64": (MIPS32BE, X86_64),
         "x86-arm64": (X86, ARM64)}

plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2**16),
    drop_rate=st.floats(0.0, 0.5),
    max_jitter_s=st.floats(0.0, 0.002),
    disconnect_after_messages=st.none() | st.integers(0, 30),
    disconnect_rate=st.floats(0.0, 0.2),
    reconnect_rate=st.floats(0.0, 1.0),
    bandwidth_factor=st.floats(0.05, 1.0))


@functools.lru_cache(maxsize=None)
def _built(program, pair):
    target, source, stdin = PROGRAMS[program]
    mobile, server = PAIRS[pair]
    return build_c(source, stdin, name=program,
                   compiler_options=CompilerOptions(
                       mobile_arch=mobile, server_arch=server,
                       forced_targets=[target]))


def _shared_pages(machine):
    """The mobile's UVA heap and globals pages."""
    memory, pages = machine.memory, {}
    for pidx, page in memory.pages.items():
        base = pidx * memory.page_size
        if (UVA_HEAP_BASE <= base < UVA_HEAP_BASE + UVA_HEAP_SIZE
                or GLOBAL_BASES["mobile"] <= base < GLOBAL_BASES["server"]):
            pages[pidx] = bytes(page)
    return pages


def _session(built, plan):
    session = built.session(FAST_WIFI, SessionOptions(
        enable_dynamic_estimation=False, fault_plan=plan))
    return session.run(), _shared_pages(session.mobile)


@functools.lru_cache(maxsize=None)
def _fault_free(program, pair):
    built = _built(program, pair)
    result, pages = _session(built, None)
    assert result.offloaded_invocations == 3
    return built.local().output, pages


@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("program", sorted(PROGRAMS))
@given(plan=plans)
@settings(max_examples=8, deadline=None, derandomize=True)
def test_faults_change_neither_output_nor_shared_memory(program, pair, plan):
    local, fault_free_pages = _fault_free(program, pair)
    result, pages = _session(_built(program, pair), plan)
    assert result.output.differences(local) == []
    assert pages == fault_free_pages

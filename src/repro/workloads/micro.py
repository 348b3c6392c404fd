"""The two built-in micro kernels: registry entries that are not part of
the paper's suite (no Table 4 row, absent from ``ALL_WORKLOADS``), small
enough that a 20-device fleet finishes in seconds.  Their profiling input
is their evaluation input, and the kernel is named as the offload target
(``forced_targets``) instead of being selected.
"""

from __future__ import annotations

from .base import WorkloadSpec

# The default fleet workload: a hot kernel invoked a few times per
# device, hot enough to be worth offloading.  Nested loops, so the shard
# analyzer refuses it and it always stays single-server.
_FLEET_MICRO_SRC = r"""
int *data;
int n;

int crunch(void) {
    int i, r, acc = 0;
    for (r = 0; r < 40; r++) {
        for (i = 0; i < n; i++) {
            acc += (data[i] * 31 + r) ^ (acc >> 3);
        }
    }
    return acc;
}

int main() {
    int i, k;
    scanf("%d", &n);
    data = (int*) malloc(n * sizeof(int));
    for (i = 0; i < n; i++) data[i] = i * 7 + 3;
    for (k = 0; k < 3; k++) printf("crunched %d\n", crunch());
    return 0;
}
"""

FLEET_MICRO = WorkloadSpec(
    name="fleet-micro",
    description="built-in hot kernel (fleet default; nested loops, "
                "single-server)",
    source=_FLEET_MICRO_SRC,
    profile_stdin=b"600\n",
    eval_stdin=b"600\n",
    forced_targets=("crunch",),
)

# A data-parallel kernel: one flat loop, disjoint element writes —
# exactly the shape the shard analyzer accepts, so ``--shards K``
# actually scatters it (docs/parallel-offload.md).
_PARALLEL_MICRO_SRC = r"""
int data[8192];
int out[8192];
int n;

void smooth(void) {
    int i;
    for (i = 0; i < n; i++) {
        int v = data[i];
        v = v * 31 + (v >> 3);
        v ^= v << 7;
        v += v >> 11;
        v = v * 1103515245 + 12345;
        v ^= v >> 13;
        v = v * 69069 + 1;
        v ^= v << 3;
        v += (v >> 2) ^ (v << 9);
        v = v * 2654435761 + 40503;
        v ^= v >> 17;
        v += (v << 5) - v;
        v = v * 22695477 + 1;
        v ^= v >> 7;
        v += (v >> 4) ^ (v << 11);
        v = v * 134775813 + 1;
        v ^= v << 13;
        out[i] = (v ^ (v >> 5)) + i;
    }
}

int main() {
    int i, acc = 0;
    scanf("%d", &n);
    for (i = 0; i < n; i++) data[i] = i * 7 + 3;
    smooth();
    for (i = 0; i < n; i++) acc += out[i];
    printf("smoothed %d\n", acc);
    return 0;
}
"""

PARALLEL_MICRO = WorkloadSpec(
    name="parallel-micro",
    description="built-in data-parallel kernel (shardable via --shards)",
    source=_PARALLEL_MICRO_SRC,
    profile_stdin=b"4000\n",
    eval_stdin=b"4000\n",
    forced_targets=("smooth",),
)

/* The parallel-micro smooth kernel -- copied from repro.__main__ (the shardable `--shards` built-in) so the benchmark imports no private name. */
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

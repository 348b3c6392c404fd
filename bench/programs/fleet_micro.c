/* The fleet-micro crunch kernel -- copied from repro.__main__ (the `fleet` CLI default workload) so the benchmark imports no private name. */
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

/* (float) rounds to single precision even when the value never reaches
   memory.  Was: 0.100000000000 1 (the cast was the identity). */
void work(void) {
    double x = 0.1;
    printf("%.12f %d\n", (double)(float)x, (float)x == x);
}

int main() {
    work();
    return 0;
}

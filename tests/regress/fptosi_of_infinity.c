/* (int) of an infinity: undefined in C, INT_MAX on ARM, INT_MIN on x86.
   Was: OverflowError: cannot convert float infinity to integer. */
int main() {
    double z = 0.0;
    int i = (int)(1.0 / z);
    printf("%d\n", i);
    return 0;
}

/* (unsigned) of a NaN: undefined in C, 0 on ARM, 0x80000000 on x86.
   Was: ValueError: cannot convert float NaN to integer. */
int main() {
    double z = 0.0;
    unsigned u = (unsigned)(z / z);
    printf("%u\n", u);
    return 0;
}

/* What single precision cannot hold rounds to an infinity (IEEE 754), in
   a global's initializer, a store and a cast alike.
   Was: OverflowError: float too large to pack with f format. */
float g = 1e300;

void work(void) {
    float f = 1e300;
    double d = -1e300;
    printf("%f %f %f\n", g, f, (float)d);
}

int main() {
    work();
    return 0;
}

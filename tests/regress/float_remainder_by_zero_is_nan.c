/* fmod(x, 0) is a NaN (IEEE 754).  Was: ValueError: math domain error. */
void work(void) {
    double x = 5.5, z = 0.0;
    printf("%f\n", x % z);
}

int main() {
    work();
    return 0;
}

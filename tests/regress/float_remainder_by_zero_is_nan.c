/* fmod(x, 0) is a NaN (IEEE 754).  Was: ValueError: math domain error. */
int main() {
    double x = 5.5, z = 0.0;
    printf("%f\n", x % z);
    return 0;
}

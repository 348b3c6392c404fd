/* A negative initializer is stored as two's complement at the width of
   its slot: an int, a char, array elements, struct fields and a pointer.
   Was, on every preset, at load time: OverflowError: can't convert
   negative int to unsigned. */
struct P { int x; int y; };
int x = -1;
char c = -5;
int a[3] = {-1, 2, -3};
struct P p = {-1, -2};
char *s = (char*)-1;

void work(void) {
    printf("%d %d %d %d %d %d %d %d\n", x, c, a[0], a[1], a[2], p.x, p.y,
           s + 1 == 0);
}

int main() {
    work();
    return 0;
}

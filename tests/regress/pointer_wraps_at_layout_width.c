/* Pointer arithmetic wraps at the layout's pointer width, where pointer
   comparison already works: 0 - 1 is the all-ones pointer on a 32-bit
   layout too, and one past it is null again.  Was, on arm32, mips32be
   and x86, at the store of q: OverflowError: pointer 0xffffffffffffffff
   does not fit in 4 bytes. */
void work(void) {
    char *q = (char*)0;
    q = q - 1;
    printf("%d %d\n", q + 1 == 0, (char*)-1 + 1 == 0);
}

int main() {
    work();
    return 0;
}

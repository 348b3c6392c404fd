/* strncmp and strncpy read at most n bytes, and n = 0 reads none.  Was:
   SegmentationFault at 0x1001000 from strncmp(p + 4090, "aaaaaa", 6) and
   strncpy(d, p + 4093, 3) on a 4096-byte buffer with no NUL, read on
   into the unmapped page behind it, and at 0x0 from strncmp(0, 0, 0). */
void work(void) {
    char d[8];
    char *p = malloc(4096);
    memset(p, 'a', 4096);
    memset(d, 0, 8);
    printf("%d ", strncmp(p + 4090, "aaaaaa", 6));
    printf("%d ", strncmp(p + 4090, "aaaaab", 6) < 0);
    strncpy(d, p + 4093, 3);
    printf("%s ", d);
    printf("%d\n", strncmp(0, 0, 0));
}

int main() {
    work();
    return 0;
}

/* A string literal's escapes are bytes: \xHH and \OOO at or above 0x80
   are one byte each, and source text stays UTF-8.  Was: the lexer decoded
   escapes to text and code generation encoded that text as UTF-8, so
   "\xc8\x41" was three bytes with s[0] == 195 and "\xff\x80" "A" five.
   A hex escape takes every hex digit that follows, as in C, so "\x80A"
   would be one escape out of range; the literals are split instead. */
void work(void) {
    const char *s = "\xc8\x41";
    char g[4] = "\xff\x80" "A";
    const char *o = "\310\101\200";
    const char *u = "é";
    printf("%d %d %d %d\n", strlen(s), (unsigned char)s[0], strlen(g),
           sizeof(g));
    printf("%d %d %d\n", strlen(o), (unsigned char)o[0], (unsigned char)o[2]);
    printf("%d %d %d\n", strlen(u), (unsigned char)u[0], (unsigned char)u[1]);
}

int main() {
    work();
    return 0;
}

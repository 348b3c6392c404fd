/* printf formats bytes, not text: %c of a byte above 127 and %s of a
   string that is not UTF-8 print those bytes; a * width or precision is
   the next argument (a negative width left-justifies); h and hh truncate;
   %c pads; %.Ns reads at most N bytes.  Was: the bytes re-encoded as
   UTF-8, "TypeError: not enough arguments for format string",
   300|70000|A|B|, and %.3s reading on into the unmapped page behind its
   buffer. */
void work(void) {
    char s[3];
    char *p = malloc(4096);
    s[0] = 255; s[1] = 'A'; s[2] = 0;
    memset(p, 'x', 4096);
    printf("%c|%s|\n", 200, s);
    printf("%*d|%*d|%.*s|\n", 5, 42, -4, 7, 2, "abcdef");
    printf("%hhd|%hd|%5c|%-3c|\n", 300, 70000, 65, 66);
    printf("%.3s|\n", p + 4093);
}

int main() {
    work();
    return 0;
}

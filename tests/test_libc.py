"""Tests for the simulated C library."""

import pytest

from repro.ir.printer import print_function
from repro.offload import CompilerOptions
from repro.runtime import FAST_WIFI, SessionOptions
from repro.targets import ARM32, X86_64

from conftest import build_c, interp_for, run_c


class TestPrintf:
    def test_integers(self):
        out = run_c(r'int main(){printf("%d %d %u\n", -5, 42, 7);return 0;}')
        assert out[1] == "-5 42 7\n"

    def test_long(self):
        out = run_c(r'int main(){long x = 5000000000; '
                    r'printf("%ld\n", x); return 0;}')
        assert out[1] == "5000000000\n"

    def test_floats(self):
        out = run_c(r'int main(){printf("%.2f %.3lf\n", 1.5, 2.0/3.0);'
                    r'return 0;}')
        assert out[1] == "1.50 0.667\n"

    def test_strings_and_chars(self):
        out = run_c(r'int main(){printf("%s:%c!\n", "hey", 65);return 0;}')
        assert out[1] == "hey:A!\n"

    def test_hex_and_percent(self):
        out = run_c(r'int main(){printf("%x 100%%\n", 255);return 0;}')
        assert out[1] == "ff 100%\n"

    def test_width_and_padding(self):
        out = run_c(r'int main(){printf("[%5d][%-4d][%04d]\n", 42, 7, 3);'
                    r'return 0;}')
        assert out[1] == "[   42][7   ][0003]\n"

    def test_sprintf(self):
        src = r'''
        int main() {
            char buf[64];
            sprintf(buf, "v=%d", 12);
            printf("%s|%d\n", buf, (int) strlen(buf));
            return 0;
        }
        '''
        assert run_c(src)[1] == "v=12|4\n"


class TestScanf:
    def test_ints(self):
        src = r'int main(){int a,b; scanf("%d %d",&a,&b);' \
              r'printf("%d\n", a*b); return 0;}'
        assert run_c(src, stdin=b"6 7\n")[1] == "42\n"

    def test_negative(self):
        src = r'int main(){int a; scanf("%d",&a);printf("%d\n",a);return 0;}'
        assert run_c(src, stdin=b"-13")[1] == "-13\n"

    def test_double(self):
        src = r'int main(){double d; scanf("%lf",&d);' \
              r'printf("%.1f\n", d*2.0); return 0;}'
        assert run_c(src, stdin=b"2.25")[1] == "4.5\n"

    def test_a_number_is_stored_as_its_type_holds_it(self):
        # an int wraps at its width; a float beyond single precision is an
        # infinity, not an OverflowError
        src = r'int main(){int a; short h; char c; float f;' \
              r'scanf("%d %hd %hhd %f", &a, &h, &c, &f);' \
              r'printf("%d %d %d %f\n", a, h, c, f); return 0;}'
        assert run_c(src, stdin=b"99999999999 70000 300 1e40")[1] == (
            "1215752191 4464 44 inf\n")

    def test_string_token(self):
        src = r'int main(){char w[32]; scanf("%s", w);' \
              r'printf("[%s]\n", w); return 0;}'
        assert run_c(src, stdin=b"  hello world")[1] == "[hello]\n"

    def test_return_value_counts_assignments(self):
        src = r'int main(){int a,b; int n = scanf("%d %d",&a,&b);' \
              r'printf("%d\n", n); return 0;}'
        assert run_c(src, stdin=b"5\n")[1] == "1\n"


class TestStringsAndMemory:
    def test_strcmp_orders(self):
        src = r'''
        int main() {
            printf("%d %d %d\n",
                   strcmp("abc", "abc"),
                   strcmp("abc", "abd") < 0 ? -1 : 1,
                   strcmp("b", "a") > 0 ? 1 : -1);
            return 0;
        }
        '''
        assert run_c(src)[1] == "0 -1 1\n"

    def test_strcpy_strcat(self):
        src = r'''
        int main() {
            char buf[32];
            strcpy(buf, "foo");
            strcat(buf, "bar");
            printf("%s %d\n", buf, (int) strlen(buf));
            return 0;
        }
        '''
        assert run_c(src)[1] == "foobar 6\n"

    def test_memset_memcpy(self):
        src = r'''
        int main() {
            char a[8]; char b[8];
            int i;
            memset(a, 65, 7);
            a[7] = 0;
            memcpy(b, a, 8);
            printf("%s\n", b);
            return 0;
        }
        '''
        assert run_c(src)[1] == "AAAAAAA\n"

    def test_atoi(self):
        src = r'int main(){printf("%d\n", atoi("  123junk"));return 0;}'
        assert run_c(src)[1] == "123\n"

    def test_calloc_zeroes(self):
        src = r'''
        int main() {
            int *p = (int*) calloc(10, sizeof(int));
            int i, s = 0;
            for (i = 0; i < 10; i++) s += p[i];
            printf("%d\n", s);
            return 0;
        }
        '''
        assert run_c(src)[1] == "0\n"

    def test_realloc_preserves(self):
        src = r'''
        int main() {
            int *p = (int*) malloc(2 * sizeof(int));
            p[0] = 11; p[1] = 22;
            p = (int*) realloc(p, 8 * sizeof(int));
            printf("%d %d\n", p[0], p[1]);
            return 0;
        }
        '''
        assert run_c(src)[1] == "11 22\n"


class TestAllocationFailure:
    """A request the heap cannot serve returns NULL, as C's allocator
    does, and the program goes on.  Not a ``tests/regress`` ``.stdout``
    file: gcc's malloc serves these sizes, and the gcc oracle would
    disagree."""

    # The native heap is 16 MiB and the UVA heap 256 MiB.
    @pytest.mark.parametrize("call", [
        "malloc(20000000)", "calloc(5000000, 4)", "realloc(q, 30000000)"])
    def test_native_heap_returns_null(self, call):
        src = r'''
        int main() {
            int *q = (int*) malloc(2 * sizeof(int));
            int *p;
            q[0] = 11; q[1] = 22;
            p = (int*) %s;
            printf("%%d %%d %%d\n", p == 0, q[0], q[1]);
            p = (int*) malloc(64);
            p[0] = 5;
            printf("%%d\n", p[0]);
            return 0;
        }
        ''' % call
        for arch in (ARM32, X86_64):
            assert run_c(src, arch=arch) == (0, "1 11 22\n5\n")

    def test_a_failed_allocation_charges_what_a_served_one_does(self):
        src = r'''
        int main() {
            char *p = (char*) malloc(%d);
            return p == 0;
        }
        '''
        served, refused = (interp_for(src % size) for size in (16, 20000000))
        assert (served.run_main(), refused.run_main()) == (0, 1)
        assert served.cycles == refused.cycles

    def test_offloaded_uva_heap_returns_null(self):
        """``grab`` runs on the server, where memory unification made its
        ``malloc`` a ``u_malloc`` of the UVA heap: the request no heap
        can serve is NULL there too, and the output is the phone's."""
        src = r'''
        int grab(int n) {
            char *p = (char*) malloc(n);
            int r;
            if (p == 0) return -1;
            p[0] = 7;
            r = p[0];
            free(p);
            return r;
        }
        int main() {
            printf("%d %d\n", grab(300000000), grab(64));
            return 0;
        }
        '''
        built = build_c(src, compiler_options=CompilerOptions(
            forced_targets=["grab"]))
        grab = built.program.server_module.function("grab")
        assert "u_malloc" in print_function(grab)
        local = built.local().output
        assert local.stdout == b"-1 7\n"
        result = built.session(FAST_WIFI, SessionOptions(
            enable_dynamic_estimation=False)).run()
        assert result.offloaded_invocations == 2
        assert result.output.differences(local) == []


class TestFiles:
    FILES = {"data.txt": b"10\n20\n30\n"}

    def test_fopen_fgets(self):
        src = r'''
        int main() {
            void *f = fopen("data.txt", "r");
            char line[16];
            int total = 0;
            if (!f) return 1;
            while (fgets(line, 16, f)) total += atoi(line);
            fclose(f);
            printf("%d\n", total);
            return 0;
        }
        '''
        assert run_c(src, files=dict(self.FILES))[1] == "60\n"

    def test_fopen_missing_returns_null(self):
        src = r'''
        int main() {
            void *f = fopen("nope.txt", "r");
            void *g = fopen("nope.txt", "r+");
            printf("%d\n", f == NULL && g == NULL ? 1 : 0);
            return 0;
        }
        '''
        interp = interp_for(src)
        interp.run_main()
        assert interp.machine.io.stdout == b"1\n"
        assert interp.machine.io.files == {}    # "r+" creates nothing either

    def test_fread_fwrite_roundtrip(self):
        src = r'''
        int main() {
            char buf[8];
            void *w = fopen("out.bin", "w");
            fwrite("abcdef", 1, 6, w);
            fclose(w);
            void *r = fopen("out.bin", "r");
            int got = (int) fread(buf, 1, 6, r);
            buf[got] = 0;
            printf("%d %s\n", got, buf);
            return 0;
        }
        '''
        assert run_c(src)[1] == "6 abcdef\n"

    def test_feof_and_fgetc(self):
        src = r'''
        int main() {
            void *f = fopen("data.txt", "r");
            int n = 0;
            while (!feof(f)) {
                int c = fgetc(f);
                if (c == EOF) break;
                if (c == 10) n++;
            }
            fclose(f);
            printf("%d lines\n", n);
            return 0;
        }
        '''
        assert run_c(src, files=dict(self.FILES))[1] == "3 lines\n"


class TestMathAndMisc:
    def test_math_functions(self):
        src = r'''
        int main() {
            printf("%.1f %.1f %.1f %.1f\n",
                   sqrt(16.0), fabs(-2.5), pow(2.0, 10.0), floor(3.7));
            return 0;
        }
        '''
        assert run_c(src)[1] == "4.0 2.5 1024.0 3.0\n"

    def test_abs(self):
        assert run_c(r'int main(){printf("%d\n", abs(-9));return 0;}')[1] \
            == "9\n"

    def test_rand_deterministic(self):
        src = r'''
        int main() {
            srand(7);
            int a = rand();
            srand(7);
            int b = rand();
            printf("%d\n", a == b ? 1 : 0);
            return 0;
        }
        '''
        assert run_c(src)[1] == "1\n"

    def test_exit_code(self):
        assert run_c(r'int main(){exit(3); return 0;}')[0] == 3

    def test_puts_putchar(self):
        src = r'int main(){puts("line"); putchar(88); putchar(10);return 0;}'
        assert run_c(src)[1] == "line\nX\n"


class TestZeroLength:
    """n = 0 copies and writes touch no memory, at NULL or one past a
    page-aligned buffer."""

    SRC = r"""
    int main() {
        char *buf = (char*) malloc(4096);
        void *f = fopen("out.bin", "w");
        int w;
        buf[0] = 1;
        w = (int) fwrite((void*) 0, 1, 0, f);
        w += (int) fwrite(buf + 4096, 1, 0, f);
        strncpy((char*) 0, "abc", 0);
        strncpy(buf + 4096, "abc", 0);
        memcpy((void*) 0, buf, 0);
        memcpy(buf + 4096, (void*) 0, 0);
        fclose(f);
        printf("%d %ld\n", w, (long) buf);
        return 0;
    }
    """

    def test_fwrite_strncpy_memcpy_of_nothing(self):
        interp = interp_for(self.SRC)
        memory = interp.machine.memory
        memory.touched = set()
        assert interp.run_main() == 0
        written, buf = map(int, interp.machine.io.stdout.split())
        assert written == 0
        assert buf % memory.page_size == 0
        past = memory.page_index(buf + 4096)
        assert memory.fault_count == 0
        assert not memory.is_mapped(0) and past not in memory.pages
        assert 0 not in memory.dirty and past not in memory.dirty
        assert 0 not in memory.touched and past not in memory.touched

"""The ``diff`` workload: line-oriented comparison of two input files.

Diff is the paper's input-intensive benchmark: nearly every branch in the
comparison loops depends on file contents, so the dynamic analysis only covers
a small fraction of them within its budget and the *dynamic* configuration
cannot reproduce executions in time (Table 6).

Following the paper's methodology for this experiment, the crash being
reproduced is injected externally once the comparison finishes (`crash()` at
the end of ``main`` models the delivered signal); reproducing it therefore
means reconstructing the full comparison path over both files.
"""

from __future__ import annotations

from typing import Dict

from repro.environment import Environment, simple_environment
from repro.workloads.minic_lib import READ_LINE_SNIPPET

_TEMPLATE = r"""
/* diff: compare two text files line by line with a one-line resync
 * heuristic for insertions and deletions. */

char BUF_A[4096];
char BUF_B[4096];
int START_A[128];
int START_B[128];
int LEN_A[128];
int LEN_B[128];
int COUNT_A;
int COUNT_B;

@READ_LINE@
int read_file_lines(char *path, char *buf, int *starts, int *lens) {
    char line[256];
    int fd = open(path, 0);
    int count = 0;
    int offset = 0;
    int n;
    int i;
    if (fd < 0) {
        printf("diff: cannot open %s\n", path);
        exit(2);
    }
    n = read_line(fd, line, 256);
    while (n > 0) {
        if (count >= 128) {
            break;
        }
        starts[count] = offset;
        i = 0;
        while (line[i] != 0 && line[i] != '\n') {
            if (offset >= 4095) {
                break;
            }
            buf[offset] = line[i];
            offset = offset + 1;
            i = i + 1;
        }
        lens[count] = i;
        buf[offset] = 0;
        offset = offset + 1;
        count = count + 1;
        n = read_line(fd, line, 256);
    }
    close(fd);
    return count;
}

int lines_equal(char *buf_a, int start_a, int len_a,
                char *buf_b, int start_b, int len_b) {
    int i = 0;
    if (len_a != len_b) {
        return 0;
    }
    while (i < len_a) {
        if (buf_a[start_a + i] != buf_b[start_b + i]) {
            return 0;
        }
        i = i + 1;
    }
    return 1;
}

void print_line(char *prefix, char *buf, int start, int len) {
    int i = 0;
    printf("%s", prefix);
    while (i < len) {
        putchar(buf[start + i]);
        i = i + 1;
    }
    putchar('\n');
}

int compare_files() {
    int ia = 0;
    int ib = 0;
    int differences = 0;
    while (ia < COUNT_A && ib < COUNT_B) {
        if (lines_equal(BUF_A, START_A[ia], LEN_A[ia],
                        BUF_B, START_B[ib], LEN_B[ib]) == 1) {
            ia = ia + 1;
            ib = ib + 1;
            continue;
        }
        differences = differences + 1;
        /* One-line resync heuristic: detect a single inserted or deleted
         * line before falling back to reporting a changed line. */
        if (ib + 1 < COUNT_B &&
            lines_equal(BUF_A, START_A[ia], LEN_A[ia],
                        BUF_B, START_B[ib + 1], LEN_B[ib + 1]) == 1) {
            print_line("> ", BUF_B, START_B[ib], LEN_B[ib]);
            ib = ib + 1;
            continue;
        }
        if (ia + 1 < COUNT_A &&
            lines_equal(BUF_A, START_A[ia + 1], LEN_A[ia + 1],
                        BUF_B, START_B[ib], LEN_B[ib]) == 1) {
            print_line("< ", BUF_A, START_A[ia], LEN_A[ia]);
            ia = ia + 1;
            continue;
        }
        print_line("< ", BUF_A, START_A[ia], LEN_A[ia]);
        print_line("> ", BUF_B, START_B[ib], LEN_B[ib]);
        ia = ia + 1;
        ib = ib + 1;
    }
    while (ia < COUNT_A) {
        print_line("< ", BUF_A, START_A[ia], LEN_A[ia]);
        differences = differences + 1;
        ia = ia + 1;
    }
    while (ib < COUNT_B) {
        print_line("> ", BUF_B, START_B[ib], LEN_B[ib]);
        differences = differences + 1;
        ib = ib + 1;
    }
    return differences;
}

int main(int argc, char **argv) {
    int differences;
    if (argc < 3) {
        printf("usage: diff FILE1 FILE2\n");
        return 2;
    }
    COUNT_A = read_file_lines(argv[1], BUF_A, START_A, LEN_A);
    COUNT_B = read_file_lines(argv[2], BUF_B, START_B, LEN_B);
    differences = compare_files();
    if (differences == 0) {
        printf("files are identical\n");
    } else {
        printf("%d difference(s)\n", differences);
    }
    /* Externally induced fault after the comparison finished (section 5.4
     * methodology): the bug report's crash site is here, and reproducing it
     * requires reconstructing the comparison path over both inputs. */
    crash("simulated fault delivered after diff completed");
    return 0;
}
"""

SOURCE = _TEMPLATE.replace("@READ_LINE@", READ_LINE_SNIPPET)

EXP1_FILES: Dict[str, bytes] = {
    "/old.txt": b"alpha\nbravo\ncharlie\ndelta\n",
    "/new.txt": b"alpha\nbravo\ncharly\ndelta\n",
}

EXP2_FILES: Dict[str, bytes] = {
    "/old.txt": (b"one\ntwo\nthree\nfour\nfive\nsix\nseven\n"),
    "/new.txt": (b"one\ntwo\n2.5\nthree\nfour\nFIVE\nsix\n"),
}


def experiment_1() -> Environment:
    """Exp. 1: one changed line between two four-line files."""

    return simple_environment(["diff", "/old.txt", "/new.txt"],
                              files=EXP1_FILES, name="diff-exp1")


def experiment_2() -> Environment:
    """Exp. 2: an insertion, a change and a deletion across seven lines."""

    return simple_environment(["diff", "/old.txt", "/new.txt"],
                              files=EXP2_FILES, name="diff-exp2")


def experiment_big(lines: int = 10, changed=(2, 5, 7),
                   name: str = "") -> Environment:
    """A grown comparison: *lines* per file, a case flip on each *changed* line.

    The paper's diff experiments compare full-size text files; this scenario
    scales our inputs toward that (longer lines, more of them, several changed
    lines).  Used by perfbench's ``triage`` workload and by the
    repair-in-place, solve-once and specialization tests.
    """

    changed = frozenset(changed)
    old = b"".join(b"line-%03d common text here\n" % i for i in range(lines))
    new = b"".join(
        (b"line-%03d common teXt here\n" if i in changed
         else b"line-%03d common text here\n") % i
        for i in range(lines))
    return custom_scenario(old, new, name=name or f"diff-big{lines}")


def identical_scenario() -> Environment:
    """Two identical files: no differences reported."""

    files = {"/old.txt": b"same\nsame\n", "/new.txt": b"same\nsame\n"}
    return simple_environment(["diff", "/old.txt", "/new.txt"],
                              files=files, name="diff-identical")


def custom_scenario(old: bytes, new: bytes, name: str = "diff-custom") -> Environment:
    """Compare two arbitrary byte strings (used by property tests)."""

    files = {"/old.txt": old, "/new.txt": new}
    return simple_environment(["diff", "/old.txt", "/new.txt"],
                              files=files, name=name)
